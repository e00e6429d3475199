//! Out-of-core correctness properties: a join → aggregation forced to
//! spill by a pool budget far smaller than its input produces output
//! **byte-identical** to the unbudgeted in-memory run — across data seeds,
//! partition counts, thread counts, and seeded memory-pressure injection —
//! and an abort partway through a spilling stage leaks no spill files.

use pc_cluster::testkit::{assert_runs_identical, set_bytes_sorted};
use pc_cluster::{ClusterConfig, ClusterStats, PcCluster};
use pc_core::{Dataset, Job, Var};
use pc_exec::ExecConfig;
use pc_lambda::{AggregateSpec, SetWriter};
use pc_object::{make_object, pc_object, BlockRef, Handle, PcError, PcResult, PressureSpec};
use proptest::prelude::*;
use std::sync::atomic::{AtomicI64, Ordering};

pc_object! {
    pub struct Rec / RecView {
        (key, set_key): i64,
        (val, set_val): i64,
    }
}

fn cluster(
    threads: usize,
    pool_capacity: usize,
    pressure: Option<PressureSpec>,
    join_partitions: usize,
    agg_partitions: usize,
) -> PcCluster {
    PcCluster::new(ClusterConfig {
        workers: 2,
        exec: ExecConfig {
            batch_size: 64,
            page_size: 1 << 13,
            agg_partitions,
            join_partitions,
            threads,
            ..ExecConfig::default()
        },
        pool_capacity,
        pressure,
        ..ClusterConfig::default()
    })
    .unwrap()
}

fn load(c: &PcCluster, n: usize, keys: i64, seed: u64) {
    c.create_or_clear_set("db", "big").unwrap();
    let mut w = SetWriter::new(1 << 12);
    for i in 0..n {
        let k = (seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % keys as u64;
        w.write_with(|| {
            let r = make_object::<Rec>()?;
            r.v().set_key(k as i64)?;
            r.v().set_val(i as i64)?;
            Ok(r.erase())
        })
        .unwrap();
    }
    c.send_pages("db", "big", w.finish().unwrap()).unwrap();

    c.create_or_clear_set("db", "dim").unwrap();
    let mut w = SetWriter::new(1 << 12);
    for d in 0..keys {
        w.write_with(|| {
            let r = make_object::<Rec>()?;
            r.v().set_key(d)?;
            r.v().set_val(d * 1000)?;
            Ok(r.erase())
        })
        .unwrap();
    }
    c.send_pages("db", "dim", w.finish().unwrap()).unwrap();
}

fn key_of(r: Var<Rec>) -> pc_lambda::Lambda<i64> {
    r.member("key", |r| r.v().key())
}

struct SumAgg;

impl AggregateSpec for SumAgg {
    type In = Rec;
    type Key = i64;
    type Val = i64;
    type Out = Rec;

    fn key_of(&self, rec: &Handle<Rec>) -> PcResult<i64> {
        Ok(rec.v().key())
    }
    fn init(&self, _b: &BlockRef, rec: &Handle<Rec>) -> PcResult<i64> {
        Ok(rec.v().val())
    }
    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<Rec>) -> PcResult<()> {
        let t: i64 = b.read(slot);
        b.write(slot, t + rec.v().val());
        Ok(())
    }
    fn merge(&self, dst: &BlockRef, ds: u32, src: &BlockRef, ss: u32) -> PcResult<()> {
        let t1: i64 = dst.read(ds);
        let t2: i64 = src.read(ss);
        dst.write(ds, t1 + t2);
        Ok(())
    }
    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<Rec>> {
        let t: i64 = b.read(slot);
        let out = make_object::<Rec>()?;
        out.v().set_key(*key)?;
        out.v().set_val(t)?;
        Ok(out)
    }
}

/// Runs the join → aggregate query and returns the output set's canonical
/// bytes plus run stats. `poison_after` is the number of rows the join
/// projection may emit before erroring out (`None`: never). The budget is
/// owned by this call's projection closure, so concurrently running tests
/// cannot eat each other's injected abort.
fn run_query(c: &PcCluster, poison_after: Option<i64>) -> PcResult<(Vec<Vec<u8>>, ClusterStats)> {
    c.create_or_clear_set("db", "sums").unwrap();
    let poison_budget = poison_after.map(AtomicI64::new);
    // `dim` comes first and streams; `big` is the later input, so it builds.
    let joined = Dataset::<Rec>::scan("db", "dim").join(
        &Dataset::<Rec>::scan("db", "big"),
        |b, a| key_of(a).eq(key_of(b)),
        "oocPair",
        move |b, a| {
            if let Some(left) = &poison_budget {
                if left.fetch_sub(1, Ordering::Relaxed) <= 0 {
                    return Err(PcError::Catalog("injected mid-stage abort".into()));
                }
            }
            let p = make_object::<Rec>()?;
            p.v().set_key(a.v().key())?;
            p.v().set_val(a.v().val() + b.v().val())?;
            Ok(p)
        },
    );
    let q = Job::new()
        .add(joined.aggregate(SumAgg).write_to("db", "sums"))
        .compile()
        .unwrap();
    let stats = c.execute(&q)?;
    Ok((set_bytes_sorted(c, "db", "sums")?, stats))
}

fn leaked_and_reserved(c: &PcCluster) -> (usize, usize) {
    let mut leaked = 0;
    let mut reserved = 0;
    for w in &c.workers {
        leaked += w.storage.pool().leaked_spill_files();
        reserved += w.storage.pool().budget().reserved();
    }
    (leaked, reserved)
}

/// Pool small enough that both the join build table and the aggregation
/// maps exceed it at the test's row counts.
const TINY_POOL: usize = 24 << 10;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole property: for arbitrary data seeds, partition counts,
    /// thread counts, and injected memory pressure, the spilling run is
    /// byte-identical to the in-memory run — and actually spilled.
    #[test]
    fn spilling_run_matches_in_memory_run(
        seed in 0..u64::MAX,
        join_partitions in 2usize..9,
        agg_partitions in 2usize..6,
        threads in prop_oneof![Just(1usize), Just(4usize)],
        pressure_seed in prop_oneof![Just(None), (0..u64::MAX).prop_map(Some)],
    ) {
        let (n, keys) = (1_200, 600i64);
        let label = format!(
            "seed={seed} jp={join_partitions} ap={agg_partitions} threads={threads} pressure={pressure_seed:?}"
        );

        let base_c = cluster(threads, 1 << 30, None, join_partitions, agg_partitions);
        load(&base_c, n, keys, seed);
        let (baseline, base_stats) = run_query(&base_c, None).unwrap();
        prop_assert_eq!(
            base_stats.exec.join_partitions_spilled + base_stats.exec.agg_pages_spilled,
            0,
            "in-memory run must not spill"
        );

        let pressure = pressure_seed.map(PressureSpec::seeded);
        let c = cluster(threads, TINY_POOL, pressure, join_partitions, agg_partitions);
        load(&c, n, keys, seed);
        let (got, stats) = run_query(&c, None).unwrap();
        assert_runs_identical(&label, &baseline, &got);
        prop_assert!(
            stats.exec.join_partitions_spilled + stats.exec.agg_pages_spilled > 0,
            "[{}] budgeted run never spilled", label
        );
        prop_assert!(
            stats.exec.join_partitions_spilled > 0,
            "[{}] join build never spilled", label
        );
        let (leaked, reserved) = leaked_and_reserved(&c);
        prop_assert_eq!(leaked, 0, "[{}] leaked spill files", &label);
        prop_assert_eq!(reserved, 0, "[{}] leaked budget reservation", &label);
    }
}

/// The spill-file lifecycle regression (satellite of the same PR that made
/// spilling possible): a stage that *aborts* after the build side has
/// already spilled must still clean up every spill file — the `SpillSet`'s
/// drop walks its namespace regardless of how the stage exits.
#[test]
fn mid_stage_abort_leaks_no_spill_files() {
    let (n, keys) = (1_200, 600i64);
    let c = cluster(1, TINY_POOL, None, 8, 4);
    load(&c, n, keys, 7);

    // Poison the probe-side projection: the join build (which spills at
    // this pool size) completes, then the probe stage dies mid-flight.
    let err = run_query(&c, Some(50));
    assert!(err.is_err(), "poisoned run must fail");

    // The failed run spilled (cumulative pool counters survive the error)…
    let spills: u64 = c
        .workers
        .iter()
        .map(|w| w.storage.pool().stats().spills)
        .sum();
    assert!(spills > 0, "abort test never exercised the spill path");
    // …and everything it spilled was reclaimed on abort.
    let (leaked, reserved) = leaked_and_reserved(&c);
    assert_eq!(leaked, 0, "mid-stage abort leaked spill files");
    assert_eq!(reserved, 0, "mid-stage abort leaked budget reservations");

    // The cluster is still usable: the same query, un-poisoned, completes
    // and spills again cleanly.
    let (bytes, stats) = run_query(&c, None).unwrap();
    assert!(!bytes.is_empty());
    assert!(stats.exec.join_partitions_spilled + stats.exec.agg_pages_spilled > 0);
    let (leaked, _) = leaked_and_reserved(&c);
    assert_eq!(leaked, 0);
}
