//! Property tests for the morsel scheduler's determinism contract: a
//! parallel run over per-thread deques with work stealing produces output
//! pages **byte-identical** to the single-threaded run, for arbitrary
//! morsel sizes, thread counts, page-size skew, and data seeds. The
//! decomposition into morsels is a pure function of the input pages and
//! `morsel_rows`, each morsel seals its output in the thread that ran it,
//! and the merge orders strictly by morsel index — so which thread (or how
//! many) executed a morsel can never show up in the bytes.

use pc_cluster::testkit::{assert_runs_identical, set_bytes_sorted};
use pc_cluster::{ClusterConfig, PcCluster};
use pc_core::{Dataset, Job, Var};
use pc_exec::ExecConfig;
use pc_lambda::{AggregateSpec, SetWriter};
use pc_object::{make_object, pc_object, BlockRef, Handle, PcResult, PcVec};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

pc_object! {
    pub struct Rec / RecView {
        (key, set_key): i64,
        (val, set_val): i64,
    }
}

fn cluster(threads: usize, morsel_rows: usize) -> PcCluster {
    PcCluster::new(ClusterConfig {
        workers: 2,
        exec: ExecConfig {
            batch_size: 32,
            page_size: 1 << 15,
            agg_partitions: 3,
            join_partitions: 4,
            morsel_rows,
            threads,
        },
        ..ClusterConfig::default()
    })
    .unwrap()
}

/// Loads `n` seeded records through skewed page sizes: each `layout` chunk
/// writes its rows through its own small `SetWriter` page size, so page
/// boundaries — and therefore morsel boundaries — differ per case.
fn load(c: &PcCluster, n: usize, layout: &[(usize, u8)], seed: u64) {
    c.create_or_clear_set("db", "recs").unwrap();
    let mut i = 0usize;
    let mut chunk = 0usize;
    while i < n {
        let (rows, shift) = layout[chunk % layout.len()];
        chunk += 1;
        let rows = rows.min(n - i).max(1);
        let mut w = SetWriter::new(1 << (11 + (shift % 4) as usize));
        for _ in 0..rows {
            let k = i as u64;
            w.write_with(|| {
                let r = make_object::<Rec>()?;
                r.v()
                    .set_key(((seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 97) as i64)?;
                r.v().set_val((k as i64 * 31) % 1009)?;
                Ok(r.erase())
            })
            .unwrap();
            i += 1;
        }
        c.send_pages("db", "recs", w.finish().unwrap()).unwrap();
    }
    // The join's first input, which streams and probes: one row per
    // possible key.
    c.create_or_clear_set("db", "dim").unwrap();
    let mut w = SetWriter::new(1 << 13);
    for d in 0..97i64 {
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

/// Runs the flatmap and join-build lanes at the given parallelism and
/// returns their output pages in canonical (sorted-bytes) form.
fn run_case(
    threads: usize,
    morsel_rows: usize,
    n: usize,
    layout: &[(usize, u8)],
    seed: u64,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let c = cluster(threads, morsel_rows);
    load(&c, n, layout, seed);
    c.create_or_clear_set("db", "fm_out").unwrap();
    c.create_or_clear_set("db", "join_out").unwrap();

    // FLATMAP lane: data-dependent fan-out (1..=3 per row).
    let fanned = Dataset::<Rec>::scan("db", "recs").flat_map("explode", |r| {
        let mut out = Vec::new();
        for b in 0..(r.v().key() % 3) + 1 {
            let x = make_object::<Rec>()?;
            x.v().set_key(r.v().key())?;
            x.v().set_val(r.v().val() + b)?;
            out.push(x);
        }
        Ok(out)
    });

    // Join-build lane: the big seeded set is the LATER input, so it feeds
    // the parallel build sink; `dim` comes first, streams and probes.
    let joined = Dataset::<Rec>::scan("db", "dim").join(
        &Dataset::<Rec>::scan("db", "recs"),
        |b, a| key_of(a).eq(key_of(b)),
        "mkPair",
        |b, a| {
            let v = make_object::<PcVec<i64>>()?;
            v.push(a.v().key())?;
            v.push(a.v().val() + b.v().val())?;
            Ok(v)
        },
    );

    let q = Job::new()
        .add(fanned.write_to("db", "fm_out"))
        .add(joined.write_to("db", "join_out"))
        .compile()
        .unwrap();
    c.execute(&q).unwrap();
    (
        set_bytes_sorted(&c, "db", "fm_out").unwrap(),
        set_bytes_sorted(&c, "db", "join_out").unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_runs_are_byte_identical_to_single_threaded(
        threads in 2usize..6,
        morsel_rows in 16usize..512,
        layout in pvec((8usize..120, 0u8..4), 1..6),
        seed in 0..u64::MAX,
    ) {
        let n = 700;
        let label = format!(
            "threads={threads} morsel_rows={morsel_rows} layout={layout:?} seed={seed}"
        );
        let (fm_base, join_base) = run_case(1, morsel_rows, n, &layout, seed);
        let (fm_par, join_par) = run_case(threads, morsel_rows, n, &layout, seed);
        assert_runs_identical(&format!("flatmap lane, {label}"), &fm_base, &fm_par);
        assert_runs_identical(&format!("join-build lane, {label}"), &join_base, &join_par);
    }
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

/// The non-property companion: distributed two-phase aggregation stays
/// byte-identical as `ExecConfig::threads` sweeps 1 → 2 → 4 (the same
/// sweep CI drives externally via `PC_THREADS`).
#[test]
fn distributed_aggregation_is_byte_identical_across_thread_counts() {
    let layout = [(40usize, 0u8), (90, 2), (17, 3)];
    let run = |threads: usize| -> Vec<Vec<u8>> {
        let c = cluster(threads, 48);
        load(&c, 900, &layout, 0xC0FFEE);
        c.create_or_clear_set("db", "sums").unwrap();
        let q = Job::new()
            .add(
                Dataset::<Rec>::scan("db", "recs")
                    .aggregate(SumAgg)
                    .write_to("db", "sums"),
            )
            .compile()
            .unwrap();
        c.execute(&q).unwrap();
        set_bytes_sorted(&c, "db", "sums").unwrap()
    };
    let base = run(1);
    for threads in [2, 4] {
        assert_runs_identical(
            &format!("aggregation at {threads} threads"),
            &base,
            &run(threads),
        );
    }
}
