//! `repro outofcore` — the out-of-core execution demonstration: a
//! join → aggregation pipeline forced through grace-style spilling by a
//! buffer-pool budget ~10× smaller than the dataset, gated on producing
//! output **byte-identical** to the unbudgeted in-memory run.
//!
//! Three passes:
//!
//! 1. **baseline** — a 1 GiB pool (everything resident), establishing the
//!    reference bytes and the reference wall time;
//! 2. **budgeted** — the same query at `pool = dataset / 10`, which must
//!    spill (join partitions sealed + spilled at build, aggregation map
//!    pages spilled at flush, second-pass waves over reloaded chunks) and
//!    still reproduce the baseline bytes exactly;
//! 3. **pressure sweep** — the budgeted pool with seeded memory-pressure
//!    injection armed (reservations denied as a pure function of
//!    seed × reservation index), so spill decisions fire at randomized
//!    points; every seed must again be byte-identical.
//!
//! Exit is non-zero if any pass fails to complete, differs from the
//! baseline bytes, the budgeted run never actually spilled, or any worker
//! pool leaks a spill file after its run. Run from the repo root with:
//!
//! ```text
//! cargo run --release -p pc-bench --bin repro -- outofcore [--quick] [--seed N]
//! ```

use crate::util::{fmt_dur, row, time_once};
use pc_core::prelude::*;
use pc_object::PressureSpec;
use std::time::Duration;

pc_object! {
    /// The workload's record: a join/group key and a payload.
    pub struct BenchRec / BenchRecView {
        (key, set_key): i64,
        (val, set_val): i64,
    }
}

/// The workload's aggregation: group by `key`, folding `(count, sum(val))`.
struct SumAgg;

impl AggregateSpec for SumAgg {
    type In = BenchRec;
    type Key = i64;
    type Val = (i64, i64);
    type Out = BenchRec;

    fn key_of(&self, rec: &Handle<BenchRec>) -> PcResult<i64> {
        Ok(rec.v().key())
    }

    fn init(&self, _b: &BlockRef, rec: &Handle<BenchRec>) -> PcResult<(i64, i64)> {
        Ok((1, rec.v().val()))
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<BenchRec>) -> PcResult<()> {
        let (c, t): (i64, i64) = b.read(slot);
        b.write(slot, (c + 1, t + rec.v().val()));
        Ok(())
    }

    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()> {
        let (c1, t1): (i64, i64) = dst.read(dst_slot);
        let (c2, t2): (i64, i64) = src.read(src_slot);
        dst.write(dst_slot, (c1 + c2, t1 + t2));
        Ok(())
    }

    fn finalize(&self, key: &i64, b: &BlockRef, val_slot: u32) -> PcResult<Handle<BenchRec>> {
        let (_c, t): (i64, i64) = b.read(val_slot);
        let out = make_object::<BenchRec>()?;
        out.v().set_key(*key)?;
        out.v().set_val(t)?;
        Ok(out)
    }
}

/// One measured out-of-core pass and everything the gates need from it.
struct OocRun {
    bytes: Vec<Vec<u8>>,
    dur: Duration,
    join_partitions_spilled: u64,
    join_bytes_spilled: u64,
    agg_pages_spilled: u64,
    agg_bytes_spilled: u64,
    spill_waves: u64,
    pool_evictions: u64,
    leaked_spill_files: usize,
    reserved_after: usize,
}

impl OocRun {
    fn operator_spills(&self) -> u64 {
        self.join_partitions_spilled + self.agg_pages_spilled
    }
}

fn client_with(threads: usize, pool_capacity: usize, pressure: Option<PressureSpec>) -> PcClient {
    PcClient::connect(ClusterConfig {
        workers: 1,
        exec: ExecConfig {
            batch_size: 256,
            // Small pages so the dataset spans many of them: spilling moves
            // whole page chains, and the second pass chunks by page.
            page_size: 1 << 14,
            agg_partitions: 4,
            join_partitions: 8,
            threads,
            ..ExecConfig::default()
        },
        pool_capacity,
        pressure,
        ..ClusterConfig::default()
    })
    .expect("cluster boot")
}

fn load(c: &PcClient, set: &str, n: usize, key_mod: i64) {
    c.create_or_clear_set("bench", set).unwrap();
    c.store("bench", set, n, |i| {
        let r = make_object::<BenchRec>()?;
        r.v().set_key((i as i64 * 997) % key_mod)?;
        r.v().set_val(i as i64)?;
        Ok(r.erase())
    })
    .unwrap();
}

fn key_of(r: Var<BenchRec>) -> Lambda<i64> {
    r.member("key", |r| r.v().key())
}

/// The workload: a high-cardinality input streamed and probed against a
/// one-row-per-key dim side, which builds the join table, aggregated by key.
/// The build table and the aggregation state are each a large share of the
/// dataset, so a pool 10× smaller forces both operators out of core. Ending
/// in an aggregation matters: the second-pass wave schedule changes join
/// output *order* with the budget, and the canonical (hash-sorted)
/// aggregation finalize is what makes the final bytes comparable across
/// budgets at all.
fn run_ooc(
    threads: usize,
    n: usize,
    keys: i64,
    pool_capacity: usize,
    pressure: Option<PressureSpec>,
) -> Result<OocRun, String> {
    let c = client_with(threads, pool_capacity, pressure);
    load(&c, "ooc_build", n, keys);
    load(&c, "ooc_dim", keys as usize, keys);
    c.create_or_clear_set("bench", "ooc_out").unwrap();

    let build = c.set::<BenchRec>("bench", "ooc_build");
    let dim = c.set::<BenchRec>("bench", "ooc_dim");
    let sink = build
        .join(
            &dim,
            |a, b| key_of(a).eq(key_of(b)),
            "oocPair",
            |a, b| {
                let p = make_object::<BenchRec>()?;
                p.v().set_key(a.v().key())?;
                p.v().set_val(a.v().val() + b.v().val())?;
                Ok(p)
            },
        )
        .aggregate(SumAgg)
        .write_to("bench", "ooc_out");

    let (stats, dur) = time_once(|| sink.run(&c));
    let stats = stats.map_err(|e| format!("query failed under budget {pool_capacity}: {e}"))?;
    let bytes = pc_cluster::testkit::set_bytes_sorted(c.cluster(), "bench", "ooc_out")
        .map_err(|e| format!("reading ooc_out: {e}"))?;
    let (mut leaked, mut reserved) = (0usize, 0usize);
    for w in &c.cluster().workers {
        let pool = w.storage.pool();
        leaked += pool.leaked_spill_files();
        reserved += pool.budget().reserved();
    }
    Ok(OocRun {
        bytes,
        dur,
        join_partitions_spilled: stats.exec.join_partitions_spilled,
        join_bytes_spilled: stats.exec.join_bytes_spilled,
        agg_pages_spilled: stats.exec.agg_pages_spilled,
        agg_bytes_spilled: stats.exec.agg_bytes_spilled,
        spill_waves: stats.exec.spill_waves,
        pool_evictions: stats.exec.pool_evictions,
        leaked_spill_files: leaked,
        reserved_after: reserved,
    })
}

/// Bytes the two input sets occupy, measured from a load at a roomy pool
/// (what "the dataset" means for the 10× budget ratio).
fn dataset_bytes(threads: usize, n: usize, keys: i64) -> u64 {
    let c = client_with(threads, 1 << 30, None);
    load(&c, "ooc_build", n, keys);
    load(&c, "ooc_dim", keys as usize, keys);
    ["ooc_build", "ooc_dim"]
        .iter()
        .flat_map(|set| c.cluster().scan_set("bench", set).unwrap())
        .map(|p| p.used() as u64)
        .sum()
}

fn print_run(label: &str, r: &OocRun, widths: &[usize]) {
    row(
        &[
            label.to_string(),
            fmt_dur(r.dur),
            r.join_partitions_spilled.to_string(),
            r.agg_pages_spilled.to_string(),
            r.spill_waves.to_string(),
            format!(
                "{:.1}",
                (r.join_bytes_spilled + r.agg_bytes_spilled) as f64 / 1e6
            ),
            r.pool_evictions.to_string(),
            r.leaked_spill_files.to_string(),
        ],
        widths,
    );
}

fn fail(failures: &mut Vec<String>, msg: String) {
    eprintln!("FAIL: {msg}");
    failures.push(msg);
}

pub fn outofcore(quick: bool, threads: Option<usize>, extra_seeds: &[u64]) {
    let n = if quick { 24_000 } else { 120_000 };
    let keys = (n / 2) as i64;
    let threads = threads.unwrap_or_else(pc_exec::default_threads).max(1);
    let mut seeds: Vec<u64> = if quick { vec![1, 2] } else { vec![1, 2, 3, 4] };
    seeds.extend_from_slice(extra_seeds);

    let data = dataset_bytes(threads, n, keys);
    // The tentpole ratio: the pool gets a tenth of the data. Floored at a
    // handful of pages so the pool can still turn over at tiny --quick
    // sizes without thrashing to uselessness.
    let budget = ((data / 10) as usize).max(8 << 14);
    println!(
        "out-of-core: join+aggregate over {n} rows x {keys} keys \
         ({:.1} MB data) at a {:.1} MB pool budget ({}x smaller), {threads} thread(s)",
        data as f64 / 1e6,
        budget as f64 / 1e6,
        data / budget as u64
    );
    println!("(every budgeted run must be byte-identical to the in-memory run)\n");

    let widths = [18usize, 9, 10, 9, 7, 10, 10, 8];
    row(
        &[
            "pass".into(),
            "time".into(),
            "jp_spill".into(),
            "ag_spill".into(),
            "waves".into(),
            "MB spill".into(),
            "evict".into(),
            "leaked".into(),
        ],
        &widths,
    );

    let mut failures: Vec<String> = Vec::new();

    let baseline = match run_ooc(threads, n, keys, 1 << 30, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: baseline (in-memory) run: {e}");
            std::process::exit(1);
        }
    };
    print_run("in-memory", &baseline, &widths);
    if baseline.bytes.is_empty() {
        fail(
            &mut failures,
            "baseline run produced no output pages".into(),
        );
    }

    let budgeted = match run_ooc(threads, n, keys, budget, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: budgeted run: {e}");
            std::process::exit(1);
        }
    };
    print_run("budgeted", &budgeted, &widths);
    if budgeted.bytes != baseline.bytes {
        fail(
            &mut failures,
            "budgeted run output differs from the in-memory run".into(),
        );
    }
    if budgeted.operator_spills() == 0 {
        fail(
            &mut failures,
            format!(
                "budgeted run never spilled (pool {budget} bytes vs {data} data) — \
                 the out-of-core path was not exercised"
            ),
        );
    }
    if budgeted.leaked_spill_files != 0 {
        fail(
            &mut failures,
            format!(
                "{} spill file(s) leaked after budgeted run",
                budgeted.leaked_spill_files
            ),
        );
    }
    if budgeted.reserved_after != 0 {
        fail(
            &mut failures,
            format!(
                "{} budget bytes still reserved after budgeted run",
                budgeted.reserved_after
            ),
        );
    }

    // The chaos leg: same budget, with seeded denials layered on top.
    for &seed in &seeds {
        match run_ooc(threads, n, keys, budget, Some(PressureSpec::seeded(seed))) {
            Ok(r) => {
                print_run(&format!("pressure seed={seed}"), &r, &widths);
                if r.bytes != baseline.bytes {
                    fail(
                        &mut failures,
                        format!("pressure seed {seed}: output differs from in-memory run"),
                    );
                }
                if r.leaked_spill_files != 0 {
                    fail(
                        &mut failures,
                        format!(
                            "pressure seed {seed}: {} spill file(s) leaked",
                            r.leaked_spill_files
                        ),
                    );
                }
            }
            Err(e) => fail(&mut failures, format!("pressure seed {seed}: {e}")),
        }
    }

    let slowdown = budgeted.dur.as_secs_f64() / baseline.dur.as_secs_f64().max(1e-9);
    println!(
        "\nbudgeted slowdown: {slowdown:.2}x over in-memory \
         ({} join partition(s) + {} agg page(s) spilled, {} second-pass wave(s))",
        budgeted.join_partitions_spilled, budgeted.agg_pages_spilled, budgeted.spill_waves
    );

    if !failures.is_empty() {
        eprintln!("\n{} out-of-core gate(s) failed", failures.len());
        std::process::exit(1);
    }
    println!(
        "\nall passes byte-identical to the in-memory run; no spill files leaked \
         ({} pressure seed(s))",
        seeds.len()
    );
}
