//! `repro pipeline` — the measured perf trajectory of the vectorized
//! execution hot path (§5.2, Appendix C).
//!
//! Runs seven macro workloads through the full engine (scan, filter-heavy
//! selection, FLATMAP fan-out, join probe, join build, low- and
//! high-cardinality group-by) at every thread count in the morsel scaling
//! sweep ({1, 2, 4} ∪ {N}), plus four micro A/Bs — the selection-vector
//! filter against the pre-selection-vector eager-materialization path, the
//! vectorized aggregation sink (batch hash → radix partition → grouped bulk
//! upsert) against the row-at-a-time path, the partitioned vectorized
//! join (batched build, partition-routed tag-filtered probes) against the
//! retained rowwise build + full-page-scan probe, and the FLATMAP kernel
//! with its learned fan-out capacity hint against a cold (hint-less)
//! allocation — then writes `BENCH_pipeline.json`,
//! the baseline every future perf PR is measured against. Refresh it from
//! the repo root with:
//!
//! ```text
//! cargo run --release -p pc-bench --bin repro -- pipeline [--threads N]
//! ```

use crate::util::{fmt_dur, row, time_once};
use pc_core::prelude::*;
use pc_exec::VectorList;
use pc_lambda::{Column, ColumnPool};
use std::time::Duration;

pc_object! {
    /// The benchmark record: a key for joins/filters and a payload.
    pub struct BenchRec / BenchRecView {
        (key, set_key): i64,
        (val, set_val): i64,
    }
}

fn client(threads: usize) -> PcClient {
    PcClient::connect(ClusterConfig {
        workers: 1,
        exec: ExecConfig {
            batch_size: 1024,
            page_size: 1 << 20,
            agg_partitions: 4,
            join_partitions: 8,
            threads,
            ..ExecConfig::default()
        },
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

/// One measured workload: `(rows_in, rows_out, wall time)` plus the
/// two-phase aggregation and join counters (zero where not applicable).
struct Run {
    rows_in: u64,
    rows_out: u64,
    rows_aggregated: u64,
    map_pages_sealed: u64,
    rows_probed: u64,
    join_matches: u64,
    build_pages_sealed: u64,
    morsels_dispatched: u64,
    morsels_stolen: u64,
    threads_used: usize,
    pool_hits: u64,
    pool_misses: u64,
    pool_evictions: u64,
    pool_spills: u64,
    dur: Duration,
}

impl Run {
    fn mrows_per_s(&self) -> f64 {
        self.rows_in as f64 / self.dur.as_secs_f64() / 1e6
    }
}

/// Times one sink's execution. The destination set is pre-created here so
/// the timed region's own create-or-clear is a no-op on an empty set — the
/// measured span stays compile → optimize → plan → run, as it always was.
fn execute(c: &PcClient, sink: Sink, out_set: &str) -> Run {
    c.create_or_clear_set("bench", out_set).unwrap();
    let (stats, dur) = time_once(|| sink.run(c).unwrap());
    Run {
        rows_in: stats.exec.rows_in,
        rows_out: stats.exec.rows_out,
        rows_aggregated: stats.exec.rows_aggregated,
        map_pages_sealed: stats.exec.map_pages_sealed,
        rows_probed: stats.exec.rows_probed,
        join_matches: stats.exec.join_matches,
        build_pages_sealed: stats.exec.build_pages_sealed,
        morsels_dispatched: stats.exec.morsels_dispatched,
        morsels_stolen: stats.exec.morsels_stolen,
        threads_used: stats.exec.threads_used,
        pool_hits: stats.exec.pool_hits,
        pool_misses: stats.exec.pool_misses,
        pool_evictions: stats.exec.pool_evictions,
        pool_spills: stats.exec.pool_spills,
        dur,
    }
}

/// Full-table scan: an always-true selection copied straight to the sink.
fn scan(c: &PcClient, n: usize) -> Run {
    load(c, "scan_in", n, 100_000);
    let sink = c
        .set::<BenchRec>("bench", "scan_in")
        .filter(|r| key_of(r).ge_const(0i64))
        .write_to("bench", "scan_out");
    execute(c, sink, "scan_out")
}

/// Filter-heavy selection: ~2% of rows survive, so the batch path is
/// dominated by what FILTER does with the 98% it drops.
fn filter_heavy(c: &PcClient, n: usize) -> Run {
    load(c, "filter_in", n, 100_000);
    let sink = c
        .set::<BenchRec>("bench", "filter_in")
        .filter(|r| key_of(r).gt_const(98_000i64))
        .write_to("bench", "filter_out");
    execute(c, sink, "filter_out")
}

/// FLATMAP fan-out: every input row emits four output objects.
fn flatmap(c: &PcClient, n: usize) -> Run {
    load(c, "fm_in", n / 4, 100_000);
    let sink = c
        .set::<BenchRec>("bench", "fm_in")
        .flat_map("fanout4", |r| {
            let key = r.v().key();
            let mut out = Vec::with_capacity(4);
            for k in 0..4 {
                let v = make_object::<BenchRec>()?;
                v.v().set_key(key)?;
                v.v().set_val(k)?;
                out.push(v);
            }
            Ok(out)
        })
        .write_to("bench", "fm_out");
    execute(c, sink, "fm_out")
}

/// The join projection shared by both join workloads.
fn mk_pair(a: &Handle<BenchRec>, b: &Handle<BenchRec>) -> PcResult<Handle<BenchRec>> {
    let p = make_object::<BenchRec>()?;
    p.v().set_key(a.v().key())?;
    p.v().set_val(a.v().val() + b.v().val())?;
    Ok(p)
}

/// Join probe: a small build side (64 keys), every probe row matches once.
fn join_probe(c: &PcClient, n: usize) -> Run {
    load(c, "probe_in", n, 64);
    load(c, "build_in", 64, 64);
    let build = c.set::<BenchRec>("bench", "build_in");
    let probe = c.set::<BenchRec>("bench", "probe_in");
    let sink = build
        .join(&probe, |a, b| key_of(a).eq(key_of(b)), "mkPair", mk_pair)
        .write_to("bench", "join_out");
    execute(c, sink, "join_out")
}

/// Join build: a large, high-cardinality build side (the sink the
/// partitioned vectorized build serves) probed by a small probe side, so
/// the measured time is build-sink dominated.
fn join_build(c: &PcClient, n: usize) -> Run {
    load(c, "jb_build_in", n, n as i64);
    load(c, "jb_probe_in", n / 8, n as i64);
    let build = c.set::<BenchRec>("bench", "jb_build_in");
    let probe = c.set::<BenchRec>("bench", "jb_probe_in");
    let sink = build
        .join(&probe, |a, b| key_of(a).eq(key_of(b)), "mkPair", mk_pair)
        .write_to("bench", "jb_out");
    execute(c, sink, "jb_out")
}

// ------------------------------------------------------- aggregation runs

/// The benchmark aggregation: group by `key`, folding `(count, sum(val))`.
pub struct SumAgg;

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

/// Full-engine group-by over `key_mod` distinct keys (the TPC-H-style
/// aggregation shape of §8 / Figure 5: pre-aggregate into partition maps,
/// shuffle the sealed pages, merge, materialize).
fn group_by(c: &PcClient, n: usize, key_mod: i64, tag: &str) -> Run {
    let set_in = format!("agg_in_{tag}");
    let set_out = format!("agg_out_{tag}");
    load(c, &set_in, n, key_mod);
    let sink = c
        .set::<BenchRec>("bench", &set_in)
        .aggregate(SumAgg)
        .write_to("bench", &set_out);
    execute(c, sink, &set_out)
}

// --------------------------------------------------------- micro agg A/B

/// The micro batch the aggregation A/B runs over: 1024 `BenchRec` objects
/// with `card` distinct keys — the shape of a pre-aggregation batch.
pub struct MicroAggBatch {
    pub objs: Column,
    pub card: i64,
    _scope: AllocScope,
}

pub fn micro_agg_batch(rows: usize, card: i64) -> MicroAggBatch {
    let scope = AllocScope::new(1 << 22);
    let mut handles = Vec::with_capacity(rows);
    for i in 0..rows {
        let r = make_object::<BenchRec>().unwrap();
        r.v().set_key((i as i64 * 997) % card).unwrap();
        r.v().set_val(i as i64).unwrap();
        handles.push(r.erase());
    }
    MicroAggBatch {
        objs: Column::Obj(handles),
        card,
        _scope: scope,
    }
}

fn micro_sink() -> Box<dyn pc_lambda::ErasedAggSink> {
    use pc_lambda::ErasedAgg;
    pc_lambda::agg::AggEngine::new(SumAgg).new_sink(4, 1 << 20, None)
}

/// `(rowwise ns/batch, vectorized ns/batch, speedup)` on a low-cardinality
/// 1024-row batch: the pre-PR `key_of → hash → % → upsert` loop against the
/// batch-hash → radix-partition → grouped-bulk-upsert path.
pub fn micro_agg_ab() -> (f64, f64, f64) {
    let b = micro_agg_batch(1024, 16);
    let mut rowwise = micro_sink();
    let mut vectorized = micro_sink();
    for _ in 0..100 {
        rowwise.absorb_rowwise(&b.objs, None).unwrap();
        vectorized.absorb(&b.objs, None).unwrap();
    }
    let row_ns = median_ns(7, 500, || {
        rowwise.absorb_rowwise(&b.objs, None).unwrap();
    });
    let vec_ns = median_ns(7, 500, || {
        vectorized.absorb(&b.objs, None).unwrap();
    });
    (row_ns, vec_ns, row_ns / vec_ns)
}

/// Parity guard used by tests: both absorb paths produce the same final
/// `(key, sum)` groups after flushing, merging, and finalizing.
pub fn micro_agg_paths_agree() -> bool {
    use pc_lambda::{ErasedAgg, SetWriter};
    let b = micro_agg_batch(1024, 16);
    let engine = pc_lambda::agg::AggEngine::new(SumAgg);
    let finalize = |mut sink: Box<dyn pc_lambda::ErasedAggSink>| -> Vec<(i64, i64)> {
        let mut merger = engine.new_merger(1 << 20);
        for (_part, page) in sink.flush().unwrap() {
            let page = page.load().unwrap();
            merger.merge_page(page).unwrap();
        }
        let mut w = SetWriter::new(1 << 20);
        merger.finalize(&mut w).unwrap();
        let mut out = Vec::new();
        for page in w.finish().unwrap() {
            let (_b, root) = page.open().unwrap();
            let v = root
                .downcast::<pc_object::PcVec<Handle<pc_object::AnyObj>>>()
                .unwrap();
            for h in v.iter() {
                let r = h.assume::<BenchRec>();
                out.push((r.v().key(), r.v().val()));
            }
        }
        out.sort_unstable();
        out
    };
    let mut rowwise = micro_sink();
    rowwise.absorb_rowwise(&b.objs, None).unwrap();
    let mut vectorized = micro_sink();
    vectorized.absorb(&b.objs, None).unwrap();
    let want: Vec<(i64, i64)> = {
        let mut m = std::collections::BTreeMap::new();
        for i in 0..1024usize {
            *m.entry((i as i64 * 997) % b.card).or_insert(0i64) += i as i64;
        }
        m.into_iter().collect()
    };
    finalize(rowwise) == want && finalize(vectorized) == want
}

// ------------------------------------------------------- micro join A/B

/// The micro batch the join A/B runs over: a 1024-row build side over 512
/// keys (two match groups per key) whose table spans several pages per
/// partition, probed by a stream in which half the keys miss — the
/// selective-join shape the partitioned probe path targets (multi-page
/// builds used to multiply probe cost, and misses used to walk every page
/// before coming back empty).
pub struct MicroJoinBatch {
    pub hashes: Vec<u64>,
    pub objs: Vec<pc_object::AnyHandle>,
    pub probes: Vec<u64>,
    _scope: AllocScope,
}

/// Table page size for the A/B: small enough that 1024 build rows chain
/// multiple pages per partition.
const MICRO_JOIN_PAGE: usize = 1 << 13;

pub fn micro_join_batch(rows: usize, keys: u64) -> MicroJoinBatch {
    let scope = AllocScope::new(1 << 22);
    let mut objs = Vec::with_capacity(rows);
    for i in 0..rows {
        let r = make_object::<BenchRec>().unwrap();
        r.v().set_key((i as i64) % keys as i64).unwrap();
        r.v().set_val(i as i64).unwrap();
        objs.push(r.erase());
    }
    MicroJoinBatch {
        hashes: (0..rows as u64).map(|i| i % keys).collect(),
        // Probe keys 0..2*keys: the first half hit, the second half miss.
        probes: (0..2 * keys).collect(),
        objs,
        _scope: scope,
    }
}

/// The pre-PR build+probe loop: one `insert_rowwise` per row (closure
/// upsert, `map.get` re-probe, per-element pushes, a cloned group Vec), then
/// unrouted probes that scan every table page per key — hit or miss.
pub fn micro_join_rowwise(b: &MicroJoinBatch) -> usize {
    let mut t = pc_exec::JoinTable::with_partitions(1, MICRO_JOIN_PAGE, 8);
    let mut group: Vec<pc_object::AnyHandle> = Vec::with_capacity(1);
    for (h, o) in b.hashes.iter().zip(&b.objs) {
        group.clear();
        group.push(o.clone());
        t.insert_rowwise(*h, &group).unwrap();
    }
    let mut idx: Vec<u32> = Vec::new();
    let mut built: Vec<Vec<pc_object::AnyHandle>> = vec![Vec::new()];
    let mut matches = 0;
    for (i, h) in b.probes.iter().enumerate() {
        matches += t.probe_into_scan(*h, i as u32, &mut idx, &mut built);
    }
    matches
}

/// The partitioned vectorized path: one `insert_batch` for the whole batch
/// (batch hash → radix scatter → grouped bulk upsert), tag filters built at
/// seal, probes routed to their partition's chain with misses rejected by
/// the filter before any map probe.
pub fn micro_join_vectorized(b: &MicroJoinBatch) -> usize {
    let mut t = pc_exec::JoinTable::with_partitions(1, MICRO_JOIN_PAGE, 8);
    t.insert_batch(&b.hashes, None, &[b.objs.as_slice()])
        .unwrap();
    t.finish_build();
    let mut idx: Vec<u32> = Vec::new();
    let mut built: Vec<Vec<pc_object::AnyHandle>> = vec![Vec::new()];
    let mut matches = 0;
    for (i, h) in b.probes.iter().enumerate() {
        matches += t.probe_into(*h, i as u32, &mut idx, &mut built);
    }
    matches
}

/// `(rowwise ns/iter, vectorized ns/iter, speedup)`: each iteration builds
/// a fresh table from the 1024-row batch and runs the 50%-miss probe
/// stream over it.
pub fn micro_join_ab() -> (f64, f64, f64) {
    let b = micro_join_batch(1024, 512);
    for _ in 0..20 {
        micro_join_rowwise(&b);
        micro_join_vectorized(&b);
    }
    let row_ns = median_ns(7, 40, || {
        std::hint::black_box(micro_join_rowwise(&b));
    });
    let vec_ns = median_ns(7, 40, || {
        std::hint::black_box(micro_join_vectorized(&b));
    });
    (row_ns, vec_ns, row_ns / vec_ns)
}

/// Parity guard used by tests: both build paths produce the same match
/// count on identical input (512 hit keys × two groups each; 512 misses).
pub fn micro_join_paths_agree() -> bool {
    let b = micro_join_batch(1024, 512);
    let want = 1024;
    micro_join_rowwise(&b) == want && micro_join_vectorized(&b) == want
}

// ------------------------------------------------------ micro filter A/B

/// The micro batch the filter A/B runs over: one object column plus three
/// scalar columns, 1024 rows, with a ~2%-selective mask — the shape of a
/// filter-heavy selection batch mid-pipeline.
pub struct MicroBatch {
    pub obj: Column,
    pub scalars: [Column; 3],
    pub mask: Vec<bool>,
    // Keeps the objects' allocation block alive for the batch's lifetime.
    _scope: AllocScope,
}

pub fn micro_batch(rows: usize) -> MicroBatch {
    let scope = AllocScope::new(1 << 22);
    let mut handles = Vec::with_capacity(rows);
    for i in 0..rows {
        let r = make_object::<BenchRec>().unwrap();
        r.v().set_key(i as i64).unwrap();
        r.v().set_val((i as i64 * 997) % 100_000).unwrap();
        handles.push(r.erase());
    }
    MicroBatch {
        obj: Column::Obj(handles),
        scalars: [
            Column::I64((0..rows as i64).collect()),
            Column::U64((0..rows as u64).map(pc_object::hash::mix64).collect()),
            Column::Bool((0..rows).map(|i| i % 2 == 0).collect()),
        ],
        mask: (0..rows)
            .map(|i| (i as i64 * 997) % 100_000 > 98_000)
            .collect(),
        _scope: scope,
    }
}

/// The pre-PR FILTER: eagerly re-materialize **every** column of the
/// vector list through the mask (what `VectorList::filter` used to do).
pub fn micro_filter_eager(b: &MicroBatch) -> usize {
    let mut survived = b.obj.filter(&b.mask).len();
    for c in &b.scalars {
        survived = survived.min(c.filter(&b.mask).len());
    }
    survived
}

/// The selection-vector FILTER: mark surviving rows, then compact only the
/// one column the next stage actually consumes (the engine's rebase),
/// drawing all buffers from the recycled pool.
pub fn micro_filter_selvec(b: &MicroBatch, pool: &mut ColumnPool) -> usize {
    let mut sel = pool.take_sel();
    sel.extend(
        b.mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i as u32),
    );
    let compacted = b.obj.gather_pooled(&sel, pool);
    let survived = compacted.len();
    pool.recycle(compacted);
    pool.recycle_sel(sel);
    survived
}

/// Median time of `samples` runs of `iters` iterations of `f`, per iter.
fn median_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let (_, d) = time_once(|| {
                for _ in 0..iters {
                    std::hint::black_box(&mut f)();
                }
            });
            d.as_nanos() as f64 / iters as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// `(eager ns/batch, selvec ns/batch, speedup)`.
pub fn micro_filter_ab() -> (f64, f64, f64) {
    let b = micro_batch(1024);
    let mut pool = ColumnPool::default();
    // Warmup (also primes the pool).
    for _ in 0..100 {
        micro_filter_eager(&b);
        micro_filter_selvec(&b, &mut pool);
    }
    let eager = median_ns(7, 500, || {
        micro_filter_eager(&b);
    });
    let selvec = median_ns(7, 500, || {
        micro_filter_selvec(&b, &mut pool);
    });
    (eager, selvec, eager / selvec)
}

/// Sanity guard used by tests: both filter paths agree on survivors.
pub fn micro_paths_agree() -> bool {
    let b = micro_batch(1024);
    let mut pool = ColumnPool::default();
    let want = b.mask.iter().filter(|&&m| m).count();
    micro_filter_eager(&b) == want && micro_filter_selvec(&b, &mut pool) == want
}

/// A vector-list-level parity check exposed for tests: marking + compacting
/// equals eager materialization.
pub fn vlist_paths_agree(rows: usize) -> bool {
    let mask: Vec<bool> = (0..rows).map(|i| i % 3 == 0).collect();
    let col: Vec<i64> = (0..rows as i64).collect();
    let mut lazy = VectorList::with("x", Column::I64(col.clone()));
    lazy.filter(&mask);
    lazy.compact();
    let mut eager = VectorList::with("x", Column::I64(col));
    eager.filter_materialize(&mask);
    lazy.col("x").unwrap().as_i64().unwrap() == eager.col("x").unwrap().as_i64().unwrap()
}

// ----------------------------------------------------- micro flatmap A/B

/// The micro's fan-out: 8 scalars per input row. A scalar payload isolates
/// the one thing `ExecCtx::fanout_hint` changes — output-vector regrowth —
/// from object-allocation cost, which the hint cannot touch and which
/// drowns the effect in noise on an object-producing kernel.
const FLATMAP_FANOUT: i64 = 8;

/// Applies the scalar-fan-out FLATMAP kernel to a 1024-row object batch
/// with `hint` as the output-capacity prediction.
fn flatmap_once(objs: &Column, block: &pc_object::BlockRef, hint: usize) -> Column {
    use pc_lambda::{kernel::FlatMap1, ExecCtx, FlatMapKernel};
    let kernel = FlatMap1::<BenchRec, i64, _> {
        f: |r: &Handle<BenchRec>| {
            let key = r.v().key();
            Ok((0..FLATMAP_FANOUT)
                .map(|k| key * FLATMAP_FANOUT + k)
                .collect())
        },
        _pd: std::marker::PhantomData,
    };
    let mut ctx = ExecCtx::new(block.clone());
    ctx.fanout_hint = hint;
    let (col, _counts) = kernel.apply(&[objs], None, &mut ctx).unwrap();
    col
}

/// `(cold ns/batch, hinted ns/batch, speedup)`: the FLATMAP kernel growing
/// its output Vec from zero capacity against the same kernel pre-reserving
/// the executor's learned fan-out prediction (8× here). The win is real but
/// bounded — it only removes output regrowth, and in the full engine
/// per-row object allocation dominates the lane — so this A/B is reported,
/// not gated.
pub fn micro_flatmap_ab() -> (f64, f64, f64) {
    let b = micro_agg_batch(1024, 512);
    let block = pc_object::BlockRef::new(1 << 16, pc_object::AllocPolicy::LightweightReuse);
    let hint = (1024 * FLATMAP_FANOUT) as usize;
    for _ in 0..100 {
        flatmap_once(&b.objs, &block, 0);
        flatmap_once(&b.objs, &block, hint);
    }
    let cold_ns = median_ns(7, 500, || {
        std::hint::black_box(flatmap_once(&b.objs, &block, 0));
    });
    let hint_ns = median_ns(7, 500, || {
        std::hint::black_box(flatmap_once(&b.objs, &block, hint));
    });
    (cold_ns, hint_ns, cold_ns / hint_ns)
}

/// Parity guard used by tests: the capacity hint is allocation-only — the
/// hinted and hint-less kernels emit identical output rows.
pub fn micro_flatmap_paths_agree() -> bool {
    let b = micro_agg_batch(1024, 512);
    let block = pc_object::BlockRef::new(1 << 16, pc_object::AllocPolicy::LightweightReuse);
    let hint = (1024 * FLATMAP_FANOUT) as usize;
    let cold = flatmap_once(&b.objs, &block, 0);
    let hinted = flatmap_once(&b.objs, &block, hint);
    let (cold, hinted) = (cold.as_i64().unwrap(), hinted.as_i64().unwrap());
    cold.len() == hint && cold == hinted
}

// ---------------------------------------------------------------- driver

/// One full pass over the seven macro workloads at `threads` pipelining
/// threads.
fn run_workloads(n: usize, threads: usize) -> Vec<(&'static str, Run)> {
    let c = client(threads);
    vec![
        ("scan", scan(&c, n)),
        ("filter", filter_heavy(&c, n)),
        ("flatmap", flatmap(&c, n)),
        ("join_probe", join_probe(&c, n)),
        ("join_build", join_build(&c, n)),
        ("agg_low_card", group_by(&c, n, 16, "low")),
        ("agg_high_card", group_by(&c, n, 65_536, "high")),
    ]
}

pub fn pipeline(quick: bool, threads: Option<usize>) {
    let n = if quick { 20_000 } else { 200_000 };
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let top = threads.unwrap_or_else(pc_exec::default_threads).max(1);
    // The scaling sweep: {1, 2, 4} ∪ {top}, capped at the requested top.
    let mut sweep: Vec<usize> = [1, 2, 4, top].into_iter().filter(|&t| t <= top).collect();
    sweep.sort_unstable();
    sweep.dedup();
    println!(
        "pipeline: morsel-driven vectorized execution \
         ({n} rows/workload, {cores} core(s), thread sweep {sweep:?})"
    );
    let passes: Vec<(usize, Vec<(&str, Run)>)> =
        sweep.iter().map(|&t| (t, run_workloads(n, t))).collect();
    let runs = &passes.last().unwrap().1;

    println!("\nworkloads at {top} thread(s):");
    let w = [14usize, 10, 10, 10, 12];
    row(
        &[
            "workload".into(),
            "rows_in".into(),
            "rows_out".into(),
            "time".into(),
            "Mrows/s".into(),
        ],
        &w,
    );
    for (name, r) in runs {
        row(
            &[
                name.to_string(),
                r.rows_in.to_string(),
                r.rows_out.to_string(),
                fmt_dur(r.dur),
                format!("{:.2}", r.mrows_per_s()),
            ],
            &w,
        );
    }
    for (name, r) in runs {
        if r.rows_aggregated > 0 {
            println!(
                "  {name}: two-phase aggregation absorbed {} rows into {} sealed map page(s)",
                r.rows_aggregated, r.map_pages_sealed
            );
        }
        if r.rows_probed > 0 {
            println!(
                "  {name}: join probed {} rows -> {} matches; build sealed {} table page(s)",
                r.rows_probed, r.join_matches, r.build_pages_sealed
            );
        }
        println!(
            "  {name}: {} morsel(s) dispatched, {} stolen, {} thread(s) used",
            r.morsels_dispatched, r.morsels_stolen, r.threads_used
        );
        println!(
            "  {name}: pool {} hit(s) / {} miss(es), {} eviction(s), {} spill(s)",
            r.pool_hits, r.pool_misses, r.pool_evictions, r.pool_spills
        );
    }

    if sweep.len() > 1 {
        println!("\nscaling (Mrows/s per pipelining thread count):");
        let mut header = vec!["workload".to_string()];
        let mut widths = vec![14usize];
        for &t in &sweep {
            header.push(format!("t={t}"));
            widths.push(9);
        }
        header.push(format!("1\u{2192}{top}"));
        widths.push(8);
        row(&header, &widths);
        for (i, (name, base)) in passes[0].1.iter().enumerate() {
            let mut cells = vec![name.to_string()];
            for (_, pass) in &passes {
                cells.push(format!("{:.2}", pass[i].1.mrows_per_s()));
            }
            cells.push(format!(
                "{:.2}x",
                runs[i].1.mrows_per_s() / base.mrows_per_s()
            ));
            row(&cells, &widths);
        }
    }

    // The morsel-scheduler acceptance gate: at 4 threads the parallelized
    // join-build lane must beat its single-threaded self by ≥ 1.5×. Only
    // meaningful on multicore hardware (CI runners have 4 cores) — on
    // smaller boxes the measured ratio is reported and the gate skipped.
    let lane = |t: usize, name: &str| -> Option<f64> {
        let pass = passes.iter().find(|(pt, _)| *pt == t)?;
        let (_, r) = pass.1.iter().find(|(ln, _)| *ln == name)?;
        Some(r.mrows_per_s())
    };
    if let (Some(jb1), Some(jb4)) = (lane(1, "join_build"), lane(4, "join_build")) {
        let ratio = jb4 / jb1;
        let fm = match (lane(1, "flatmap"), lane(4, "flatmap")) {
            (Some(f1), Some(f4)) => format!(" (flatmap: {:.2}x)", f4 / f1),
            _ => String::new(),
        };
        if cores >= 4 {
            println!("\njoin_build 1\u{2192}4 threads: {ratio:.2}x{fm}");
            if ratio < 1.5 {
                eprintln!("FAIL: 4-thread join_build speedup {ratio:.2}x < 1.5x gate");
                std::process::exit(1);
            }
        } else {
            println!(
                "\njoin_build 1\u{2192}4 threads: {ratio:.2}x{fm} — \
                 SKIP gate ({cores} core(s) < 4, speedup not achievable here)"
            );
        }
    }

    let (eager_ns, selvec_ns, speedup) = micro_filter_ab();
    println!(
        "\nmicro filter (1024-row batch, 1 obj + 3 scalar cols, 2% selectivity):\n  \
         eager re-materialization: {eager_ns:.0} ns/batch\n  \
         selection vector:         {selvec_ns:.0} ns/batch\n  \
         speedup:                  {speedup:.2}x"
    );
    // The acceptance gate for the selection-vector engine (CI runs this in
    // the bench smoke step, so a regression below 1.5× fails the build;
    // the measured margin is ~5×, far from timing noise).
    if speedup < 1.5 {
        eprintln!("FAIL: selection-vector filter speedup {speedup:.2}x < 1.5x gate");
        std::process::exit(1);
    }

    let (row_ns, vec_ns, agg_speedup) = micro_agg_ab();
    println!(
        "\nmicro agg (1024-row batch, 16 groups, 4 partitions):\n  \
         row-at-a-time absorb:     {row_ns:.0} ns/batch\n  \
         vectorized absorb:        {vec_ns:.0} ns/batch\n  \
         speedup:                  {agg_speedup:.2}x"
    );
    // Acceptance gate for the vectorized aggregation sink: the batch path
    // must beat the row-at-a-time reference by ≥ 1.5× on the low-card
    // micro workload (measured margin is well above 2×).
    if agg_speedup < 1.5 {
        eprintln!("FAIL: vectorized aggregation speedup {agg_speedup:.2}x < 1.5x gate");
        std::process::exit(1);
    }

    let (jrow_ns, jvec_ns, join_speedup) = micro_join_ab();
    println!(
        "\nmicro join (1024-row build, 512 keys, 8 partitions, 50%-miss probes):\n  \
         row-at-a-time build+scan probe:   {jrow_ns:.0} ns/iter\n  \
         vectorized build+routed probe:    {jvec_ns:.0} ns/iter\n  \
         speedup:                          {join_speedup:.2}x"
    );
    // Acceptance gate for the partitioned vectorized join: batched build
    // plus partition-routed probing must beat the retained row-at-a-time
    // reference by ≥ 1.5× on the micro workload.
    if join_speedup < 1.5 {
        eprintln!("FAIL: vectorized join speedup {join_speedup:.2}x < 1.5x gate");
        std::process::exit(1);
    }

    let (cold_ns, hint_ns, fm_speedup) = micro_flatmap_ab();
    println!(
        "\nmicro flatmap (1024-row batch, 8x scalar fan-out, learned capacity hint):\n  \
         cold output allocation:   {cold_ns:.0} ns/batch\n  \
         hinted pre-reservation:   {hint_ns:.0} ns/batch\n  \
         speedup:                  {fm_speedup:.2}x"
    );
    // Reported, not gated: the hint only removes Vec regrowth, and per-row
    // object allocation dominates this kernel.

    let mode = if quick { "quick" } else { "full" };
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"pipeline\",\n");
    json.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    json.push_str(&format!("  \"rows_per_workload\": {n},\n"));
    json.push_str("  \"batch_size\": 1024,\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!("  \"threads\": {top},\n"));
    json.push_str("  \"workloads\": {\n");
    for (i, (name, r)) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {{\"rows_in\": {}, \"rows_out\": {}, \"rows_aggregated\": {}, \"map_pages_sealed\": {}, \"rows_probed\": {}, \"join_matches\": {}, \"build_pages_sealed\": {}, \"morsels_dispatched\": {}, \"morsels_stolen\": {}, \"threads_used\": {}, \"secs\": {:.6}, \"mrows_per_s\": {:.3}}}{}\n",
            r.rows_in,
            r.rows_out,
            r.rows_aggregated,
            r.map_pages_sealed,
            r.rows_probed,
            r.join_matches,
            r.build_pages_sealed,
            r.morsels_dispatched,
            r.morsels_stolen,
            r.threads_used,
            r.dur.as_secs_f64(),
            r.mrows_per_s(),
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"scaling\": {\n");
    for (pi, (t, pass)) in passes.iter().enumerate() {
        let lanes = pass
            .iter()
            .map(|(name, r)| format!("\"{name}\": {:.3}", r.mrows_per_s()))
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    \"{t}\": {{{lanes}}}{}\n",
            if pi + 1 < passes.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"micro_filter\": {{\"eager_ns_per_batch\": {eager_ns:.0}, \"selvec_ns_per_batch\": {selvec_ns:.0}, \"speedup\": {speedup:.2}}},\n"
    ));
    json.push_str(&format!(
        "  \"micro_agg\": {{\"rowwise_ns_per_batch\": {row_ns:.0}, \"vectorized_ns_per_batch\": {vec_ns:.0}, \"speedup\": {agg_speedup:.2}}},\n"
    ));
    json.push_str(&format!(
        "  \"micro_join\": {{\"rowwise_ns_per_iter\": {jrow_ns:.0}, \"vectorized_ns_per_iter\": {jvec_ns:.0}, \"speedup\": {join_speedup:.2}}},\n"
    ));
    json.push_str(&format!(
        "  \"micro_flatmap\": {{\"cold_ns_per_batch\": {cold_ns:.0}, \"hinted_ns_per_batch\": {hint_ns:.0}, \"speedup\": {fm_speedup:.2}}}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("\nwrote BENCH_pipeline.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_paths_agree_on_survivors() {
        assert!(micro_paths_agree());
        assert!(vlist_paths_agree(1000));
    }

    #[test]
    fn agg_paths_agree_on_groups() {
        assert!(micro_agg_paths_agree());
    }

    #[test]
    fn join_paths_agree_on_matches() {
        assert!(micro_join_paths_agree());
    }

    #[test]
    fn flatmap_hint_is_allocation_only() {
        assert!(micro_flatmap_paths_agree());
    }
}
