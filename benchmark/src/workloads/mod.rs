//! The workloads. Each is one in-process engine driven closed-loop by one
//! client: the next job is submitted when the previous one has returned.
//!
//! Why these seven — each stresses a different layer, and for every layer
//! some other workload bypasses it, so a change to that layer predicts
//! movement on one and none on the other:
//!
//! - `rel_inmem`, `rel_spill`, `rel_shuffle_tcp` run one query on one
//!   dataset and differ in exactly one setting each (pool size; worker count
//!   and transport), isolating `exec`/`lambda` kernels, `storage` spilling,
//!   and the `cluster` wire.
//! - `tpch_nested` is the paper's complex-object workload (`object` handles,
//!   nested allocation, string keys).
//! - `lda_iter` has the most stages per second, so fixed per-job cost
//!   (compile, optimize, verify, plan, thread spawn) has its largest share.
//! - `linalg_gram` is kernel-bound: the engine moves a handful of pages.
//! - `ingest_gather` is the write side: no query runs at all.

mod gram;
mod ingest;
mod lda;
mod rel;
mod tpch;

use crate::trace::Tracer;
use pc_core::prelude::*;
use pc_exec::PhysicalPlan;
use pc_lambda::CompiledQuery;
use pc_storage::PoolStats;

/// Per-layer counts one job produced: `(per-layer metric name, value)`.
pub type Counters = Vec<(&'static str, f64)>;

/// What `setup` needs from the command line and the host.
#[derive(Clone, Copy)]
pub struct Env {
    pub seed: u64,
    /// `min(2, nproc)`, set explicitly in every `ExecConfig`.
    pub threads: usize,
}

pub trait Workload {
    /// Input rows one job processes: the numerator of `rows_per_s`.
    fn rows(&self) -> u64;

    fn client(&self) -> &PcClient;

    /// Runs one complete job through the user-facing call. With `tr`
    /// enabled the same work is recorded as a `job` span with one child per
    /// public layer boundary, and the layer counters it produced are
    /// returned; disabled, the counters are whatever the call returns for
    /// free (nothing, for library-driven workloads).
    fn job(&mut self, tr: &mut Tracer) -> Result<Counters, String>;

    /// Checks the job that just ran against the reference computation.
    fn check(&mut self) -> Result<(), String>;

    /// Workload-validity gate over one job's counters: `Err(gate name and
    /// detail)` when the workload did not exercise what it exists for. For
    /// every workload but `rel_spill` that starts with: nothing spilled.
    fn gate(&self, counters: &Counters) -> Result<(), String> {
        gate_no_spill(counters)
    }

    /// Builds the workload's input objects onto sealed pages with
    /// `make_object` + `SetWriter` and no cluster: `(rows, pages)`. Feeds
    /// the object, storage and wire probes.
    fn build_pages(&self) -> PcResult<(u64, Vec<SealedPage>)>;

    /// One run of the `pc-baseline` equivalent of `job`, where one exists.
    fn baseline_job(&mut self) -> Option<Result<(), String>> {
        None
    }

    /// One run of the workload's own layer probes, for what the traced
    /// job cannot show from outside (phases of jobs built inside a library
    /// call, a kernel in isolation). Spans go to `tr`, counts come back.
    fn layer_probe(&mut self, _tr: &mut Tracer) -> Result<Counters, String> {
        Ok(Vec::new())
    }

    /// Counters that must repeat exactly from job to job at a fixed seed.
    fn exact_counters(&self) -> &'static [&'static str] {
        &[]
    }
}

pub fn setup(name: &str, env: Env) -> Result<Box<dyn Workload>, String> {
    fn boxed<W: Workload + 'static>(w: PcResult<W>) -> PcResult<Box<dyn Workload>> {
        w.map(|w| Box::new(w) as _)
    }
    match name {
        "rel_inmem" => boxed(rel::Rel::setup(env, rel::Variant::InMem)),
        "rel_spill" => boxed(rel::Rel::setup(env, rel::Variant::Spill)),
        "rel_shuffle_tcp" => boxed(rel::Rel::setup(env, rel::Variant::ShuffleTcp)),
        "tpch_nested" => boxed(tpch::Tpch::setup(env)),
        "lda_iter" => boxed(lda::Lda::setup(env)),
        "linalg_gram" => boxed(gram::Gram::setup(env)),
        "ingest_gather" => boxed(ingest::Ingest::setup(env)),
        other => return Err(format!("unknown workload {other}")),
    }
    .map_err(|e| format!("{name} set-up: {e}"))
}

/// The cluster shape every workload starts from. Only these three knobs
/// (and, for `rel_*`, transport and pool size) are set; everything else
/// comes from `Default`, so fields the engine later drops cannot break this.
pub fn cluster_config(workers: usize, threads: usize, page_size: usize) -> ClusterConfig {
    ClusterConfig {
        workers,
        exec: ExecConfig {
            page_size,
            threads,
            ..ExecConfig::default()
        },
        ..ClusterConfig::default()
    }
}

// ------------------------------------------------------------- generators

/// SplitMix64: the harness's own generator, so inputs depend on `--seed`
/// and on nothing in the engine.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[-0.5, 0.5)`.
    pub fn centered_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// FNV-1a over a stream of words: the input digest the determinism tests
/// compare.
#[cfg(test)]
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

// --------------------------------------------------------------- counters

pc_object! {
    /// The two-`i64` record of the relational and ingest workloads.
    pub struct BenchRow / BenchRowView {
        (key, set_key): i64,
        (val, set_val): i64,
    }
}

/// Writes `rows` as `BenchRow`s onto sealed pages, no cluster involved.
pub fn rows_to_pages(page_size: usize, rows: &[(i64, i64)]) -> PcResult<Vec<SealedPage>> {
    let mut w = SetWriter::new(page_size);
    for &(key, val) in rows {
        w.write_with(|| make_row(key, val))?;
    }
    w.finish()
}

pub fn make_row(key: i64, val: i64) -> PcResult<AnyHandle> {
    let r = make_object::<BenchRow>()?;
    r.v().set_key(key)?;
    r.v().set_val(val)?;
    Ok(r.erase())
}

fn pool_sum(cluster: &PcCluster) -> PoolStats {
    let mut sum = PoolStats::default();
    for w in &cluster.workers {
        let s = w.storage.pool().stats();
        sum.hits += s.hits;
        sum.misses += s.misses;
        sum.evictions += s.evictions;
        sum.spills += s.spills;
        sum.bytes_spilled += s.bytes_spilled;
    }
    sum
}

pub fn leaked_spill_files(cluster: &PcCluster) -> usize {
    cluster
        .workers
        .iter()
        .map(|w| w.storage.pool().leaked_spill_files())
        .sum()
}

pub fn reserved_bytes(cluster: &PcCluster) -> usize {
    cluster
        .workers
        .iter()
        .map(|w| w.storage.pool().budget().reserved())
        .sum()
}

/// The counters a `ClusterStats` carries, under their per-layer names.
pub fn counters_of(s: &ClusterStats, cluster: &PcCluster) -> Counters {
    let e = &s.exec;
    vec![
        ("exec.rows_in", e.rows_in as f64),
        ("exec.rows_out", e.rows_out as f64),
        ("exec.batches", e.batches as f64),
        ("exec.pages_written", e.pages_written as f64),
        ("exec.rows_probed", e.rows_probed as f64),
        ("exec.join_matches", e.join_matches as f64),
        ("exec.build_pages_sealed", e.build_pages_sealed as f64),
        ("exec.rows_aggregated", e.rows_aggregated as f64),
        ("exec.map_pages_sealed", e.map_pages_sealed as f64),
        ("exec.morsels_dispatched", e.morsels_dispatched as f64),
        ("exec.morsels_stolen", e.morsels_stolen as f64),
        ("exec.spill_waves", e.spill_waves as f64),
        ("exec.join_bytes_spilled", e.join_bytes_spilled as f64),
        ("exec.agg_bytes_spilled", e.agg_bytes_spilled as f64),
        ("storage.pool_hits", e.pool_hits as f64),
        ("storage.pool_misses", e.pool_misses as f64),
        ("storage.pool_evictions", e.pool_evictions as f64),
        ("storage.pool_spills", e.pool_spills as f64),
        ("storage.pool_bytes_spilled", e.pool_bytes_spilled as f64),
        (
            "storage.leaked_spill_files",
            leaked_spill_files(cluster) as f64,
        ),
        ("cluster.bytes_shuffled", s.bytes_shuffled as f64),
        ("cluster.pages_shuffled", s.pages_shuffled as f64),
        ("cluster.tables_broadcast", s.tables_broadcast as f64),
        ("cluster.sends_failed", s.sends_failed as f64),
        ("cluster.stages_replayed", s.stages_replayed as f64),
    ]
}

/// Counter deltas around a library call that discards its `ClusterStats`:
/// what `stats_snapshot()` and the worker pools can still say from outside.
/// The `exec.*` counts are lost with the discarded stats and stay 0.
pub struct StatsDelta {
    stats: ClusterStats,
    pool: PoolStats,
}

impl StatsDelta {
    pub fn begin(cluster: &PcCluster) -> Self {
        StatsDelta {
            stats: cluster.stats_snapshot(),
            pool: pool_sum(cluster),
        }
    }

    pub fn end(self, cluster: &PcCluster) -> Counters {
        let mut s = cluster.stats_snapshot();
        let p = pool_sum(cluster);
        s.bytes_shuffled -= self.stats.bytes_shuffled;
        s.pages_shuffled -= self.stats.pages_shuffled;
        s.tables_broadcast -= self.stats.tables_broadcast;
        s.sends_failed -= self.stats.sends_failed;
        s.stages_replayed -= self.stats.stages_replayed;
        s.exec.pool_hits = p.hits - self.pool.hits;
        s.exec.pool_misses = p.misses - self.pool.misses;
        s.exec.pool_evictions = p.evictions - self.pool.evictions;
        s.exec.pool_spills = p.spills - self.pool.spills;
        s.exec.pool_bytes_spilled = p.bytes_spilled - self.pool.bytes_spilled;
        counters_of(&s, cluster)
    }
}

/// Runs `f` as a job made of library calls: a `job` span around it, and the
/// outside-visible counter deltas when tracing.
pub fn library_job(
    client: &PcClient,
    tr: &mut Tracer,
    f: impl FnOnce(&mut Tracer) -> PcResult<()>,
) -> Result<Counters, String> {
    let delta = tr.enabled().then(|| StatsDelta::begin(client.cluster()));
    tr.span("job", f).map_err(|e| e.to_string())?;
    Ok(delta.map_or_else(Vec::new, |d| d.end(client.cluster())))
}

/// What `plan_phases` hands back: the compiled query (stage and aggregate
/// libraries), its physical plan, and the statement counts.
pub struct Planned {
    pub query: CompiledQuery,
    pub physical: PhysicalPlan,
    pub counts: Counters,
}

/// The front half of `Job::run` → `PcCluster::execute`, split at its public
/// phase boundaries with one span each. `Job::compile` also verifies the
/// unoptimized plan, which `Job::run` does not: that extra pass is part of
/// what `bench.trace_overhead_frac` reports.
pub fn plan_phases(tr: &mut Tracer, job: &Job) -> PcResult<Planned> {
    let query = tr.span("lambda.compile", |_| job.compile())?;
    let (tcap, report) = tr.span("tcap.optimize", |_| {
        let mut tcap = query.tcap.clone();
        let report = pc_tcap::optimize(&mut tcap);
        (tcap, report)
    });
    tr.span("tcap.verify", |_| pc_tcap::verify::require_clean(&tcap))
        .map_err(PcError::PlanRejected)?;
    let physical = tr.span("exec.plan", |_| pc_exec::plan(&tcap))?;
    let rules_fired = report.redundant_applies_removed
        + report.selections_pushed_down
        + report.dead_columns_pruned
        + report.dead_statements_removed;
    let counts = vec![
        ("lambda.tcap_stmts", query.tcap.stmts.len() as f64),
        ("tcap.stmts_after_opt", tcap.stmts.len() as f64),
        ("tcap.rules_fired", rules_fired as f64),
        ("exec.pipelines", physical.pipelines.len() as f64),
    ];
    Ok(Planned {
        query,
        physical,
        counts,
    })
}

pub fn counter(counters: &Counters, name: &str) -> Option<f64> {
    counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// The out-of-core path must stay cold.
pub fn gate_no_spill(counters: &Counters) -> Result<(), String> {
    for name in [
        "exec.spill_waves",
        "exec.join_bytes_spilled",
        "exec.agg_bytes_spilled",
        "storage.pool_spills",
        "storage.pool_evictions",
    ] {
        if let Some(v) = counter(counters, name).filter(|v| *v != 0.0) {
            return Err(format!("no_spill: {name} = {v}, expected 0"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_pure_function_of_the_seed() {
        let draw = |seed| {
            let mut r = SplitMix64(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut r = SplitMix64(1);
        assert!((0..1000).all(|_| (-0.5..0.5).contains(&r.centered_f64())));
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        assert_eq!(digest([1, 2, 3]), digest([1, 2, 3]));
        assert_ne!(digest([1, 2, 3]), digest([3, 2, 1]));
        assert_ne!(digest([1, 2, 3]), digest([1, 2, 4]));
    }
}
