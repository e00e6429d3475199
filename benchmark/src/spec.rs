//! The names the harness emits: workloads, end-to-end metrics, per-layer
//! metrics, with units and directions. `BENCHMARK.json` at the repo root
//! carries the same lists plus the regression bounds; a unit test keeps the
//! two in step.

use crate::json::{self, Json};
use std::path::PathBuf;

pub const DEFAULT_SEED: u64 = 42;
/// Measurement window of one run; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 8;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

pub const WORKLOADS: &[&str] = &[
    "rel_inmem",
    "rel_spill",
    "rel_shuffle_tcp",
    "tpch_nested",
    "lda_iter",
    "linalg_gram",
    "ingest_gather",
];

pub const END_TO_END: &[Metric] = &[
    m("job_s", "s", "lower"),
    m("job_p75_s", "s", "lower"),
    m("rows_per_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "mb", "lower"),
];

pub const PER_LAYER: &[Metric] = &[
    m("lambda.compile_s", "s", "lower"),
    m("lambda.tcap_stmts", "count", "lower"),
    m("tcap.optimize_s", "s", "lower"),
    m("tcap.verify_s", "s", "lower"),
    m("tcap.stmts_after_opt", "count", "lower"),
    m("tcap.rules_fired", "count", "higher"),
    m("exec.plan_s", "s", "lower"),
    m("exec.pipelines", "count", "lower"),
    m("cluster.run_s", "s", "lower"),
    m("exec.rows_in", "count", "lower"),
    m("exec.rows_out", "count", "lower"),
    m("exec.batches", "count", "lower"),
    m("exec.pages_written", "count", "lower"),
    m("exec.rows_probed", "count", "lower"),
    m("exec.join_matches", "count", "lower"),
    m("exec.build_pages_sealed", "count", "lower"),
    m("exec.rows_aggregated", "count", "lower"),
    m("exec.map_pages_sealed", "count", "lower"),
    m("exec.morsels_dispatched", "count", "lower"),
    m("exec.morsels_stolen", "count", "lower"),
    m("exec.spill_waves", "count", "lower"),
    m("exec.join_bytes_spilled", "bytes", "lower"),
    m("exec.agg_bytes_spilled", "bytes", "lower"),
    m("storage.pool_hits", "count", "higher"),
    m("storage.pool_misses", "count", "lower"),
    m("storage.pool_hit_ratio", "ratio", "higher"),
    m("storage.pool_evictions", "count", "lower"),
    m("storage.pool_spills", "count", "lower"),
    m("storage.spill_bytes_per_input_byte", "ratio", "lower"),
    m("storage.leaked_spill_files", "count", "lower"),
    m("storage.append_s", "s", "lower"),
    m("storage.scan_s", "s", "lower"),
    m("cluster.bytes_shuffled", "bytes", "lower"),
    m("cluster.pages_shuffled", "count", "lower"),
    m("cluster.tables_broadcast", "count", "lower"),
    m("cluster.shuffle_bytes_per_input_byte", "ratio", "lower"),
    m("cluster.sends_failed", "count", "lower"),
    m("cluster.stages_replayed", "count", "lower"),
    m("cluster.wire_probe_s", "s", "lower"),
    m("cluster.wire_mb_per_s", "mb/s", "higher"),
    m("object.build_rows_per_s", "1/s", "higher"),
    m("object.bytes_per_row", "bytes", "lower"),
    m("object.page_roundtrip_s", "s", "lower"),
    m("core.store_s", "s", "lower"),
    m("core.store_rows_per_s", "1/s", "higher"),
    m("core.gather_s", "s", "lower"),
    m("core.gather_rows_per_s", "1/s", "higher"),
    m("tpch.cps_s", "s", "lower"),
    m("tpch.topk_s", "s", "lower"),
    m("ml.lda_iterate_s", "s", "lower"),
    m("lillinalg.transpose_multiply_s", "s", "lower"),
    m("lillinalg.kernel_s", "s", "lower"),
    m("lillinalg.kernel_gflops", "gflop/s", "higher"),
    m("lillinalg.engine_overhead_frac", "ratio", "lower"),
    m("baseline.job_s", "s", "lower"),
    m("baseline.speedup", "ratio", "higher"),
    m("bench.phase_sum_frac", "ratio", "higher"),
    m("bench.trace_overhead_frac", "ratio", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// This package's directory, where `out/` lives.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json`, one level above this package.
pub fn load_benchmark_json() -> Result<Json, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
}

/// The regression bound `BENCHMARK.json` sets for an end-to-end metric.
pub fn bound_of(bench: &Json, metric: &str) -> Option<f64> {
    bench
        .get("end_to_end")?
        .as_arr()
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
        .get("bound")?
        .as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &Json) -> Vec<(String, String, String)> {
        list.as_arr()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_and_harness_agree() {
        let bench = load_benchmark_json().unwrap();
        let workloads: Vec<&str> = bench
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(names(bench.get("end_to_end").unwrap()), ours(END_TO_END));
        assert_eq!(names(bench.get("per_layer").unwrap()), ours(PER_LAYER));
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
        for m in END_TO_END {
            let bound = bound_of(&bench, m.name).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(seen.insert(n), "{n} used twice");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
