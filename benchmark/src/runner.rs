//! One run of one workload: set-up, then either the timed untraced jobs that
//! give the end-to-end metrics (`--trace 0`) or the traced jobs, probes and
//! gates that give the per-layer metrics (`--trace 1`).

use crate::probes;
use crate::spec::{self, PER_LAYER};
use crate::stats::{median, p75, MIN_SAMPLES};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, counter, Counters, Env, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Warm-up jobs per set-up: caches fill and lazy initialisation finishes
/// before anything is timed.
const WARMUPS: usize = 3;
/// Set-ups per untraced run; `setup_s` is their median, and each one's
/// engine runs a third of the timed jobs.
const SETUPS: usize = 3;
/// Fewest traced jobs (each paired with an untraced one).
const MIN_TRACED: usize = 11;
/// Runs of a workload's own layer probe and of its baseline equivalent.
const PROBE_REPEATS: usize = 5;
/// A run stops this many windows after it started even if it is short of
/// samples, so a pathologically slow host still gets an answer in time.
const WINDOW_CAP: u32 = 5;

const PHASE_SUM_TOLERANCE: f64 = 0.03;
const TRACE_OVERHEAD_LIMIT: f64 = 0.10;

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Validity gates that tripped, by name.
    pub gates: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.is_empty()
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    gates: Vec<String>,
}

impl Tally {
    fn gate(&mut self, failure: String) {
        if !self.gates.contains(&failure) {
            eprintln!("GATE FAILED: {failure}");
            self.gates.push(failure);
        }
    }

    /// One job, its output check and its validity gate. `Some((wall seconds
    /// of the job alone, its counters))` unless the job returned an error.
    fn job(&mut self, w: &mut dyn Workload, tr: &mut Tracer) -> Option<(f64, Counters)> {
        self.attempted += 1;
        tr.next_job();
        let t = Instant::now();
        let done = w.job(tr);
        let secs = t.elapsed().as_secs_f64();
        let counters = match done {
            Ok(c) => c,
            Err(e) => {
                eprintln!("job {} failed: {e}", self.attempted);
                self.failed += 1;
                return None;
            }
        };
        if let Err(e) = tr.span("check", |_| w.check()) {
            eprintln!("job {} failed its output check: {e}", self.attempted);
            self.failed += 1;
        }
        if let Err(g) = w.gate(&counters) {
            self.gate(g);
        }
        Some((secs, counters))
    }
}

/// Connect + generate + load + warm-up jobs; the seconds exclude the
/// harness's own output checks.
fn set_up(name: &str, env: Env, tally: &mut Tally) -> Result<(Box<dyn Workload>, f64), String> {
    let t = Instant::now();
    let mut w = workloads::setup(name, env)?;
    let mut secs = t.elapsed().as_secs_f64();
    let mut off = Tracer::new(false);
    for _ in 0..WARMUPS {
        secs += tally.job(&mut *w, &mut off).map_or(0.0, |(s, _)| s);
    }
    Ok((w, secs))
}

/// Whether a loop that wants `min` samples inside `window` should go on.
fn keep_going(start: Instant, window: Duration, have: usize, min: usize) -> bool {
    let elapsed = start.elapsed();
    (have < min || elapsed < window) && elapsed < window * WINDOW_CAP
}

pub fn untraced(name: &str, env: Env, window: Duration) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut off = Tracer::new(false);
    let (mut setups, mut samples) = (Vec::new(), Vec::new());
    let (mut rows, mut peak_rss_mb) = (0, None);
    // Each set-up's engine takes an equal share of the window, so the job
    // times pool over several engine instances (hash seeds, page placement,
    // thread placement) instead of reporting one instance's luck.
    let (share, min_share) = (window / SETUPS as u32, MIN_SAMPLES.div_ceil(SETUPS));
    for _ in 0..SETUPS {
        let (mut w, secs) = set_up(name, env, &mut tally)?;
        setups.push(secs);
        rows = w.rows();
        let (start, before) = (Instant::now(), samples.len());
        while keep_going(start, share, samples.len() - before, min_share) {
            if let Some((secs, _)) = tally.job(&mut *w, &mut off) {
                samples.push(secs);
            }
        }
        // Peak memory is the first engine's: later set-ups in this process
        // stack freed-but-retained memory on top of it, by amounts that vary
        // from run to run and are the harness's doing, not the workload's.
        peak_rss_mb.get_or_insert_with(sys::peak_rss_mb);
    }
    if samples.len() < MIN_SAMPLES {
        eprintln!(
            "only {} of {MIN_SAMPLES} timed jobs fit the time cap",
            samples.len()
        );
    }

    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        gates: tally.gates,
        metrics: end_to_end(&samples, rows, &setups, peak_rss_mb.unwrap_or_default()),
    })
}

/// The end-to-end metrics, in `spec::END_TO_END` order.
fn end_to_end(
    samples: &[f64],
    rows: u64,
    setups: &[f64],
    peak_rss_mb: f64,
) -> Vec<(&'static str, f64)> {
    let job_s = median(samples);
    vec![
        ("job_s", job_s),
        ("job_p75_s", p75(samples)),
        ("rows_per_s", rows as f64 / job_s),
        ("setup_s", median(setups)),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

/// Values seen per per-layer name, one per job or probe run.
type Seen = BTreeMap<&'static str, Vec<f64>>;

fn absorb(seen: &mut Seen, counters: Counters) {
    for (name, v) in counters {
        seen.entry(name).or_default().push(v);
    }
}

/// Span durations under their metric names: span `x.y` feeds `x.y_s`.
fn absorb_spans(seen: &mut Seen, tr: &Tracer) {
    for s in tr.spans() {
        let metric = format!("{}_s", s.name);
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == metric) {
            seen.entry(m.name)
                .or_default()
                .push(s.dur_ns() as f64 / 1e9);
        }
    }
}

/// Per job: Σ duration of the `job` span's children ÷ the `job` span.
fn phase_sum_fracs(tr: &Tracer) -> Vec<f64> {
    let spans = tr.spans();
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "job" && s.dur_ns() > 0)
        .map(|(id, s)| 1.0 - tr.self_ns(id) as f64 / s.dur_ns() as f64)
        .collect()
}

pub fn traced(name: &str, env: Env, window: Duration, out_dir: &Path) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let (mut w, _) = set_up(name, env, &mut tally)?;
    let (mut off, mut tr) = (Tracer::new(false), Tracer::new(true));
    let (mut plain, mut slowdown) = (Vec::new(), Vec::new());
    let mut seen = Seen::new();

    // Untraced and traced jobs run in pairs and the overhead is the median
    // of the pairs' ratios, so drift during the run hits both alike.
    let start = Instant::now();
    while keep_going(start, window, slowdown.len(), MIN_TRACED) {
        let untraced = tally.job(&mut *w, &mut off);
        let traced = tally.job(&mut *w, &mut tr);
        if let (Some((plain_s, _)), Some((traced_s, counters))) = (untraced, traced) {
            plain.push(plain_s);
            slowdown.push(traced_s / plain_s);
            absorb(&mut seen, counters);
        }
    }

    for name in w.exact_counters() {
        let values = seen.get(name).map(Vec::as_slice).unwrap_or_default();
        if values.windows(2).any(|p| p[0] != p[1]) {
            tally.gate(format!(
                "exact_counts: {name} varied across traced jobs: {values:?}"
            ));
        }
    }
    let phase_sum = median(&phase_sum_fracs(&tr));
    if (phase_sum - 1.0).abs() > PHASE_SUM_TOLERANCE {
        tally.gate(format!(
            "phase_sum: phases cover {phase_sum} of the traced job"
        ));
    }
    let job_s = median(&plain);
    let overhead = median(&slowdown) - 1.0;
    if overhead >= TRACE_OVERHEAD_LIMIT {
        tally.gate(format!(
            "trace_overhead: traced jobs ran {overhead} slower than untraced"
        ));
    }

    // Probes: after the traced jobs, outside any job span.
    for _ in 0..PROBE_REPEATS {
        let counters = w.layer_probe(&mut tr)?;
        absorb(&mut seen, counters);
    }
    absorb_spans(&mut seen, &tr);
    let mut baseline = Vec::new();
    for _ in 0..PROBE_REPEATS {
        let t = Instant::now();
        match w.baseline_job() {
            None => break,
            Some(Err(e)) => return Err(format!("baseline: {e}")),
            Some(Ok(())) => baseline.push(t.elapsed().as_secs_f64()),
        }
    }
    let med = |seen: &Seen, name: &str| seen.get(name).map_or(0.0, |v| median(v));
    let scratch = std::env::temp_dir();
    let probed = probes::run(&*w, med(&seen, "cluster.pages_shuffled") as usize, &scratch)
        .map_err(|e| format!("probes: {e}"))?;
    let input_bytes = counter(&probed, "input_bytes").unwrap_or(0.0);
    absorb(&mut seen, probed);

    // Derived ratios, from the medians they are ratios of.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let rows = w.rows() as f64;
    let (hits, misses) = (
        med(&seen, "storage.pool_hits"),
        med(&seen, "storage.pool_misses"),
    );
    let op_s = med(&seen, "lillinalg.transpose_multiply_s");
    let baseline_s = median(&baseline);
    let derived = [
        ("storage.pool_hit_ratio", ratio(hits, hits + misses)),
        (
            "storage.spill_bytes_per_input_byte",
            ratio(med(&seen, "storage.pool_bytes_spilled"), input_bytes),
        ),
        (
            "cluster.shuffle_bytes_per_input_byte",
            ratio(med(&seen, "cluster.bytes_shuffled"), input_bytes),
        ),
        (
            "core.store_rows_per_s",
            ratio(rows, med(&seen, "core.store_s")),
        ),
        (
            "core.gather_rows_per_s",
            ratio(rows, med(&seen, "core.gather_s")),
        ),
        (
            "lillinalg.engine_overhead_frac",
            ratio(op_s - med(&seen, "lillinalg.kernel_s"), op_s),
        ),
        ("baseline.job_s", baseline_s),
        ("baseline.speedup", ratio(baseline_s, job_s)),
        ("bench.phase_sum_frac", phase_sum),
        ("bench.trace_overhead_frac", overhead),
    ];
    absorb(&mut seen, derived.into_iter().collect());

    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("trace-{name}.json")), tr.to_json(name)))
        .map_err(|e| format!("writing the trace: {e}"))?;

    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        gates: tally.gates,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, med(&seen, m.name)))
            .collect(),
    })
}

/// The `workload metric value unit` lines and the one-line JSON summary the
/// run ends with.
pub fn report(workload: &str, r: &RunResult) -> String {
    let mut out = String::new();
    for (name, v) in &r.metrics {
        out.push_str(&format!(
            "{workload} {name} {} {}\n",
            crate::json::num(*v),
            spec::unit_of(name)
        ));
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                crate::json::quote(name),
                crate::json::num(*v),
                crate::json::quote(spec::unit_of(name))
            )
        })
        .collect();
    out.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn result(metrics: Vec<(&'static str, f64)>) -> RunResult {
        RunResult {
            attempted: 50,
            failed: 0,
            gates: Vec::new(),
            metrics,
        }
    }

    #[test]
    fn untraced_run_emits_exactly_the_end_to_end_metrics() {
        let samples: Vec<f64> = (1..=41).map(|i| i as f64 / 100.0).collect();
        let metrics = end_to_end(&samples, 4_200, &[0.5, 0.3, 0.4], 64.0);
        let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
        let spec_names: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, spec_names);
        assert_eq!(metrics[0].1, 0.21);
        assert_eq!(metrics[1].1, 0.31);
        assert_eq!(metrics[2].1, 4_200.0 / 0.21);
        assert_eq!(metrics[3].1, 0.4);
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let r = result(end_to_end(&[0.25; 41], 100, &[1.5], 32.0));
        let text = report("w", &r);
        assert!(text.starts_with("w job_s 0.25 s\n"));
        let summary = json::parse(text.lines().last().unwrap()).unwrap();
        let Json::Obj(kv) = &summary else {
            panic!("summary is not an object")
        };
        let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
        let setup = summary.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn a_failed_job_or_a_tripped_gate_makes_the_run_incorrect() {
        let mut r = result(Vec::new());
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.gates
            .push("no_spill: storage.pool_spills = 3, expected 0".into());
        assert!(!r.correct());
    }
}
