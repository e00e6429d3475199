//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck]
//! ```
//!
//! With `--workload` one workload runs in this process and the last line of
//! standard output is its JSON summary. Without it every workload runs,
//! untraced then traced, each run in a child process of its own so that peak
//! memory is per workload, and `out/results.json` collects the summaries.

mod json;
mod probes;
mod runner;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w}; one of {:?}",
                        spec::WORKLOADS
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    spec::bench_dir().join("out")
}

/// `min(2, nproc)` pipeline threads, set explicitly in every `ExecConfig`.
fn threads() -> usize {
    sys::nproc().min(2)
}

/// One workload in this process. The engine reads three tuning variables
/// from the environment and puts spill files under the temp directory: the
/// former are removed so only the harness's explicit configs apply, the
/// latter is pointed inside `out/` and emptied afterwards.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    for var in ["PC_THREADS", "PC_WIRE", "PC_VERIFY_RULES"] {
        std::env::remove_var(var);
    }
    let tmp = out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    let env = workloads::Env {
        seed: args.seed,
        threads: threads(),
    };
    eprintln!(
        "{workload}: seed {}, {} s window, nproc {}, {} pipeline thread(s)",
        args.seed,
        args.seconds,
        sys::nproc(),
        env.threads
    );
    if sys::nproc() < 2 {
        eprintln!("note: one core; the 2-worker workloads oversubscribe it");
    }
    let window = Duration::from_secs(args.seconds);
    let result = if args.trace {
        runner::traced(workload, env, window, &out_dir())
    } else {
        runner::untraced(workload, env, window)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let result = result?;
    print!("{}", runner::report(workload, &result));
    Ok(result.correct())
}

/// Runs one workload in a fresh child process and returns its summary line,
/// checked to be JSON that reports a correct run.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout.lines().last().unwrap_or("");
    let lines = stdout.lines().count();
    for line in stdout.lines().take(lines.saturating_sub(1)) {
        println!("{line}");
    }
    let parsed = json::parse(summary)
        .map_err(|e| format!("{workload} (trace {}) printed no summary: {e}", trace as u8))?;
    if !out.status.success() || parsed.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} (trace {}) failed: {summary}",
            trace as u8
        ));
    }
    Ok(summary.to_string())
}

fn metric(summary: &str, name: &str) -> Option<f64> {
    json::parse(summary)
        .ok()?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Every workload, untraced then traced; writes `out/results.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut entries = Vec::new();
    for workload in spec::WORKLOADS {
        let mut runs = Vec::new();
        for (label, trace) in [("end_to_end", false), ("per_layer", true)] {
            match run_child(workload, args, trace) {
                Ok(summary) => runs.push(format!("{}: {summary}", json::quote(label))),
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    ok = false;
                }
            }
        }
        entries.push(format!(
            "    {}: {{{}}}",
            json::quote(workload),
            runs.join(", ")
        ));
    }
    let repo = spec::bench_dir().join("..");
    let results = format!(
        "{{\n  \"commit\": {},\n  \"rustc\": {},\n  \"nproc\": {},\n  \"threads\": {},\n  \
         \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json::quote(&sys::commit(&repo)),
        json::quote(&sys::rustc_version()),
        sys::nproc(),
        threads(),
        args.seed,
        args.seconds,
        entries.join(",\n")
    );
    write_out("results.json", &results)?;
    Ok(ok)
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    let path = out_dir().join(file);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Two sets of untraced runs of the same code in fresh processes: every
/// end-to-end metric of every workload must agree within its own bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let bench = spec::load_benchmark_json()?;
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for workload in spec::WORKLOADS {
            set.push(run_child(workload, args, false)?);
        }
        sets.push(set);
    }
    let mut ok = true;
    println!(
        "{:<16} {:<12} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (i, workload) in spec::WORKLOADS.iter().enumerate() {
        for m in spec::END_TO_END {
            let bound = spec::bound_of(&bench, m.name)
                .ok_or(format!("BENCHMARK.json has no bound for {}", m.name))?;
            let (a, b) = match (metric(&sets[0][i], m.name), metric(&sets[1][i], m.name)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(format!("{workload} did not report {}", m.name)),
            };
            let worse = if m.better == "lower" {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let verdict = if worse.abs() <= bound {
                ""
            } else {
                "  BEYOND BOUND"
            };
            ok &= verdict.is_empty();
            println!(
                "{workload:<16} {:<12} {a:>16.6} {b:>16.6} {:>+8.2}% {:>5.0}%{verdict}",
                m.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let done = parse_args().and_then(|args| match &args.workload {
        Some(w) => run_one(w, &args),
        None if args.selfcheck => selfcheck(&args),
        None => run_all(&args),
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
