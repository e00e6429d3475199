//! `repro` — the gates CI runs and the shapes of the paper's tables and
//! figures. Nothing here is a stopwatch of record: `benchmark/` measures.
//!
//! ```text
//! repro all [--quick]       every table and figure
//! repro table2 [--quick]    one table (table1..table8)
//! repro figure1             one figure (figure1..figure5)
//! repro faults [--quick] [--seed N]...
//!                           the chaos matrix over loopback TCP sockets:
//!                           fault injection, heartbeat liveness, worker
//!                           recovery, byte-identical replay
//! repro outofcore [--quick] [--threads N] [--seed N]...
//!                           out-of-core execution: join+aggregation at a
//!                           pool budget ~10x smaller than the dataset,
//!                           gated byte-identical to the in-memory run,
//!                           plus a seeded memory-pressure sweep
//! repro verify [--seed N]...
//!                           the TCAP static verifier: workload plans
//!                           verify clean, one rendered rejection, and the
//!                           mutation gauntlet (exits non-zero below the
//!                           >=95% expected-code rejection gate)
//! repro lint                panic-hygiene lint: fails on any unwrap()/expect()
//!                           in cluster/exec/storage non-test code
//! repro joincost [--quick]  the relational join's build and probe timed
//!                           apart, and its table bytes per build row
//! repro aggcost [--quick]   the relational aggregation's pre-aggregate,
//!                           combine and owner finalize timed apart, the
//!                           finalize at 1 and 2 lanes
//! ```

use pc_bench::{aggcost, faults, figures, joincost, lint, outofcore, tables, verify};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seeds: Vec<u64> = args
        .iter()
        .zip(args.iter().skip(1))
        .filter(|(a, _)| *a == "--seed")
        .map(|(_, v)| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--seed wants an unsigned integer, got {v}");
                std::process::exit(2);
            })
        })
        .collect();
    let threads: Option<usize> = args
        .iter()
        .zip(args.iter().skip(1))
        .find(|(a, _)| *a == "--threads")
        .map(|(_, v)| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--threads wants a positive integer, got {v}");
                std::process::exit(2);
            })
        });
    let what = args.first().map(|s| s.as_str()).unwrap_or("all");
    match what {
        "all" => {
            let d = tables::all(quick);
            println!();
            figures::figure1();
            println!();
            figures::figure2();
            println!();
            figures::figure3();
            println!();
            figures::figure4();
            println!();
            figures::figure5();
            eprintln!("\n(total table time: {:?})", d);
        }
        "table1" => tables::table1(),
        "table2" => tables::table2(quick),
        "table3" => tables::table3(quick),
        "table4" => tables::table4(quick),
        "table5" => tables::table5(quick),
        "table6" => tables::table6(quick),
        "table7" => tables::table7(),
        "table8" => tables::table8(quick),
        "figure1" => figures::figure1(),
        "figure2" => figures::figure2(),
        "figure3" => figures::figure3(),
        "figure4" => figures::figure4(),
        "figure5" => figures::figure5(),
        "faults" => faults::faults(quick, &seeds),
        "outofcore" => outofcore::outofcore(quick, threads, &seeds),
        "joincost" => joincost::joincost(quick),
        "aggcost" => aggcost::aggcost(quick),
        "verify" => {
            if !verify::verify_demo(&seeds) {
                std::process::exit(1);
            }
        }
        "lint" => {
            if !lint::lint() {
                std::process::exit(1);
            }
        }
        other => {
            eprintln!(
                "unknown experiment {other}; use all|table1..table8|figure1..figure5|faults|outofcore|joincost|aggcost|verify|lint"
            );
            std::process::exit(2);
        }
    }
}
