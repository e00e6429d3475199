//! `repro faults` — the transport & recovery demonstration, and the chaos
//! fixture it shares with the `faults` test suite (`bench/tests/faults.rs`):
//! the Emp/Dept schemas, the aggregation-shuffle and broadcast-join jobs,
//! and the clusters they run on.
//!
//! Runs the chaos matrix as a visible experiment: every fault kind ({drop,
//! delay, reorder, corrupt, worker-death}) against both transport-heavy
//! stage shapes (aggregation shuffle, broadcast join), over a fixed seed
//! set plus any `--seed N` extras (CI passes a seed rotated from the
//! commit hash). The chaos rides on real loopback sockets
//! (`TcpTransport`). Each cell reports whether
//! the run under faults produced output **byte-identical** to a fault-free
//! in-process (`Local`) run, how many workers were recovered and stages
//! replayed, how many wire bytes were wasted on retransmission, and the
//! wire's missed heartbeats and metered reconnects. Any non-identical cell
//! prints its `FaultSpec` (a one-line reproduction) and fails the process.

use crate::util::row;
use pc_cluster::{
    ClusterConfig, ClusterStats, FaultKind, FaultSpec, PcCluster, TcpConfig, TransportKind,
};
use pc_core::{Dataset, Job};
use pc_exec::ExecConfig;
use pc_lambda::{AggregateSpec, SetWriter};
use pc_object::{
    make_object, pc_object, BlockRef, Handle, PcResult, PcString, PcVec, PressureSpec,
};

pc_object! {
    /// An employee: the fact table of both chaos jobs.
    pub struct FEmp / FEmpView {
        (salary, set_salary): i64,
        (dept_id, set_dept_id): i64,
        (name, set_name): Handle<PcString>,
    }
}

pc_object! {
    /// A department: the broadcast join's build side.
    pub struct FDept / FDeptView {
        (id, set_id): i64,
        (dname, set_dname): Handle<PcString>,
    }
}

pc_object! {
    /// One department's aggregate.
    pub struct FDeptStat / FDeptStatView {
        (dept, set_dept): i64,
        (count, set_count): i64,
        (total, set_total): i64,
    }
}

/// Workers in every chaos cluster.
pub const WORKERS: usize = 3;

/// Per-department head count and salary total.
struct SumAgg;

impl AggregateSpec for SumAgg {
    type In = FEmp;
    type Key = i64;
    type Val = (i64, i64);
    type Out = FDeptStat;

    fn key_of(&self, rec: &Handle<FEmp>) -> PcResult<i64> {
        Ok(rec.v().dept_id())
    }

    fn init(&self, _b: &BlockRef, rec: &Handle<FEmp>) -> PcResult<(i64, i64)> {
        Ok((1, rec.v().salary()))
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<FEmp>) -> PcResult<()> {
        let (c, t): (i64, i64) = b.read(slot);
        b.write(slot, (c + 1, t + rec.v().salary()));
        Ok(())
    }

    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()> {
        let (c1, t1): (i64, i64) = dst.read(dst_slot);
        let (c2, t2): (i64, i64) = src.read(src_slot);
        dst.write(dst_slot, (c1 + c2, t1 + t2));
        Ok(())
    }

    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<FDeptStat>> {
        let (c, t): (i64, i64) = b.read(slot);
        let out = make_object::<FDeptStat>()?;
        out.v().set_dept(*key)?;
        out.v().set_count(c)?;
        out.v().set_total(t)?;
        Ok(out)
    }
}

/// A chaos-sized cluster (small pages, batches and morsels, so a few
/// hundred rows cross the transport as many pages) over `transport`.
pub fn cluster_with(transport: TransportKind) -> PcCluster {
    PcCluster::new(ClusterConfig {
        workers: WORKERS,
        exec: ExecConfig {
            batch_size: 32,
            page_size: 1 << 15,
            partitions: 8,
            morsel_rows: 64,
            ..ExecConfig::default()
        },
        transport,
        ..ClusterConfig::default()
    })
    .unwrap()
}

/// A fault-free-wire cluster with seeded memory-pressure injection armed
/// on every worker pool's budget: reservations are denied as a pure
/// function of seed × reservation index, so operators spill at randomized
/// points even though the data would fit.
fn cluster_pressured(seed: u64) -> PcCluster {
    PcCluster::new(ClusterConfig {
        workers: WORKERS,
        exec: ExecConfig {
            batch_size: 32,
            page_size: 1 << 15,
            partitions: 8,
            morsel_rows: 64,
            ..ExecConfig::default()
        },
        pressure: Some(PressureSpec::seeded(seed)),
        ..ClusterConfig::default()
    })
    .unwrap()
}

/// Fault injection over the socket transport: the realistic stack —
/// chunked frames on the wire underneath, chaos on top.
pub fn faulty(spec: FaultSpec) -> TransportKind {
    TransportKind::Faulty {
        tcp: TcpConfig {
            chunk_bytes: 1 << 10, // several frames per page
            ..TcpConfig::default()
        },
        spec,
    }
}

/// Loads `n` employees over 7 departments into `db.emps`.
pub fn load_emps(c: &PcCluster, n: usize) {
    c.create_or_clear_set("db", "emps").unwrap();
    let mut w = SetWriter::new(1 << 14);
    for i in 0..n {
        w.write_with(|| {
            let e = make_object::<FEmp>()?;
            e.v().set_salary(30_000 + (i as i64 * 977) % 90_000)?;
            e.v().set_dept_id((i % 7) as i64)?;
            e.v().set_name(PcString::make(&format!("emp{i}"))?)?;
            Ok(e.erase())
        })
        .unwrap();
    }
    c.send_pages("db", "emps", w.finish().unwrap()).unwrap();
}

/// Loads the 7 departments into `db.depts`.
fn load_depts(c: &PcCluster) {
    c.create_or_clear_set("db", "depts").unwrap();
    let mut w = SetWriter::new(1 << 14);
    for d in 0..7i64 {
        w.write_with(|| {
            let dept = make_object::<FDept>()?;
            dept.v().set_id(d)?;
            dept.v().set_dname(PcString::make(&format!("dept{d}"))?)?;
            Ok(dept.erase())
        })
        .unwrap();
    }
    c.send_pages("db", "depts", w.finish().unwrap()).unwrap();
}

/// The aggregation-shuffle job over `n` employees: faults land on the
/// combined-page shuffle to partition owners (Appendix D.2). Returns the
/// output's sorted page bytes and the job's stats.
pub fn run_agg(c: &PcCluster, n: usize) -> (Vec<Vec<u8>>, ClusterStats) {
    load_emps(c, n);
    c.create_or_clear_set("db", "stats").unwrap();
    let ds = Dataset::<FEmp>::scan("db", "emps").aggregate(SumAgg);
    let q = Job::new()
        .add(ds.write_to("db", "stats"))
        .compile()
        .unwrap();
    let stats = c.execute(&q).unwrap();
    (
        pc_cluster::testkit::set_bytes_sorted(c, "db", "stats").unwrap(),
        stats,
    )
}

/// The broadcast-join job over `n` employees: the employees stream and
/// probe, the departments build, so faults land on the JoinBuild gather and
/// the build-table broadcast (§8.3.2).
pub fn run_join(c: &PcCluster, n: usize) -> (Vec<Vec<u8>>, ClusterStats) {
    load_emps(c, n);
    load_depts(c);
    c.create_or_clear_set("db", "pairs").unwrap();
    let joined = Dataset::<FEmp>::scan("db", "emps").join(
        &Dataset::<FDept>::scan("db", "depts"),
        |e, d| {
            e.member("deptId", |e| e.v().dept_id())
                .eq(d.member("id", |d| d.v().id()))
        },
        "pair",
        |e, d| {
            let v = make_object::<PcVec<i64>>()?;
            v.push(d.v().id())?;
            v.push(e.v().dept_id())?;
            v.push(e.v().salary())?;
            Ok(v)
        },
    );
    let q = Job::new()
        .add(joined.write_to("db", "pairs"))
        .compile()
        .unwrap();
    let stats = c.execute(&q).unwrap();
    (
        pc_cluster::testkit::set_bytes_sorted(c, "db", "pairs").unwrap(),
        stats,
    )
}

/// The chaos demonstration. `extra_seeds` join the fixed set (CI rotates
/// one in from the commit hash). Exits non-zero if any cell is not
/// byte-identical to the fault-free run.
pub fn faults(quick: bool, extra_seeds: &[u64]) {
    let rows = if quick { 600 } else { 2_000 };
    let mut seeds: Vec<u64> = if quick { vec![1] } else { vec![1, 2, 3] };
    seeds.extend_from_slice(extra_seeds);

    type JobFn = fn(&PcCluster, usize) -> (Vec<Vec<u8>>, ClusterStats);
    let scenarios: [(&str, JobFn); 2] = [("agg-shuffle", run_agg), ("join-broadcast", run_join)];
    let kinds = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Reorder,
        FaultKind::Corrupt,
        FaultKind::WorkerDeath,
    ];

    println!(
        "Transport & recovery: chaos matrix over {rows} rows, seeds {seeds:?}, wire: tcp sockets"
    );
    println!("(every cell must be byte-identical to the fault-free run)\n");
    let widths = [14, 12, 6, 10, 10, 9, 14, 9, 9];
    row(
        &[
            "stage".into(),
            "fault".into(),
            "seed".into(),
            "identical".into(),
            "recovered".into(),
            "replayed".into(),
            "retrans bytes".into(),
            "hb missed".into(),
            "redials".into(),
        ],
        &widths,
    );

    let mut failures: Vec<String> = Vec::new();
    for (name, job) in scenarios {
        let (baseline, base_stats) = job(&cluster_with(TransportKind::Local), rows);
        for kind in kinds {
            for &seed in &seeds {
                let mut spec = FaultSpec::seeded(seed, &[kind]);
                spec.rate = 128; // every other send faulted: visibly lossy
                if kind == FaultKind::WorkerDeath {
                    spec.death_at = Some(seed % 6);
                    spec.victim = Some(seed as usize % WORKERS);
                }
                let c = cluster_with(faulty(spec.clone()));
                let (got, stats) = job(&c, rows);
                let identical =
                    got == baseline && stats.bytes_shuffled == base_stats.bytes_shuffled;
                if !identical {
                    failures.push(format!("{name} under {spec:?}"));
                }
                row(
                    &[
                        name.into(),
                        format!("{kind:?}"),
                        seed.to_string(),
                        if identical { "yes" } else { "NO" }.into(),
                        stats.workers_recovered.to_string(),
                        stats.stages_replayed.to_string(),
                        stats.bytes_retransmitted.to_string(),
                        stats.heartbeats_missed.to_string(),
                        stats.reconnects.to_string(),
                    ],
                    &widths,
                );
            }
        }
    }

    // The memory-pressure leg: same stage shapes, fault-free wire, but
    // every worker pool's budget under seeded reservation-denial
    // injection — the operators' spill paths are the thing under chaos
    // here, and the gate is the same: byte-identical output, plus zero
    // spill files left behind.
    println!("\nmemory-pressure chaos (seeded reservation denials, fault-free wire):");
    let pwidths = [14usize, 6, 10, 10, 10, 7, 8];
    row(
        &[
            "stage".into(),
            "seed".into(),
            "identical".into(),
            "jp_spill".into(),
            "ag_spill".into(),
            "waves".into(),
            "leaked".into(),
        ],
        &pwidths,
    );
    let mut total_spilled = 0u64;
    for (name, job) in scenarios {
        let (baseline, _) = job(&cluster_with(TransportKind::Local), rows);
        for &seed in &seeds {
            let c = cluster_pressured(seed);
            let (got, stats) = job(&c, rows);
            let leaked: usize = c
                .workers
                .iter()
                .map(|w| w.storage.pool().leaked_spill_files())
                .sum();
            let spilled = stats.exec.join_partitions_spilled + stats.exec.agg_pages_spilled;
            total_spilled += spilled;
            let identical = got == baseline && leaked == 0;
            if !identical {
                failures.push(format!("{name} under MemoryPressure seed={seed}"));
            }
            row(
                &[
                    name.into(),
                    seed.to_string(),
                    if identical { "yes" } else { "NO" }.into(),
                    stats.exec.join_partitions_spilled.to_string(),
                    stats.exec.agg_pages_spilled.to_string(),
                    stats.exec.spill_waves.to_string(),
                    leaked.to_string(),
                ],
                &pwidths,
            );
        }
    }
    if total_spilled == 0 {
        failures
            .push("memory-pressure leg never spilled — injection not reaching operators".into());
    }

    if failures.is_empty() {
        println!("\nall cells byte-identical to the fault-free run");
    } else {
        println!(
            "\n{} cell(s) diverged — schedules for reproduction:",
            failures.len()
        );
        for f in &failures {
            println!("  {f}");
        }
        std::process::exit(1);
    }
}
