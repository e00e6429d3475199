//! Chaos suite: seeded fault injection over the distributed stages.
//!
//! The matrix runs every fault kind ({drop, delay, reorder, corrupt,
//! worker-death})
//! against both transport-heavy stage shapes (the JoinBuild broadcast and
//! the aggregation shuffle) across several seeds, and asserts the job
//! completes with output **byte-identical** to a fault-free run. Every
//! assertion label embeds the seed and the transport's own
//! `fault_summary()`, so a failing cell prints its schedule for a one-line
//! reproduction.

use pc_cluster::testkit::{assert_runs_identical, set_bytes_sorted};
use pc_cluster::{
    ClusterConfig, ClusterStats, FaultKind, FaultSpec, PcCluster, TcpConfig, TransportKind,
};
use pc_core::{Dataset, Job};
use pc_exec::ExecConfig;
use pc_lambda::{AggregateSpec, SetWriter};
use pc_object::{make_object, pc_object, BlockRef, Handle, PcResult, PcString, PcVec};

pc_object! {
    pub struct Emp / EmpView {
        (salary, set_salary): i64,
        (dept_id, set_dept_id): i64,
        (name, set_name): Handle<PcString>,
    }
}

pc_object! {
    pub struct Dept / DeptView {
        (id, set_id): i64,
        (dname, set_dname): Handle<PcString>,
    }
}

pc_object! {
    pub struct DeptStat / DeptStatView {
        (dept, set_dept): i64,
        (count, set_count): i64,
        (total, set_total): i64,
    }
}

const WORKERS: usize = 3;

fn cluster_with(transport: TransportKind) -> PcCluster {
    PcCluster::new(ClusterConfig {
        workers: WORKERS,
        exec: ExecConfig {
            batch_size: 32,
            page_size: 1 << 15,
            agg_partitions: 5,
            join_partitions: 8,
            morsel_rows: 64,
            ..ExecConfig::default()
        },
        transport,
        ..ClusterConfig::default()
    })
    .unwrap()
}

/// Fault injection over the socket transport: the realistic stack —
/// chunked frames on the wire underneath, chaos on top.
fn faulty(spec: FaultSpec) -> TransportKind {
    TransportKind::Faulty {
        inner: Box::new(TransportKind::Tcp(TcpConfig {
            chunk_bytes: 1 << 10, // several frames per page
            ..TcpConfig::default()
        })),
        spec,
    }
}

fn load_emps(c: &PcCluster, n: usize) {
    c.create_or_clear_set("db", "emps").unwrap();
    let mut w = SetWriter::new(1 << 14);
    for i in 0..n {
        w.write_with(|| {
            let e = make_object::<Emp>()?;
            e.v().set_salary(30_000 + (i as i64 * 977) % 90_000)?;
            e.v().set_dept_id((i % 7) as i64)?;
            e.v().set_name(PcString::make(&format!("emp{i}"))?)?;
            Ok(e.erase())
        })
        .unwrap();
    }
    c.send_pages("db", "emps", w.finish().unwrap()).unwrap();
}

fn load_depts(c: &PcCluster) {
    c.create_or_clear_set("db", "depts").unwrap();
    let mut w = SetWriter::new(1 << 14);
    for d in 0..7i64 {
        w.write_with(|| {
            let dept = make_object::<Dept>()?;
            dept.v().set_id(d)?;
            dept.v().set_dname(PcString::make(&format!("dept{d}"))?)?;
            Ok(dept.erase())
        })
        .unwrap();
    }
    c.send_pages("db", "depts", w.finish().unwrap()).unwrap();
}

struct SumAgg;

impl AggregateSpec for SumAgg {
    type In = Emp;
    type Key = i64;
    type Val = (i64, i64);
    type Out = DeptStat;

    fn key_of(&self, rec: &Handle<Emp>) -> PcResult<i64> {
        Ok(rec.v().dept_id())
    }

    fn init(&self, _b: &BlockRef, rec: &Handle<Emp>) -> PcResult<(i64, i64)> {
        Ok((1, rec.v().salary()))
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<Emp>) -> PcResult<()> {
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

    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<DeptStat>> {
        let (c, t): (i64, i64) = b.read(slot);
        let out = make_object::<DeptStat>()?;
        out.v().set_dept(*key)?;
        out.v().set_count(c)?;
        out.v().set_total(t)?;
        Ok(out)
    }
}

/// The aggregation-shuffle job: faults land on the combined-page shuffle
/// to partition owners (Appendix D.2).
fn run_agg(c: &PcCluster) -> (Vec<Vec<u8>>, ClusterStats) {
    load_emps(c, 600);
    c.create_or_clear_set("db", "stats").unwrap();
    let stats_ds = Dataset::<Emp>::scan("db", "emps").aggregate(SumAgg);
    let q = Job::new()
        .add(stats_ds.write_to("db", "stats"))
        .compile()
        .unwrap();
    let stats = c.execute(&q).unwrap();
    (set_bytes_sorted(c, "db", "stats").unwrap(), stats)
}

/// The broadcast-join job: faults land on the JoinBuild gather and the
/// build-table broadcast (§8.3.2).
fn run_join(c: &PcCluster) -> (Vec<Vec<u8>>, ClusterStats) {
    load_emps(c, 400);
    load_depts(c);
    c.create_or_clear_set("db", "pairs").unwrap();
    let joined = Dataset::<Dept>::scan("db", "depts").join(
        &Dataset::<Emp>::scan("db", "emps"),
        |d, e| {
            d.member("id", |d| d.v().id())
                .eq(e.member("deptId", |e| e.v().dept_id()))
        },
        "pair",
        |d, e| {
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
    (set_bytes_sorted(c, "db", "pairs").unwrap(), stats)
}

type Scenario = (&'static str, fn(&PcCluster) -> (Vec<Vec<u8>>, ClusterStats));

const SCENARIOS: [Scenario; 2] = [("agg-shuffle", run_agg), ("join-broadcast", run_join)];

/// Pin worker-death schedules so every seed actually kills someone early in
/// the job (the derived default may land past the job's last send).
fn spec_for(kind: FaultKind, seed: u64) -> FaultSpec {
    let mut spec = FaultSpec::seeded(seed, &[kind]);
    if kind == FaultKind::WorkerDeath {
        spec.death_at = Some(seed % 6);
        spec.victim = Some(seed as usize % WORKERS);
    }
    spec
}

#[test]
fn chaos_matrix_completes_byte_identical() {
    let kinds = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Reorder,
        FaultKind::Corrupt,
        FaultKind::WorkerDeath,
    ];
    for (name, job) in SCENARIOS {
        let (baseline, _) = job(&cluster_with(TransportKind::Local));
        for kind in kinds {
            for seed in [1u64, 2, 3] {
                let c = cluster_with(faulty(spec_for(kind, seed)));
                let schedule = c.transport().fault_summary().unwrap_or_default();
                let label = format!("{name} seed={seed} [{schedule}]");
                let (got, stats) = job(&c);
                assert_runs_identical(&label, &baseline, &got);
                if kind == FaultKind::WorkerDeath {
                    assert!(
                        stats.workers_recovered >= 1,
                        "[{label}] the victim's backend must be restarted"
                    );
                    assert!(
                        stats.stages_replayed >= 1,
                        "[{label}] the interrupted stage must be replayed"
                    );
                }
            }
        }
    }
}

#[test]
fn combined_chaos_still_converges() {
    // Every fault kind at once — a dead worker mid-shuffle *while* the
    // surviving links drop, delay, reorder, and corrupt frames. Recovery
    // plus the delivery contract must still yield the fault-free bytes.
    let all = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Reorder,
        FaultKind::Corrupt,
        FaultKind::WorkerDeath,
    ];
    for (name, job) in SCENARIOS {
        let (baseline, _) = job(&cluster_with(TransportKind::Local));
        for seed in [11u64, 29] {
            let mut spec = FaultSpec::seeded(seed, &all);
            spec.death_at = Some(seed % 5);
            spec.victim = Some(seed as usize % WORKERS);
            let c = cluster_with(faulty(spec));
            let schedule = c.transport().fault_summary().unwrap_or_default();
            let label = format!("{name} combined seed={seed} [{schedule}]");
            let (got, stats) = job(&c);
            assert_runs_identical(&label, &baseline, &got);
            assert!(stats.workers_recovered >= 1, "[{label}] death must fire");
        }
    }
}

#[test]
fn retries_do_not_inflate_shuffle_accounting() {
    // Satellite regression: a lossy run reports the same *logical* shuffle
    // traffic as a clean one; the waste shows up only in the retransmission
    // counters.
    let (clean_bytes, clean) = run_agg(&cluster_with(TransportKind::Local));
    let mut spec = FaultSpec::seeded(0xACC, &[FaultKind::Drop]);
    spec.rate = 256; // every armed send loses at least one attempt
    let c = cluster_with(faulty(spec));
    let (lossy_bytes, lossy) = run_agg(&c);
    assert_runs_identical("drop-every-send accounting run", &clean_bytes, &lossy_bytes);
    assert_eq!(
        lossy.bytes_shuffled, clean.bytes_shuffled,
        "retransmits must not inflate logical shuffle bytes"
    );
    assert_eq!(
        lossy.pages_shuffled, clean.pages_shuffled,
        "retransmits must not inflate logical page counts"
    );
    assert!(lossy.bytes_retransmitted > 0, "drops were injected");
    assert!(lossy.sends_failed > 0);
    assert_eq!(clean.bytes_retransmitted, 0, "clean runs waste nothing");
}

#[test]
fn worker_death_keeps_logical_accounting_clean() {
    // The aborted attempt's deliveries are rolled back into retransmission,
    // so even a run that lost a worker mid-shuffle reports clean logical
    // shuffle traffic.
    let (clean_bytes, clean) = run_agg(&cluster_with(TransportKind::Local));
    let mut spec = FaultSpec::seeded(9, &[FaultKind::WorkerDeath]);
    spec.death_at = Some(3);
    spec.victim = Some(1);
    let c = cluster_with(faulty(spec));
    let (lossy_bytes, lossy) = run_agg(&c);
    assert_runs_identical(
        "death-mid-shuffle accounting run",
        &clean_bytes,
        &lossy_bytes,
    );
    assert_eq!(lossy.bytes_shuffled, clean.bytes_shuffled);
    assert_eq!(lossy.pages_shuffled, clean.pages_shuffled);
    assert!(lossy.stages_replayed >= 1);
    assert_eq!(lossy.workers_recovered, 1);
}

#[test]
fn drop_without_retries_recovers_by_stage_replay() {
    // With in-place retries disabled a wire loss surfaces as a transport
    // error; the master recovers by replaying the whole stage instead.
    let (baseline, _) = run_agg(&cluster_with(TransportKind::Local));
    let mut spec = FaultSpec::seeded(5, &[FaultKind::Drop]);
    spec.retries = false;
    spec.rate = 256;
    spec.max_faults = 1; // exactly one surfaced loss → deterministic replay
    let c = cluster_with(faulty(spec));
    let (got, stats) = run_agg(&c);
    assert_runs_identical("single surfaced drop", &baseline, &got);
    assert!(stats.stages_replayed >= 1, "stage replay must recover");
    assert_eq!(
        stats.workers_recovered, 0,
        "no worker died; only links were revived"
    );
}

#[test]
fn corrupted_frames_never_reach_output() {
    let (baseline, clean) = run_agg(&cluster_with(TransportKind::Local));
    // Retransmit path: every armed send has one frame's payload bit-flipped
    // on the wire. The receiver's checksum rejects each mangled frame, the
    // link's clean copy delivers, and only the waste counters notice.
    let mut spec = FaultSpec::seeded(0xBADC, &[FaultKind::Corrupt]);
    spec.rate = 256;
    let c = cluster_with(faulty(spec));
    let (got, stats) = run_agg(&c);
    assert_runs_identical("corrupt-every-send retransmit run", &baseline, &got);
    assert_eq!(
        stats.bytes_shuffled, clean.bytes_shuffled,
        "checksum-rejected frames must not inflate logical shuffle bytes"
    );
    assert!(
        stats.bytes_retransmitted > 0,
        "the mangled frames are metered as waste"
    );
    // Surfaced path: no retransmission — the corruption becomes a typed
    // transport error at the sender and stage replay recovers.
    let mut spec = FaultSpec::seeded(7, &[FaultKind::Corrupt]);
    spec.retries = false;
    spec.rate = 256;
    spec.max_faults = 1;
    let c = cluster_with(faulty(spec));
    let (got, stats) = run_agg(&c);
    assert_runs_identical("single surfaced corruption", &baseline, &got);
    assert!(stats.stages_replayed >= 1, "stage replay must recover");
    assert_eq!(stats.workers_recovered, 0, "no worker died");
}

#[test]
fn tcp_transport_alone_matches_local_byte_for_byte() {
    // The socket transport under no faults is just a slower wire: both
    // stage shapes must produce the fault-free bytes.
    for (name, job) in SCENARIOS {
        let (baseline, _) = job(&cluster_with(TransportKind::Local));
        let (got, stats) = job(&cluster_with(TransportKind::Tcp(TcpConfig {
            chunk_bytes: 1 << 10,
            ..TcpConfig::default()
        })));
        assert_runs_identical(&format!("{name} over tcp transport"), &baseline, &got);
        assert_eq!(stats.stages_replayed, 0);
        assert_eq!(stats.bytes_retransmitted, 0);
    }
}
