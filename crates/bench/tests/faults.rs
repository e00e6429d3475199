//! Chaos suite: seeded fault injection over the distributed stages.
//!
//! The matrix runs every fault kind ({drop, delay, reorder, corrupt,
//! worker-death})
//! against both transport-heavy stage shapes (the JoinBuild broadcast and
//! the aggregation shuffle) across several seeds, and asserts the job
//! completes with output **byte-identical** to a fault-free run. Every
//! assertion label embeds the seed and the `FaultSpec` it ran under, so a
//! failing cell prints its schedule for a one-line reproduction. The
//! schemas, jobs and clusters are `pc_bench::faults`, the fixture `repro
//! faults` runs too.

use pc_bench::faults::{cluster_with, faulty, load_emps, WORKERS};
use pc_cluster::testkit::assert_runs_identical;
use pc_cluster::{ClusterStats, FaultKind, FaultSpec, PcCluster, TcpConfig, TransportKind};

/// The aggregation-shuffle job over 600 employees.
fn run_agg(c: &PcCluster) -> (Vec<Vec<u8>>, ClusterStats) {
    pc_bench::faults::run_agg(c, 600)
}

/// The broadcast-join job over 400 employees.
fn run_join(c: &PcCluster) -> (Vec<Vec<u8>>, ClusterStats) {
    pc_bench::faults::run_join(c, 400)
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
                let spec = spec_for(kind, seed);
                let label = format!("{name} seed={seed} [{spec:?}]");
                let c = cluster_with(faulty(spec));
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
            let label = format!("{name} combined seed={seed} [{spec:?}]");
            let c = cluster_with(faulty(spec));
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
    // Faults tick only between the job's `arm` and `disarm`: loading
    // through `send_pages` first would otherwise lose its first page.
    load_emps(&c, 600);
    let loaded = c.stats_snapshot();
    assert_eq!(loaded.sends_failed, 0, "loading runs disarmed");
    assert_eq!(loaded.stages_replayed, 0, "loading runs disarmed");
    let (got, stats) = run_agg(&c);
    assert_runs_identical("single surfaced drop", &baseline, &got);
    assert!(stats.stages_replayed >= 1, "stage replay must recover");
    assert!(
        c.stats_snapshot().sends_failed >= 1,
        "the armed job lost a send"
    );
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
