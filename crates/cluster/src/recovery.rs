//! Master-side failure detection and replay-based recovery.
//!
//! The recovery protocol leans on two properties the rest of the system
//! already guarantees:
//!
//! 1. **Stages are deterministic** — the same inputs produce byte-identical
//!    outputs (asserted by `cluster/tests/distributed.rs` and reused by the
//!    chaos suite).
//! 2. **Inputs are append-only and survive a backend death** — the paper's
//!    front-end/backend split (§2): worker *storage* is the crash-proof
//!    front-end; what dies is the backend executor and anything it had in
//!    flight on the wire.
//!
//! So when the transport reports a dead worker (or a collect deadline
//! expires), the master: resets the transport (stale frames from the
//! aborted attempt can never leak into the replay), rolls the traffic
//! meter back (the aborted attempt's deliveries were waste, not logical
//! shuffle bytes), restarts the dead worker's backend, clears the stage's
//! intermediate outputs, and re-runs the whole stage from the surviving
//! inputs. Determinism then makes the replayed output byte-identical to a
//! fault-free run.

use crate::cluster::PcCluster;
use crate::stages;
use pc_exec::{ExecStats, PipelineSpec};
use pc_lambda::{ErasedAgg, StageLibrary};
use pc_object::{PcError, PcResult};
use std::collections::HashMap;
use std::sync::Arc;

/// Attempts per stage (first run + replays) before the job fails.
const STAGE_ATTEMPTS: usize = 5;

/// Errors the master can recover from by replaying the stage. Everything
/// else (compute errors, catalog errors) is deterministic and would simply
/// fail again.
pub fn is_recoverable(e: &PcError) -> bool {
    matches!(e, PcError::WorkerDead(_) | PcError::Transport(_))
}

/// Runs `attempt` under the stage-replay protocol: on a recoverable error,
/// reset the transport, roll back metering, recover the dead worker (or
/// revive all on an anonymous deadline), clear `replay_lists` (this stage's
/// append-only intermediate outputs under the tmp database), and retry.
pub(crate) fn with_stage_recovery<T>(
    cluster: &PcCluster,
    replay_lists: &[String],
    mut attempt: impl FnMut() -> PcResult<T>,
) -> PcResult<T> {
    let mut tries = 0;
    loop {
        let snap = cluster.meter().checkpoint();
        match attempt() {
            Ok(v) => return Ok(v),
            Err(e) if is_recoverable(&e) && tries + 1 < STAGE_ATTEMPTS => {
                tries += 1;
                // Reset first: it fences off the aborted attempt's
                // deliveries, so the rollback after it reclassifies all of
                // them and none can be metered later.
                cluster.transport().reset();
                cluster.meter().rollback(snap);
                match e {
                    PcError::WorkerDead(w) if w < cluster.workers.len() => {
                        cluster.recover_worker(w);
                    }
                    _ => {
                        // A deadline or wire error with no named victim: ask
                        // the transport's failure detector who it suspects
                        // (missed heartbeats) and restart those backends
                        // specifically; with nobody suspect, revive every
                        // link and replay — the schedule (or a real hang)
                        // will re-identify the culprit if there is one.
                        let suspects: Vec<usize> = cluster
                            .transport()
                            .suspects()
                            .into_iter()
                            .filter(|w| *w < cluster.workers.len())
                            .collect();
                        if suspects.is_empty() {
                            for w in 0..cluster.workers.len() {
                                cluster.transport().revive(w);
                            }
                        } else {
                            for w in suspects {
                                cluster.recover_worker(w);
                            }
                        }
                    }
                }
                cluster.note_stage_replayed();
                for list in replay_lists {
                    cluster.create_or_clear_set(pc_exec::TMP_DB, list)?;
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// One distributed stage, replayed until it completes (or the policy gives
/// up). The stage is the recovery unit: every routing action it performs
/// (gather, broadcast, shuffle) happens strictly *before* any durable
/// append, so an aborted attempt leaves nothing behind except cleared
/// intermediates and rolled-back meter counts.
pub fn run_stage_with_recovery(
    cluster: &PcCluster,
    p: &PipelineSpec,
    lib: &StageLibrary,
    aggs: &HashMap<String, Arc<dyn ErasedAgg>>,
    tables: &mut stages::TableStore,
) -> PcResult<ExecStats> {
    let replay_lists: Vec<String> = p.replay_targets().into_iter().map(str::to_string).collect();
    with_stage_recovery(cluster, &replay_lists, || {
        stages::run_stage_distributed(cluster, p, lib, aggs, tables)
    })
}
