//! Seed-driven fault injection over the socket transport.

use super::{node_name, NodeId, TcpTransport, Transport, MASTER};
use pc_object::hash::mix;
use pc_object::{sync, PcError, PcResult, SealedPage};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Fault categories a [`FaultyTransport`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A wire-level loss of a send attempt (retried, or surfaced).
    Drop,
    /// A delivery delay of a few milliseconds.
    Delay,
    /// Two consecutive sends to the same destination swap on the wire.
    Reorder,
    /// A seeded bit flips somewhere in one frame's payload on the wire.
    /// The receiver's checksum rejects the frame; with retries on, the
    /// link retransmits a clean copy, otherwise the loss surfaces as a
    /// typed transport error and stage replay recovers.
    Corrupt,
    /// A worker's backend dies at a scheduled send index; every later send
    /// touching it fails until recovery revives it.
    WorkerDeath,
}

/// A reproducible fault schedule: everything the [`FaultyTransport`]
/// injects is a pure function of this spec, so its `Debug` form is a
/// one-line repro of a failing chaos seed.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Seed driving every per-send decision.
    pub seed: u64,
    /// Which fault kinds are enabled.
    pub kinds: Vec<FaultKind>,
    /// Per-send fault probability, in 256ths, for drop/delay/reorder.
    pub rate: u16,
    /// Wire drops injected per faulted send are capped here; the next
    /// attempt always succeeds, so retries are guaranteed to converge.
    pub max_drops_per_send: u32,
    /// Retry dropped attempts in-place. When false a drop surfaces as a
    /// transport error and stage replay recovers instead.
    pub retries: bool,
    /// Global send index at which the victim dies (derived from the seed
    /// when `WorkerDeath` is enabled and this is `None`).
    pub death_at: Option<u64>,
    /// The worker that dies (derived from the seed when `None`).
    pub victim: Option<NodeId>,
    /// Budget of volatile faults (drop/delay/reorder) injected over the
    /// transport's lifetime; once spent, the schedule goes quiet. Lets a
    /// test script *exactly N faults* deterministically.
    pub max_faults: u64,
}

impl FaultSpec {
    /// A schedule over the given kinds, everything else derived from seed.
    pub fn seeded(seed: u64, kinds: &[FaultKind]) -> Self {
        FaultSpec {
            seed,
            kinds: kinds.to_vec(),
            rate: 48,
            max_drops_per_send: 2,
            retries: true,
            death_at: None,
            victim: None,
            max_faults: u64::MAX,
        }
    }
}

/// Per-destination reorder bookkeeping: `perm[inner_idx]` is the logical
/// send index of the page handed to the inner transport as its
/// `inner_idx`-th send this round. Collect un-permutes with it, restoring
/// logical order no matter what the schedule swapped.
#[derive(Default)]
struct ChanState {
    perm: Vec<usize>,
    next_logical: usize,
    holdback: Option<(usize, SealedPage)>,
}

/// Decorates the [`TcpTransport`] with seed-driven fault injection.
/// Despite the chaos underneath, the decorated transport still satisfies
/// the full delivery contract (exactly-once, order-restored) whenever
/// `retries` is on and no death fires — and recovery restores it
/// end-to-end otherwise.
pub struct FaultyTransport {
    inner: TcpTransport,
    spec: FaultSpec,
    armed: AtomicBool,
    sends: AtomicU64,
    faults_injected: AtomicU64,
    death_fired: AtomicBool,
    dead: Mutex<HashSet<NodeId>>,
    chans: Mutex<HashMap<NodeId, ChanState>>,
}

impl FaultyTransport {
    /// Wraps `inner`, injecting faults over its workers and metering into
    /// its meter.
    pub fn new(inner: TcpTransport, spec: FaultSpec) -> Self {
        FaultyTransport {
            inner,
            spec,
            armed: AtomicBool::new(false),
            sends: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            death_fired: AtomicBool::new(false),
            dead: Mutex::new(HashSet::new()),
            chans: Mutex::new(HashMap::new()),
        }
    }

    fn death_point(&self) -> Option<(u64, NodeId)> {
        if !self.spec.kinds.contains(&FaultKind::WorkerDeath) {
            return None;
        }
        let at = self
            .spec
            .death_at
            .unwrap_or_else(|| mix(self.spec.seed, 0, 0xDEAD) % 24);
        let victim = self
            .spec
            .victim
            .unwrap_or_else(|| (mix(self.spec.seed, 1, 0xDEAD) as usize) % self.inner.workers);
        Some((at, victim))
    }

    /// The volatile fault (if any) scheduled for global send `n`.
    fn volatile_fault(&self, n: u64) -> Option<FaultKind> {
        let volatile: Vec<FaultKind> = self
            .spec
            .kinds
            .iter()
            .copied()
            .filter(|k| *k != FaultKind::WorkerDeath)
            .collect();
        if volatile.is_empty() {
            return None;
        }
        let h = mix(self.spec.seed, n, 0xFA17);
        if (h % 256) as u16 >= self.spec.rate {
            return None;
        }
        Some(volatile[(h >> 32) as usize % volatile.len()])
    }

    /// Consumes one unit of the volatile-fault budget; `false` once spent.
    fn take_fault_budget(&self) -> bool {
        let max = self.spec.max_faults;
        self.faults_injected
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                (c < max).then_some(c + 1)
            })
            .is_ok()
    }

    fn check_alive(&self, src: NodeId, dst: NodeId) -> PcResult<()> {
        let dead = sync::lock(&self.dead);
        if dead.contains(&dst) {
            return Err(PcError::WorkerDead(dst));
        }
        if dead.contains(&src) {
            return Err(PcError::WorkerDead(src));
        }
        Ok(())
    }

    /// Deliver to the inner transport, recording the logical index in the
    /// destination's permutation.
    fn deliver(&self, src: NodeId, dst: NodeId, page: &SealedPage, logical: usize) -> PcResult<()> {
        self.inner.send(src, dst, page)?;
        let mut chans = sync::lock(&self.chans);
        chans.entry(dst).or_default().perm.push(logical);
        Ok(())
    }
}

impl Transport for FaultyTransport {
    fn send(&self, src: NodeId, dst: NodeId, page: &SealedPage) -> PcResult<()> {
        let armed = self.armed.load(Ordering::Relaxed);
        // Assign the logical index first: order restoration is defined by
        // call order at this boundary, not by what survives the wire.
        let logical = {
            let mut chans = sync::lock(&self.chans);
            let c = chans.entry(dst).or_default();
            let l = c.next_logical;
            c.next_logical += 1;
            l
        };
        if armed {
            // The schedule's send counter only ticks while armed, so the
            // seed describes the *job's* traffic, not whatever data loading
            // happened to precede it.
            let n = self.sends.fetch_add(1, Ordering::Relaxed);
            if let Some((at, victim)) = self.death_point() {
                if n >= at && !self.death_fired.swap(true, Ordering::Relaxed) {
                    sync::lock(&self.dead).insert(victim);
                    // Let the wire see the death too: the socket transport
                    // severs the victim's connections and stops its
                    // heartbeats, so the master's liveness monitor detects
                    // the crash the same way it would a real one.
                    self.inner.kill(victim);
                }
            }
            self.check_alive(src, dst)?;
            let fault = self.volatile_fault(n).filter(|_| self.take_fault_budget());
            match fault {
                Some(FaultKind::Delay) => {
                    std::thread::sleep(Duration::from_millis(1 + mix(self.spec.seed, n, 1) % 4));
                }
                Some(FaultKind::Drop) => {
                    let cap = self.spec.max_drops_per_send.max(1) as u64;
                    let drops = 1 + mix(self.spec.seed, n, 2) % cap;
                    for _ in 0..drops {
                        self.inner.meter.on_failed_attempt(page.used());
                    }
                    if !self.spec.retries {
                        return Err(PcError::Transport(format!(
                            "send #{n} to {} dropped on the wire (retries disabled)",
                            node_name(dst)
                        )));
                    }
                    // Retried in place: fall through to a clean delivery.
                }
                Some(FaultKind::Reorder) => {
                    let mut chans = sync::lock(&self.chans);
                    let c = chans.entry(dst).or_default();
                    if c.holdback.is_none() {
                        // Stash this page (a reference: sealed bytes never
                        // change); it goes out after the next send to the
                        // same destination (or at collect).
                        c.holdback = Some((logical, page.clone()));
                        return Ok(());
                    }
                    // A stash is already pending: deliver normally below.
                }
                Some(FaultKind::Corrupt) => {
                    let flip = mix(self.spec.seed, n, 3);
                    if self.spec.retries {
                        // One logical delivery whose first wire copy is
                        // mangled and whose clean copy follows — the
                        // link-level retransmit. The receiver's checksum
                        // rejects the bad frame and meters the waste.
                        self.inner.send_corrupted(src, dst, page, flip, true)?;
                        let mut chans = sync::lock(&self.chans);
                        chans.entry(dst).or_default().perm.push(logical);
                        return Ok(());
                    }
                    // No retransmission: the mangled frame goes out, dies
                    // at the receiver's checksum, and the sender surfaces
                    // a typed error for stage replay to recover from.
                    let _ = self.inner.send_corrupted(src, dst, page, flip, false);
                    return Err(PcError::Transport(format!(
                        "send #{n} to {} corrupted on the wire (no retransmission)",
                        node_name(dst)
                    )));
                }
                _ => {}
            }
        }
        self.deliver(src, dst, page, logical)?;
        // Flush a pending stash *after* the newer page: that is the swap.
        let stashed = {
            let mut chans = sync::lock(&self.chans);
            chans.entry(dst).or_default().holdback.take()
        };
        if let Some((held_logical, held)) = stashed {
            self.deliver(src, dst, &held, held_logical)?;
        }
        Ok(())
    }

    fn collect(&self, dst: NodeId) -> PcResult<Vec<SealedPage>> {
        // Flush any stash that never saw a follow-up send.
        let stashed = {
            let mut chans = sync::lock(&self.chans);
            chans.entry(dst).or_default().holdback.take()
        };
        if let Some((held_logical, held)) = stashed {
            self.check_alive(MASTER, dst)?;
            self.deliver(MASTER, dst, &held, held_logical)?;
        }
        let inner_order = self.inner.collect(dst)?;
        let perm = {
            let mut chans = sync::lock(&self.chans);
            chans.remove(&dst).unwrap_or_default().perm
        };
        if perm.len() != inner_order.len() {
            return Err(PcError::Transport(format!(
                "collect({}): {} pages delivered, {} sent",
                node_name(dst),
                inner_order.len(),
                perm.len()
            )));
        }
        // Un-permute: inner order → logical send order.
        let mut out: Vec<(usize, SealedPage)> = perm.into_iter().zip(inner_order).collect();
        out.sort_unstable_by_key(|(logical, _)| *logical);
        Ok(out.into_iter().map(|(_, page)| page).collect())
    }

    fn reset(&self) {
        sync::lock(&self.chans).clear();
        self.inner.reset();
    }

    fn revive(&self, w: NodeId) {
        sync::lock(&self.dead).remove(&w);
        self.inner.revive(w);
    }

    fn suspects(&self) -> Vec<NodeId> {
        self.inner.suspects()
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::testutil::{page, tag_of};
    use crate::transport::{TcpConfig, TransportMeter};
    use std::sync::Arc;

    #[test]
    fn faulty_reorder_is_invisible_after_collect() {
        let meter = Arc::new(TransportMeter::default());
        let t = FaultyTransport::new(
            TcpTransport::new(meter, TcpConfig::default(), 3).unwrap(),
            FaultSpec {
                rate: 256, // reorder every send
                ..FaultSpec::seeded(7, &[FaultKind::Reorder])
            },
        );
        t.arm();
        for i in 0..7 {
            t.send(MASTER, 0, &page(i)).unwrap();
        }
        let got = t.collect(0).unwrap();
        assert_eq!(got.len(), 7);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(tag_of(p), i as i64, "order must be restored");
        }
    }

    #[test]
    fn faulty_drops_meter_retransmission_not_shuffle() {
        let meter = Arc::new(TransportMeter::default());
        let t = FaultyTransport::new(
            TcpTransport::new(meter.clone(), TcpConfig::default(), 3).unwrap(),
            FaultSpec {
                rate: 256,
                ..FaultSpec::seeded(11, &[FaultKind::Drop])
            },
        );
        t.arm();
        for i in 0..4 {
            t.send(MASTER, 1, &page(i)).unwrap();
        }
        let got = t.collect(1).unwrap();
        assert_eq!(got.len(), 4, "every page still arrives exactly once");
        assert_eq!(meter.pages_shuffled(), 4);
        assert!(meter.sends_failed() > 0, "drops were injected");
        assert!(meter.bytes_retransmitted() > 0);
    }

    #[test]
    fn worker_death_fails_sends_until_revived() {
        let meter = Arc::new(TransportMeter::default());
        let t = FaultyTransport::new(
            TcpTransport::new(meter, TcpConfig::default(), 3).unwrap(),
            FaultSpec {
                death_at: Some(2),
                victim: Some(1),
                ..FaultSpec::seeded(3, &[FaultKind::WorkerDeath])
            },
        );
        t.arm();
        t.send(MASTER, 1, &page(0)).unwrap();
        t.send(MASTER, 1, &page(1)).unwrap();
        assert_eq!(
            t.send(MASTER, 1, &page(2)),
            Err(PcError::WorkerDead(1)),
            "sends to the dead worker must fail"
        );
        assert_eq!(t.send(MASTER, 0, &page(3)), Ok(()), "other links stay up");
        t.reset();
        t.revive(1);
        t.send(MASTER, 1, &page(4)).unwrap();
        let got = t.collect(1).unwrap();
        assert_eq!(got.len(), 1, "reset discarded the aborted deliveries");
        assert_eq!(tag_of(&got[0]), 4);
    }
}
