//! The transport boundary: every byte that crosses between nodes goes
//! through a [`Transport`].
//!
//! The trait contract (relied on by the chaos suite and the transport
//! property tests):
//!
//! * **Exactly-once** — each page passed to [`Transport::send`] is handed
//!   out by [`Transport::collect`] exactly once, even when the wire drops
//!   or duplicates attempts underneath.
//! * **Order-restored** — `collect(dst)` returns pages in the order they
//!   were sent to `dst`, even when frames were chunked, interleaved, or
//!   reordered in flight. Deterministic stages + ordered delivery is what
//!   makes replay-based recovery byte-identical.
//! * **Metered** — logical traffic is counted once in the shared
//!   [`TransportMeter`]; wire-level waste (dropped attempts, aborted stage
//!   deliveries) is counted separately as retransmission, so a lossy run
//!   reports the same `bytes_shuffled` as a clean one.
//!
//! Three implementations:
//!
//! * [`LocalTransport`] — the synchronous in-process hand-over (the
//!   default): the receiver gets the sender's immutable sealed buffer by
//!   reference, with no copy. It is the reference every wire run is
//!   compared to byte for byte.
//! * [`TcpTransport`] — the wire: sealed pages chunked into CRC-checksummed
//!   frames ([`crate::wire`]) over real `std::net` TCP sockets — one
//!   listener and acceptor thread per node, one blocking reader thread per
//!   inbound connection decoding frames and reassembling pages, collects
//!   carrying a deadline, continuous worker heartbeats feeding a
//!   master-side liveness monitor, and crash-restart reconnection with
//!   bounded, jittered exponential backoff.
//! * [`FaultyTransport`] — a decorator over [`TcpTransport`] that injects
//!   drops, delays, reorders, payload corruption, and whole-worker deaths
//!   from a reproducible seed-driven schedule. It drives the wire through
//!   the socket transport's own fault hooks ([`TcpTransport::kill`],
//!   [`TcpTransport::send_corrupted`]), which is why those are not on the
//!   trait.
//!
//! Wire failures never panic and never surface garbage pages: checksum
//! rejects, truncated frames, and incomplete reassembly all become typed
//! [`PcError::Transport`](pc_object::PcError::Transport) errors at collect
//! time, which the recovery layer answers with a stage replay.

mod faulty;
mod inbox;
mod local;
mod meter;
mod tcp;

pub use faulty::{FaultKind, FaultSpec, FaultyTransport};
pub use local::LocalTransport;
pub use meter::{MeterCheckpoint, TransportMeter};
pub use tcp::{TcpConfig, TcpTransport};

use pc_object::{PcResult, SealedPage};
use std::sync::Arc;

/// A node address: worker index, or [`MASTER`].
pub type NodeId = usize;

/// The master node's address (gather point for broadcasts).
pub const MASTER: NodeId = usize::MAX;

fn node_name(n: NodeId) -> String {
    if n == MASTER {
        "master".to_string()
    } else {
        format!("worker {n}")
    }
}

/// The single boundary for inter-node page movement. See the module docs
/// for the delivery contract.
pub trait Transport: Send + Sync {
    /// Queue one sealed page from `src` for delivery to `dst`'s inbox.
    /// May return before the page has arrived (the socket transport overlaps
    /// delivery with the caller's next work).
    fn send(&self, src: NodeId, dst: NodeId, page: &SealedPage) -> PcResult<()>;

    /// Barrier: wait until every page queued for `dst` since the last
    /// collect has arrived, then hand them over in send order, exactly
    /// once.
    fn collect(&self, dst: NodeId) -> PcResult<Vec<SealedPage>>;

    /// Discard all in-flight and delivered-but-uncollected state — called
    /// by recovery before replaying a failed stage, so stale frames from
    /// the aborted attempt can never leak into the replay.
    fn reset(&self);

    /// Clear fault state for worker `w`: its backend restarted. Recovery
    /// calls it on every transport; a no-op where nothing can die.
    fn revive(&self, _w: NodeId) {}

    /// Enable fault injection (no-op for reliable transports). The cluster
    /// arms the transport for the duration of a job, so data loading stays
    /// clean and schedules are reproducible per job.
    fn arm(&self) {}

    /// Disable fault injection.
    fn disarm(&self) {}

    /// Workers the failure detector currently suspects (missed-heartbeat
    /// count at or past the threshold). Empty for transports without
    /// heartbeats.
    fn suspects(&self) -> Vec<NodeId> {
        Vec::new()
    }
}

/// Declarative transport selection, carried by `ClusterConfig` so tests,
/// `repro faults`, and the chaos CI matrix can describe a transport stack
/// without touching construction code.
#[derive(Debug, Clone, Default)]
pub enum TransportKind {
    /// The synchronous in-process hand-over, by reference.
    #[default]
    Local,
    /// Real loopback TCP sockets with heartbeat liveness and backoff
    /// reconnection.
    Tcp(TcpConfig),
    /// Fault injection decorating the TCP transport.
    Faulty {
        /// The socket transport actually moving bytes underneath.
        tcp: TcpConfig,
        /// The seed-driven schedule.
        spec: FaultSpec,
    },
}

impl TransportKind {
    /// Builds the transport stack, metering into `meter`, for a cluster of
    /// `workers` nodes.
    pub fn build(
        &self,
        meter: Arc<TransportMeter>,
        workers: usize,
    ) -> PcResult<Arc<dyn Transport>> {
        Ok(match self {
            TransportKind::Local => Arc::new(LocalTransport::new(meter)),
            TransportKind::Tcp(cfg) => Arc::new(TcpTransport::new(meter, cfg.clone(), workers)?),
            TransportKind::Faulty { tcp, spec } => Arc::new(FaultyTransport::new(
                TcpTransport::new(meter, tcp.clone(), workers)?,
                spec.clone(),
            )),
        })
    }
}

/// Pages and page contents for the unit tests of every transport module.
#[cfg(test)]
mod testutil {
    use pc_lambda::SetWriter;
    use pc_object::{make_object, PcVec, SealedPage};

    pub(super) fn page(tag: i64) -> SealedPage {
        let mut w = SetWriter::new(1 << 14);
        w.write_with(|| {
            let v = make_object::<PcVec<i64>>()?;
            for i in 0..32 {
                v.push(tag * 100 + i)?;
            }
            Ok(v.erase())
        })
        .unwrap();
        w.finish().unwrap().into_iter().next().unwrap()
    }

    pub(super) fn tag_of(p: &SealedPage) -> i64 {
        let (_b, root) = p.open_view().unwrap();
        let objs = root
            .downcast::<PcVec<pc_object::Handle<pc_object::AnyObj>>>()
            .unwrap();
        let first = objs.iter().next().unwrap().erase();
        first.downcast::<PcVec<i64>>().unwrap().get(0) / 100
    }
}
