//! Traffic metering shared by the cluster handle and every transport layer.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cluster-wide traffic counters, shared by the cluster handle and every
/// transport layer. Logical traffic (`bytes_shuffled`/`pages_shuffled`)
/// counts each delivered page once; wire-level waste goes to
/// `bytes_retransmitted`/`sends_failed`.
#[derive(Debug, Default)]
pub struct TransportMeter {
    bytes_shuffled: AtomicU64,
    pages_shuffled: AtomicU64,
    bytes_retransmitted: AtomicU64,
    sends_failed: AtomicU64,
    heartbeats_missed: AtomicU64,
    reconnects: AtomicU64,
}

/// A point-in-time snapshot of the logical counters, used to roll back an
/// aborted stage attempt.
#[derive(Debug, Clone, Copy)]
pub struct MeterCheckpoint {
    bytes: u64,
    pages: u64,
}

impl TransportMeter {
    /// One logical page delivered.
    pub fn on_delivered(&self, bytes: usize) {
        self.bytes_shuffled
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.pages_shuffled.fetch_add(1, Ordering::Relaxed);
    }

    /// One wire-level attempt failed and will be retried (or replayed).
    pub fn on_failed_attempt(&self, bytes: usize) {
        self.bytes_retransmitted
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.sends_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the logical counters before a stage attempt.
    pub fn checkpoint(&self) -> MeterCheckpoint {
        MeterCheckpoint {
            bytes: self.bytes_shuffled.load(Ordering::Relaxed),
            pages: self.pages_shuffled.load(Ordering::Relaxed),
        }
    }

    /// Reclassify everything delivered since `at` as retransmission: the
    /// stage attempt aborted, so its deliveries were wasted wire work, not
    /// logical shuffle traffic (the replay will re-deliver them).
    pub fn rollback(&self, at: MeterCheckpoint) {
        let wasted_bytes = self.bytes_shuffled.load(Ordering::Relaxed) - at.bytes;
        let wasted_pages = self.pages_shuffled.load(Ordering::Relaxed) - at.pages;
        self.bytes_shuffled.store(at.bytes, Ordering::Relaxed);
        self.pages_shuffled.store(at.pages, Ordering::Relaxed);
        self.bytes_retransmitted
            .fetch_add(wasted_bytes, Ordering::Relaxed);
        self.sends_failed.fetch_add(wasted_pages, Ordering::Relaxed);
    }

    /// Logical bytes delivered.
    pub fn bytes_shuffled(&self) -> u64 {
        self.bytes_shuffled.load(Ordering::Relaxed)
    }

    /// Logical pages delivered.
    pub fn pages_shuffled(&self) -> u64 {
        self.pages_shuffled.load(Ordering::Relaxed)
    }

    /// Wire bytes wasted on dropped attempts and aborted stage deliveries.
    pub fn bytes_retransmitted(&self) -> u64 {
        self.bytes_retransmitted.load(Ordering::Relaxed)
    }

    /// Wire-level send attempts that did not result in a logical delivery.
    pub fn sends_failed(&self) -> u64 {
        self.sends_failed.load(Ordering::Relaxed)
    }

    /// One heartbeat interval passed without a beat from a live worker.
    pub fn on_heartbeat_missed(&self) {
        self.heartbeats_missed.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection re-established after a failure (with backoff).
    pub fn on_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Heartbeat intervals that elapsed with no beat from a worker.
    ///
    /// Liveness counters are wire-level facts, not logical traffic: a
    /// [`rollback`](Self::rollback) reclassifies deliveries but never
    /// touches these (the beats really were missed, the links really were
    /// re-dialed, regardless of how the stage attempt ended).
    pub fn heartbeats_missed(&self) -> u64 {
        self.heartbeats_missed.load(Ordering::Relaxed)
    }

    /// Connections re-established after a failure. Monotone across
    /// checkpoint/rollback, like [`heartbeats_missed`](Self::heartbeats_missed).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::testutil::page;
    use crate::transport::{LocalTransport, Transport, MASTER};
    use std::sync::Arc;

    #[test]
    fn meter_rollback_reclassifies_aborted_deliveries() {
        let meter = Arc::new(TransportMeter::default());
        let t = LocalTransport::new(meter.clone());
        t.send(MASTER, 0, &page(0)).unwrap();
        let snap = meter.checkpoint();
        t.send(MASTER, 0, &page(1)).unwrap();
        t.send(MASTER, 0, &page(2)).unwrap();
        let before = meter.bytes_shuffled();
        meter.rollback(snap);
        assert_eq!(meter.pages_shuffled(), 1);
        assert_eq!(meter.sends_failed(), 2);
        assert_eq!(
            meter.bytes_shuffled() + meter.bytes_retransmitted(),
            before,
            "rollback moves bytes, it never loses them"
        );
    }

    #[test]
    fn meter_rollback_never_touches_liveness_counters() {
        // Missed beats and re-dialed links are wire-level facts: they
        // happened no matter how the stage attempt ended, so checkpoint /
        // rollback must leave them monotone.
        let meter = Arc::new(TransportMeter::default());
        let t = LocalTransport::new(meter.clone());
        meter.on_heartbeat_missed();
        meter.on_reconnect();
        let snap = meter.checkpoint();
        t.send(MASTER, 0, &page(0)).unwrap();
        meter.on_heartbeat_missed();
        meter.on_heartbeat_missed();
        meter.on_reconnect();
        meter.rollback(snap);
        assert_eq!(meter.pages_shuffled(), 0, "delivery was rolled back");
        assert_eq!(
            meter.heartbeats_missed(),
            3,
            "missed beats survive rollback"
        );
        assert_eq!(meter.reconnects(), 2, "reconnects survive rollback");
    }
}
