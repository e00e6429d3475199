//! The synchronous in-process hand-over, by reference.

use super::inbox::Inbox;
use super::{NodeId, Transport, TransportMeter};
use pc_object::{PcResult, SealedPage};
use std::sync::Arc;

/// The synchronous in-process transport (the original simulated network):
/// `send` hands the destination another reference to the sender's sealed
/// buffer — no byte is copied and no header is re-read, because a sealed
/// page is immutable and this process wrote and checked it — and meters the
/// page's `used()` bytes as if they had crossed a wire.
pub struct LocalTransport {
    meter: Arc<TransportMeter>,
    inbox: Inbox,
}

impl LocalTransport {
    /// A local transport metering into `meter`.
    pub fn new(meter: Arc<TransportMeter>) -> Self {
        LocalTransport {
            meter,
            inbox: Inbox::new(),
        }
    }
}

impl Transport for LocalTransport {
    fn send(&self, _src: NodeId, dst: NodeId, page: &SealedPage) -> PcResult<()> {
        let seq = self.inbox.register_send(dst);
        self.meter.on_delivered(page.used());
        self.inbox.deliver(dst, seq, page.clone());
        Ok(())
    }

    fn collect(&self, dst: NodeId) -> PcResult<Vec<SealedPage>> {
        self.inbox.collect(dst, None, None)
    }

    fn reset(&self) {
        self.inbox.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::testutil::{page, tag_of};
    use crate::transport::MASTER;

    #[test]
    fn local_transport_delivers_in_order_and_meters() {
        let meter = Arc::new(TransportMeter::default());
        let t = LocalTransport::new(meter.clone());
        let sent: Vec<SealedPage> = (0..3).map(page).collect();
        let addrs: Vec<*const u8> = sent.iter().map(|p| p.payload().as_ptr()).collect();
        let used: usize = sent.iter().map(SealedPage::used).sum();
        for p in &sent {
            t.send(MASTER, 1, p).unwrap();
        }
        drop(sent);
        let first = t.collect(1).unwrap();
        assert_eq!(first.len(), 3);
        for (i, p) in first.iter().enumerate() {
            assert_eq!(p.payload().as_ptr(), addrs[i], "page {i} was copied");
            // The sender's page is gone; the delivered one keeps the bytes.
            assert_eq!(tag_of(p), i as i64);
        }
        assert_eq!(meter.pages_shuffled(), 3);
        assert_eq!(meter.bytes_shuffled(), used as u64);
        assert_eq!(meter.bytes_retransmitted(), 0);

        // A second round hands over only the new pages, in order, once.
        for i in 3..5 {
            t.send(MASTER, 1, &page(i)).unwrap();
        }
        let tags: Vec<i64> = t.collect(1).unwrap().iter().map(tag_of).collect();
        assert_eq!(tags, vec![3, 4]);
        assert!(t.collect(1).unwrap().is_empty());
        assert_eq!(meter.pages_shuffled(), 5);
    }
}
