//! The synchronous in-process byte copy.

use super::inbox::Inbox;
use super::{NodeId, Transport, TransportMeter};
use pc_object::{PcResult, SealedPage};
use std::sync::Arc;

/// The synchronous in-process byte copy (the original simulated network):
/// `send` serializes, revalidates, and delivers in one step.
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
        // Two copies where one would do, on purpose: sending from
        // `payload()` directly measured 13 % slower on a one-worker join →
        // aggregation (the transient `Vec` changes how glibc's heap grows
        // and trims around the 1 MiB page buffers; see DESIGN.md).
        let bytes = page.to_bytes();
        let seq = self.inbox.register_send(dst);
        let arrived = SealedPage::from_bytes(&bytes)?;
        self.meter.on_delivered(bytes.len());
        self.inbox.deliver(dst, seq, arrived);
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
        for i in 0..5 {
            t.send(MASTER, 1, &page(i)).unwrap();
        }
        let got = t.collect(1).unwrap();
        assert_eq!(got.len(), 5);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(tag_of(p), i as i64);
        }
        assert_eq!(meter.pages_shuffled(), 5);
        assert!(meter.bytes_shuffled() > 0);
        assert_eq!(meter.bytes_retransmitted(), 0);
    }
}
