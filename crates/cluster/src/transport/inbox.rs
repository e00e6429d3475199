//! Delivery state and page reassembly shared by the transports: the
//! per-destination [`Inbox`] pages are delivered into, the helpers that
//! encode a page as data frames (and corrupt one of them), and the
//! [`Reassembler`] that rebuilds pages from a connection's frames.

use super::{node_name, NodeId, TransportMeter};
use crate::wire::{self, WireFrame};
use pc_object::hash::mix;
use pc_object::{sync, PageWriter, PcError, PcResult, SealedPage};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-destination delivery state shared by the reliable transports: a
/// seq-ordered map of delivered pages plus the count of logical sends
/// expected since the last collect. `BTreeMap` keyed by seq gives both
/// order restoration and exactly-once (a duplicate delivery of a seq
/// overwrites instead of duplicating).
#[derive(Default)]
struct InboxState {
    delivered: HashMap<NodeId, BTreeMap<u64, SealedPage>>,
    expected: HashMap<NodeId, u64>,
    next_seq: HashMap<NodeId, u64>,
    /// Destinations whose delivery stream is known-broken (reassembly
    /// inconsistency, torn page, framing corruption): collect surfaces the
    /// stored reason as a typed error instead of stalling to its deadline.
    failed: HashMap<NodeId, String>,
}

pub(super) struct Inbox {
    state: Mutex<InboxState>,
    arrived: Condvar,
}

impl Inbox {
    pub(super) fn new() -> Self {
        Inbox {
            state: Mutex::new(InboxState::default()),
            arrived: Condvar::new(),
        }
    }

    /// Register one logical send to `dst`; returns its sequence number.
    pub(super) fn register_send(&self, dst: NodeId) -> u64 {
        let mut s = sync::lock(&self.state);
        let seq = s.next_seq.entry(dst).or_insert(0);
        let n = *seq;
        *seq += 1;
        *s.expected.entry(dst).or_insert(0) += 1;
        n
    }

    /// Deliver a reassembled page.
    pub(super) fn deliver(&self, dst: NodeId, seq: u64, page: SealedPage) {
        let mut s = sync::lock(&self.state);
        s.delivered.entry(dst).or_default().insert(seq, page);
        self.arrived.notify_all();
    }

    /// Poison `dst`'s delivery stream: the pending (and the next) collect
    /// fails immediately with a typed transport error instead of waiting
    /// out its deadline. This is how wire-level damage — a failed checksum
    /// with no retransmission, a truncated connection, an inconsistent
    /// reassembly map — surfaces to the recovery layer.
    pub(super) fn fail(&self, dst: NodeId, why: String) {
        let mut s = sync::lock(&self.state);
        s.failed.entry(dst).or_insert(why);
        self.arrived.notify_all();
    }

    /// Wait for every expected page, then drain them in seq order.
    /// `interrupt` (the heartbeat failure detector) is re-checked on every
    /// wakeup and preempts the deadline with its own typed error.
    pub(super) fn collect(
        &self,
        dst: NodeId,
        deadline: Option<Duration>,
        interrupt: Option<&dyn Fn() -> Option<PcError>>,
    ) -> PcResult<Vec<SealedPage>> {
        let start = Instant::now();
        let mut s = sync::lock(&self.state);
        loop {
            if let Some(why) = s.failed.remove(&dst) {
                return Err(PcError::Transport(format!(
                    "collect({}): delivery stream broken: {why}",
                    node_name(dst)
                )));
            }
            if let Some(e) = interrupt.and_then(|probe| probe()) {
                return Err(e);
            }
            let want = s.expected.get(&dst).copied().unwrap_or(0);
            let got = s.delivered.get(&dst).map(|m| m.len() as u64).unwrap_or(0);
            if got >= want {
                break;
            }
            match deadline {
                None => {
                    return Err(PcError::Transport(format!(
                        "collect({}) missing {} of {} pages on a synchronous transport",
                        node_name(dst),
                        want - got,
                        want
                    )))
                }
                Some(d) => {
                    let left = d.checked_sub(start.elapsed()).ok_or_else(|| {
                        PcError::Transport(format!(
                            "collect({}) deadline exceeded: {} of {} pages delivered after {:?}",
                            node_name(dst),
                            got,
                            want,
                            d
                        ))
                    })?;
                    // With a failure detector watching, wake periodically to
                    // re-probe it rather than sleeping the whole deadline.
                    let nap = if interrupt.is_some() {
                        left.min(Duration::from_millis(5))
                    } else {
                        left
                    };
                    s = sync::wait_timeout(&self.arrived, s, nap);
                }
            }
        }
        s.expected.remove(&dst);
        s.next_seq.remove(&dst);
        let pages = s.delivered.remove(&dst).unwrap_or_default();
        Ok(pages.into_values().collect())
    }

    pub(super) fn reset(&self) {
        let mut s = sync::lock(&self.state);
        *s = InboxState::default();
        self.arrived.notify_all();
    }
}

/// Appends a page's bytes to `out` as encoded, checksummed data frames of
/// `chunk_bytes` payload each: every page byte is copied once, straight from
/// the page into `out`.
pub(super) fn encode_page_frames(
    out: &mut Vec<u8>,
    epoch: u64,
    src: NodeId,
    dst: NodeId,
    seq: u64,
    bytes: &[u8],
    chunk_bytes: usize,
) {
    let chunk_bytes = chunk_bytes.max(1);
    let total = bytes.len().div_ceil(chunk_bytes);
    out.reserve(bytes.len() + total * wire::frame_len(0));
    for (idx, c) in bytes.chunks(chunk_bytes).enumerate() {
        WireFrame::data(
            epoch,
            src as u64,
            dst as u64,
            seq,
            idx as u32,
            total as u32,
            c,
        )
        .encode_into(out);
    }
}

/// Flips one seed-chosen bit in one seed-chosen frame of the frames
/// [`encode_page_frames`] wrote into `out` for a `len`-byte page; with
/// `retransmit` a clean copy of that frame follows the mangled one.
pub(super) fn corrupt_one_frame(
    out: &mut Vec<u8>,
    len: usize,
    chunk_bytes: usize,
    seed: u64,
    retransmit: bool,
) {
    let chunk = chunk_bytes.max(1);
    let total = len.div_ceil(chunk);
    let victim = (mix(seed, total as u64, 0xC0F) as usize) % total;
    // Every frame before the victim carries a full chunk.
    let start = victim * wire::frame_len(chunk);
    let end = start + wire::frame_len(chunk.min(len - victim * chunk));
    let clean = out[start..end].to_vec();
    wire::flip_payload_bit(&mut out[start..end], seed);
    if retransmit {
        out.splice(end..end, clean);
    }
}

/// Chunk reassembly for one inbound TCP connection: appends data frames per
/// (dst, seq) into the page they rebuild, validates completed pages, and
/// delivers them — or poisons the destination's inbox with a typed
/// [`PcError::Transport`] when the frame map is inconsistent or the page is
/// torn. One per connection is enough: a page's frames all travel on one
/// connection, in order, and a redial resends every frame of the page. The
/// receive side never panics; recovery answers the failed collect with a
/// stage replay.
pub(super) struct Reassembler {
    partial: HashMap<(NodeId, u64), PartialPage>,
}

/// A page whose chunks are still arriving.
struct PartialPage {
    /// The epoch its first chunk arrived under.
    epoch: u64,
    /// Its chunk count, as every one of its frames must state.
    total: u32,
    /// Chunks `0..next` are in `page`, in order.
    next: u32,
    /// The page being rebuilt, sized `total` × chunk 0's length when chunk
    /// 0 arrives: every chunk but the last is that long, so each chunk is
    /// copied exactly once, straight to its place.
    page: Option<PageWriter>,
    /// Chunks that arrived ahead of `next` — those behind a checksum-rejected
    /// frame — held until a retransmit fills the gap, or scrapped with the
    /// page.
    ahead: BTreeMap<u32, Vec<u8>>,
}

impl PartialPage {
    /// Bytes received for this page so far.
    fn held(&self) -> usize {
        self.page.as_ref().map_or(0, PageWriter::filled)
            + self.ahead.values().map(Vec::len).sum::<usize>()
    }

    /// Appends chunk `next` and every held chunk that follows it.
    fn append(&mut self, chunk: &[u8]) -> PcResult<()> {
        let page = match &mut self.page {
            Some(page) => page,
            None => self.page.insert(PageWriter::with_capacity(
                chunk.len().saturating_mul(self.total as usize),
            )?),
        };
        page.append(chunk)?;
        self.next += 1;
        while let Some(held) = self.ahead.remove(&self.next) {
            page.append(&held)?;
            self.next += 1;
        }
        Ok(())
    }
}

impl Reassembler {
    pub(super) fn new() -> Self {
        Reassembler {
            partial: HashMap::new(),
        }
    }

    /// Drops partial pages left over from aborted-stage epochs.
    pub(super) fn retain_epoch(&mut self, now: u64) {
        self.partial.retain(|_, p| p.epoch == now);
    }

    /// The connection is gone: whatever it left half-assembled was wire
    /// waste (the sender's redial, or the stage replay, sends the whole
    /// page again).
    pub(super) fn scrap(self, meter: &TransportMeter) {
        for p in self.partial.into_values() {
            meter.on_failed_attempt(p.held());
        }
    }

    pub(super) fn accept<P: AsRef<[u8]>>(
        &mut self,
        frame: WireFrame<P>,
        meter: &TransportMeter,
        inbox: &Inbox,
    ) {
        let dst = frame.dst as usize;
        let seq = frame.seq;
        let total = frame.total;
        let payload = frame.payload.as_ref();
        // A replay reuses sequence numbers from zero, so a partial page
        // left over from an aborted epoch must not absorb this epoch's
        // chunks: scrap it (its bytes were waste) and start clean.
        if let Some(stale) = self.partial.get(&(dst, seq)) {
            if stale.epoch != frame.epoch {
                meter.on_failed_attempt(stale.held());
                self.partial.remove(&(dst, seq));
            }
        }
        let entry = self
            .partial
            .entry((dst, seq))
            .or_insert_with(|| PartialPage {
                epoch: frame.epoch,
                total,
                next: 0,
                page: None,
                ahead: BTreeMap::new(),
            });
        if entry.total != total {
            // Two checksum-valid frames of one page disagree about its
            // shape: the stream is damaged beyond what per-frame CRCs can
            // localize. Poison the destination instead of guessing.
            let slots = entry.total;
            meter.on_failed_attempt(entry.held() + payload.len());
            self.partial.remove(&(dst, seq));
            inbox.fail(
                dst,
                format!("page {seq}: inconsistent chunk map ({slots} slots vs total {total})"),
            );
            return;
        }
        let appended = match frame.idx.cmp(&entry.next) {
            // A resent chunk already in place: its bytes are the same.
            std::cmp::Ordering::Less => Ok(()),
            std::cmp::Ordering::Equal => entry.append(payload),
            std::cmp::Ordering::Greater => {
                entry.ahead.insert(frame.idx, payload.to_vec());
                Ok(())
            }
        };
        if let Err(e) = appended {
            // A chunk longer than chunk 0, or a page past the size limit:
            // the chunks cannot form the page the sender split.
            meter.on_failed_attempt(entry.held() + payload.len());
            self.partial.remove(&(dst, seq));
            inbox.fail(dst, format!("page {seq}: inconsistent chunk sizes: {e}"));
            return;
        }
        if entry.next < total {
            return;
        }
        // Defensive extraction: a map inconsistency here becomes a typed
        // transport error on the destination, never a panic in the reader.
        let Some(page) = self.partial.remove(&(dst, seq)).and_then(|p| p.page) else {
            inbox.fail(dst, format!("page {seq}: reassembly entry vanished"));
            return;
        };
        let len = page.filled();
        match page.seal() {
            Ok(page) => {
                meter.on_delivered(len);
                inbox.deliver(dst, seq, page);
            }
            Err(e) => {
                // A torn page never reaches the inbox.
                meter.on_failed_attempt(len);
                inbox.fail(dst, format!("page {seq} reassembled torn: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::testutil::page;

    /// `page`'s bytes as data frames for `(dst, seq)` under `epoch`.
    fn data_frames(epoch: u64, dst: NodeId, seq: u64, page: &SealedPage) -> Vec<WireFrame> {
        let bytes = page.to_bytes();
        let chunks: Vec<&[u8]> = bytes.chunks(64).collect();
        assert!(chunks.len() >= 2, "the tests need a multi-frame page");
        let total = chunks.len() as u32;
        chunks
            .iter()
            .enumerate()
            .map(|(idx, c)| {
                WireFrame::data(epoch, 0, dst as u64, seq, idx as u32, total, c.to_vec())
            })
            .collect()
    }

    #[test]
    fn reassembler_scraps_a_dead_epoch_partial_when_its_seq_is_reused() {
        let meter = TransportMeter::default();
        let inbox = Inbox::new();
        let mut reasm = Reassembler::new();
        // An aborted attempt leaves one chunk of page 0 behind ...
        let stale = data_frames(5, 1, 0, &page(0)).remove(0);
        let stale_len = stale.payload.len() as u64;
        reasm.accept(stale, &meter, &inbox);
        // ... and the replay reuses (dst 1, seq 0) for a different page.
        let replayed = page(9);
        let seq = inbox.register_send(1);
        for f in data_frames(6, 1, seq, &replayed) {
            reasm.accept(f, &meter, &inbox);
        }
        assert_eq!(meter.sends_failed(), 1, "the stale partial is waste");
        assert_eq!(meter.bytes_retransmitted(), stale_len);
        let got = inbox.collect(1, None, None).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0].to_bytes(),
            replayed.to_bytes(),
            "no stale chunk leaked into the replayed page"
        );
        assert_eq!(meter.pages_shuffled(), 1);
        assert!(reasm.partial.is_empty());
    }

    #[test]
    fn reassembler_poisons_dst_when_frames_disagree_on_total() {
        let meter = TransportMeter::default();
        let inbox = Inbox::new();
        let mut reasm = Reassembler::new();
        inbox.register_send(2);
        reasm.accept(
            WireFrame::data(0, 0, 2, 0, 0, 3, vec![1; 8]),
            &meter,
            &inbox,
        );
        reasm.accept(
            WireFrame::data(0, 0, 2, 0, 1, 4, vec![2; 8]),
            &meter,
            &inbox,
        );
        match inbox.collect(2, None, None) {
            Err(PcError::Transport(why)) => {
                assert!(why.contains("inconsistent chunk map"), "{why}")
            }
            other => panic!("expected a typed transport error, got {other:?}"),
        }
        assert_eq!(meter.pages_shuffled(), 0, "nothing was delivered");
        assert_eq!(meter.bytes_retransmitted(), 16, "both frames were waste");
        assert!(reasm.partial.is_empty(), "the damaged page is forgotten");
    }

    /// A page's frames encoded one `Vec` per chunk, each chunk copied out
    /// first: the frame stream `encode_page_frames` must reproduce.
    fn frames_one_by_one(seq: u64, bytes: &[u8], chunk: usize) -> Vec<Vec<u8>> {
        let chunks: Vec<&[u8]> = bytes.chunks(chunk).collect();
        let total = chunks.len() as u32;
        chunks
            .iter()
            .enumerate()
            .map(|(idx, c)| WireFrame::data(3, 1, 2, seq, idx as u32, total, c.to_vec()).encode())
            .collect()
    }

    #[test]
    fn a_page_encodes_to_the_same_frame_bytes_in_one_buffer() {
        let p = page(4);
        let bytes = p.payload();
        for chunk in [1, 7, 64, 4 << 10, bytes.len(), bytes.len() + 1] {
            let mut out = vec![0xEE; 5]; // appends after what is there
            encode_page_frames(&mut out, 3, 1, 2, 9, bytes, chunk);
            let want = frames_one_by_one(9, bytes, chunk);
            assert_eq!(&out[..5], &[0xEE; 5]);
            assert_eq!(
                out[5..],
                want.concat(),
                "chunk {chunk}: frame bytes changed"
            );
        }
    }

    #[test]
    fn corrupting_in_the_buffer_matches_corrupting_a_frame_list() {
        // The chaos suite's byte streams depend on which frame is mangled
        // and which bit flips: the in-buffer surgery must pick the same.
        let p = page(6);
        let bytes = p.payload();
        for chunk in [64, 300, bytes.len()] {
            for seed in 0..40u64 {
                for retransmit in [false, true] {
                    let mut frames = frames_one_by_one(0, bytes, chunk);
                    let victim = (mix(seed, frames.len() as u64, 0xC0F) as usize) % frames.len();
                    let clean = frames[victim].clone();
                    wire::flip_payload_bit(&mut frames[victim], seed);
                    if retransmit {
                        frames.insert(victim + 1, clean);
                    }
                    let mut out = Vec::new();
                    encode_page_frames(&mut out, 3, 1, 2, 0, bytes, chunk);
                    corrupt_one_frame(&mut out, bytes.len(), chunk, seed, retransmit);
                    assert_eq!(out, frames.concat(), "chunk {chunk} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn reassembler_takes_chunks_in_any_order_and_skips_resent_ones() {
        let meter = TransportMeter::default();
        let inbox = Inbox::new();
        let mut reasm = Reassembler::new();
        let p = page(5);
        let seq = inbox.register_send(1);
        let frames = data_frames(0, 1, seq, &p);
        let n = frames.len();
        assert!(n >= 4, "the test needs at least four chunks");
        // Chunk 1 ahead of chunk 0, chunk 0 twice, then the rest backwards.
        let order = [1, 0, 0].into_iter().chain((2..n).rev());
        for i in order {
            reasm.accept(frames[i].clone(), &meter, &inbox);
        }
        let got = inbox.collect(1, None, None).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].to_bytes(), p.to_bytes());
        assert_eq!(meter.pages_shuffled(), 1);
        assert_eq!(meter.bytes_shuffled(), p.used() as u64);
        assert_eq!(meter.bytes_retransmitted(), 0);
        assert!(reasm.partial.is_empty());
    }

    #[test]
    fn reassembler_poisons_dst_when_a_chunk_outgrows_chunk_zero() {
        // The page is sized total × chunk 0's length; a longer later chunk
        // cannot be part of the page the sender split.
        let meter = TransportMeter::default();
        let inbox = Inbox::new();
        let mut reasm = Reassembler::new();
        inbox.register_send(2);
        reasm.accept(
            WireFrame::data(0, 0, 2, 0, 0, 3, vec![1; 8]),
            &meter,
            &inbox,
        );
        reasm.accept(
            WireFrame::data(0, 0, 2, 0, 1, 3, vec![2; 20]),
            &meter,
            &inbox,
        );
        match inbox.collect(2, None, None) {
            Err(PcError::Transport(why)) => {
                assert!(why.contains("inconsistent chunk sizes"), "{why}")
            }
            other => panic!("expected a typed transport error, got {other:?}"),
        }
        assert_eq!(meter.bytes_retransmitted(), 28, "both chunks were waste");
        assert_eq!(meter.pages_shuffled(), 0);
        assert!(reasm.partial.is_empty());
    }

    #[test]
    fn retain_epoch_drops_dead_epoch_partials() {
        let meter = TransportMeter::default();
        let inbox = Inbox::new();
        let mut reasm = Reassembler::new();
        reasm.accept(data_frames(1, 0, 0, &page(0)).remove(0), &meter, &inbox);
        reasm.accept(data_frames(2, 1, 0, &page(1)).remove(0), &meter, &inbox);
        reasm.retain_epoch(2);
        let live: Vec<_> = reasm.partial.keys().copied().collect();
        assert_eq!(live, vec![(1, 0)], "only the live epoch's partial stays");
    }
}
