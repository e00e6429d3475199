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
//! * [`LocalTransport`] — the synchronous in-process byte copy (the
//!   default), and the reference every wire run is compared to byte for
//!   byte.
//! * [`TcpTransport`] — the wire: sealed pages chunked into CRC-checksummed
//!   frames ([`crate::wire`]) over real `std::net` TCP sockets — one
//!   listener and acceptor thread per node, one blocking reader thread per
//!   inbound connection decoding frames and reassembling pages, collects
//!   carrying a deadline, continuous worker heartbeats feeding a
//!   master-side liveness monitor, and crash-restart reconnection with
//!   bounded, jittered exponential backoff.
//! * [`FaultyTransport`] — a decorator over either that injects drops,
//!   delays, reorders, payload corruption, and whole-worker deaths from a
//!   reproducible seed-driven schedule.
//!
//! Wire failures never panic and never surface garbage pages: checksum
//! rejects, truncated frames, and incomplete reassembly all become typed
//! [`PcError::Transport`] errors at collect time, which the recovery layer
//! answers with a stage replay.

use crate::cluster::unique_suffix;
use crate::wire::{self, Decoded, FrameKind, WireFrame};
use pc_object::hash::mix;
use pc_object::{sync, PageWriter, PcError, PcResult, SealedPage};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

// ---------------------------------------------------------------- metering

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

// ---------------------------------------------------------------- the trait

/// The single boundary for inter-node page movement. See the module docs
/// for the delivery contract.
pub trait Transport: Send + Sync {
    /// Implementation name (reported by `repro faults`).
    fn name(&self) -> &'static str;

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

    /// Clear fault state for worker `w`: its backend restarted. No-op for
    /// reliable transports.
    fn revive(&self, _w: NodeId) {}

    /// Enable fault injection (no-op for reliable transports). The cluster
    /// arms the transport for the duration of a job, so data loading stays
    /// clean and schedules are reproducible per job.
    fn arm(&self) {}

    /// Disable fault injection.
    fn disarm(&self) {}

    /// Human-readable injected-fault schedule, for one-line reproduction
    /// of a failing chaos seed.
    fn fault_summary(&self) -> Option<String> {
        None
    }

    /// Wire-corruption hook for fault injection: performs the logical send
    /// of `page`, but one seed-chosen frame goes out with a bit flipped
    /// *after* its checksum was computed. With `retransmit` the clean frame
    /// follows (modeling link-level retransmission after a checksum
    /// reject), so the page still arrives exactly once; without it the page
    /// is lost on the wire and surfaces as a typed transport error at
    /// collect, which stage replay recovers.
    ///
    /// Transports without a wire (the in-process copy) deliver normally
    /// under `retransmit` — there is nothing between encode and decode to
    /// corrupt — and refuse otherwise.
    fn send_corrupted(
        &self,
        src: NodeId,
        dst: NodeId,
        page: &SealedPage,
        _flip_seed: u64,
        retransmit: bool,
    ) -> PcResult<()> {
        if retransmit {
            return self.send(src, dst, page);
        }
        Err(PcError::Transport(format!(
            "{} has no wire to corrupt",
            self.name()
        )))
    }

    /// Crash worker `w`'s backend endpoint: heartbeats stop and its
    /// connections die. No-op for transports without liveness machinery
    /// (fault decorators model death themselves and forward this inward).
    fn kill(&self, _w: NodeId) {}

    /// Workers the failure detector currently suspects (missed-heartbeat
    /// count at or past the threshold). Empty for transports without
    /// heartbeats.
    fn suspects(&self) -> Vec<NodeId> {
        Vec::new()
    }
}

// ---------------------------------------------------------------- inbox

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

struct Inbox {
    state: Mutex<InboxState>,
    arrived: Condvar,
}

impl Inbox {
    fn new() -> Self {
        Inbox {
            state: Mutex::new(InboxState::default()),
            arrived: Condvar::new(),
        }
    }

    /// Register one logical send to `dst`; returns its sequence number.
    fn register_send(&self, dst: NodeId) -> u64 {
        let mut s = sync::lock(&self.state);
        let seq = s.next_seq.entry(dst).or_insert(0);
        let n = *seq;
        *seq += 1;
        *s.expected.entry(dst).or_insert(0) += 1;
        n
    }

    /// Deliver a reassembled page.
    fn deliver(&self, dst: NodeId, seq: u64, page: SealedPage) {
        let mut s = sync::lock(&self.state);
        s.delivered.entry(dst).or_default().insert(seq, page);
        self.arrived.notify_all();
    }

    /// Poison `dst`'s delivery stream: the pending (and the next) collect
    /// fails immediately with a typed transport error instead of waiting
    /// out its deadline. This is how wire-level damage — a failed checksum
    /// with no retransmission, a truncated connection, an inconsistent
    /// reassembly map — surfaces to the recovery layer.
    fn fail(&self, dst: NodeId, why: String) {
        let mut s = sync::lock(&self.state);
        s.failed.entry(dst).or_insert(why);
        self.arrived.notify_all();
    }

    /// Wait for every expected page, then drain them in seq order.
    /// `interrupt` (the heartbeat failure detector) is re-checked on every
    /// wakeup and preempts the deadline with its own typed error.
    fn collect(
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

    fn reset(&self) {
        let mut s = sync::lock(&self.state);
        *s = InboxState::default();
        self.arrived.notify_all();
    }
}

// ---------------------------------------------------------------- local

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
    fn name(&self) -> &'static str {
        "local"
    }

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

// ---------------------------------------------------------------- frames

/// Appends a page's bytes to `out` as encoded, checksummed data frames of
/// `chunk_bytes` payload each: every page byte is copied once, straight from
/// the page into `out`.
fn encode_page_frames(
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
fn corrupt_one_frame(
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
struct Reassembler {
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
    fn new() -> Self {
        Reassembler {
            partial: HashMap::new(),
        }
    }

    /// Drops partial pages left over from aborted-stage epochs.
    fn retain_epoch(&mut self, now: u64) {
        self.partial.retain(|_, p| p.epoch == now);
    }

    /// The connection is gone: whatever it left half-assembled was wire
    /// waste (the sender's redial, or the stage replay, sends the whole
    /// page again).
    fn scrap(self, meter: &TransportMeter) {
        for p in self.partial.into_values() {
            meter.on_failed_attempt(p.held());
        }
    }

    fn accept<P: AsRef<[u8]>>(
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

// ---------------------------------------------------------------- tcp

/// Tuning for [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Frame payload size a sealed page is chunked into.
    pub chunk_bytes: usize,
    /// Collect deadline: the backstop failure detector when heartbeats are
    /// still within budget.
    pub collect_deadline: Duration,
    /// How often each worker endpoint beats at the master.
    pub heartbeat_interval: Duration,
    /// Missed beats before the master marks a worker suspect.
    pub suspect_after: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            chunk_bytes: 4 << 10,
            collect_deadline: Duration::from_secs(10),
            heartbeat_interval: Duration::from_millis(100),
            suspect_after: 5,
        }
    }
}

/// Per-socket write deadline: how long a sender may stay blocked on a full
/// socket buffer before the link counts as failed.
const WRITE_DEADLINE: Duration = Duration::from_secs(5);
/// A reader's initial receive buffer: a quarter of a default page, so most
/// reads take whatever the socket holds in one call.
const READ_BUF: usize = 256 << 10;
/// The least free space a reader offers the socket per read; below it the
/// undecoded tail moves to the front of the buffer.
const READ_MIN: usize = 64 << 10;
/// First redial delay; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Ceiling on the exponential redial delay.
const BACKOFF_CAP: Duration = Duration::from_millis(250);
/// Data-path redials before a send fails with a typed transport error
/// (heartbeat endpoints keep dialing at the cap).
const REDIAL_ATTEMPTS: u32 = 5;

/// Jittered, capped exponential backoff: attempt 0 waits about the base,
/// each retry doubles, the cap bounds it, and a deterministic jitter (up to
/// a quarter of the delay, a pure function of attempt and `salt`) keeps
/// reconnect storms from synchronizing.
fn backoff_delay(attempt: u32, salt: u64) -> Duration {
    let exp = BACKOFF_BASE.saturating_mul(1u32 << attempt.min(16));
    let capped = exp.min(BACKOFF_CAP).max(Duration::from_millis(1));
    let span = (capped.as_millis() as u64 / 4).max(1);
    let jitter = mix(0, attempt as u64, salt) % span;
    capped + Duration::from_millis(jitter)
}

struct BeatState {
    last_beat: Instant,
    missed: u32,
    suspect: bool,
}

/// Master-side liveness board: the master's readers record beats, the
/// monitor thread advances missed-beat counts, collects consult the suspect
/// set.
struct BeatBoard {
    state: Mutex<Vec<BeatState>>,
}

impl BeatBoard {
    fn new(workers: usize) -> Self {
        BeatBoard {
            state: Mutex::new(
                (0..workers)
                    .map(|_| BeatState {
                        last_beat: Instant::now(),
                        missed: 0,
                        suspect: false,
                    })
                    .collect(),
            ),
        }
    }

    /// A beat arrived from worker `w`: it is alive, whatever we suspected.
    fn record(&self, w: usize) {
        let mut s = sync::lock(&self.state);
        if let Some(b) = s.get_mut(w) {
            b.last_beat = Instant::now();
            b.missed = 0;
            b.suspect = false;
        }
    }

    /// One monitor sweep: counts beats that failed to arrive on schedule
    /// (with half an interval of grace) and promotes quiet workers to
    /// suspect once `suspect_after` beats are missing.
    fn tick(&self, interval: Duration, suspect_after: u32, meter: &TransportMeter) {
        let mut s = sync::lock(&self.state);
        for b in s.iter_mut() {
            let due = interval * (b.missed + 1) + interval / 2;
            if b.last_beat.elapsed() >= due {
                b.missed += 1;
                meter.on_heartbeat_missed();
                if b.missed >= suspect_after {
                    b.suspect = true;
                }
            }
        }
    }

    fn suspects(&self) -> Vec<NodeId> {
        let s = sync::lock(&self.state);
        s.iter()
            .enumerate()
            .filter(|(_, b)| b.suspect)
            .map(|(w, _)| w)
            .collect()
    }

    fn first_suspect(&self) -> Option<NodeId> {
        self.suspects().into_iter().next()
    }

    /// Worker `w` restarted: forgive its missed beats.
    fn revive(&self, w: usize) {
        self.record(w);
    }
}

fn spawn_named(
    role: &str,
    f: impl FnOnce() + Send + 'static,
) -> PcResult<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("pc-tcp-{role}-{}", unique_suffix()))
        .spawn(f)
        .map_err(|e| PcError::Transport(format!("tcp transport spawn {role}: {e}")))
}

/// What the receive-side threads share: where pages and beats land, and
/// the fence and flag that bound them.
#[derive(Clone)]
struct Receiver {
    inbox: Arc<Inbox>,
    meter: Arc<TransportMeter>,
    epoch: Arc<Mutex<u64>>,
    beats: Arc<BeatBoard>,
    shutdown: Arc<AtomicBool>,
}

/// One pooled outbound link: the connection (when up) and the buffer a
/// page's frames are encoded into, reused from page to page.
#[derive(Default)]
struct Link {
    stream: Option<std::net::TcpStream>,
    frames: Vec<u8>,
}

/// Sealed pages over real `std::net` TCP sockets.
///
/// Every node (each worker plus the master) owns a loopback listener. A
/// `send(src, dst, ..)` encodes the page's checksummed wire frames into the
/// pooled link's buffer and hands them to the socket in one write, on the
/// connection into `dst` — one per destination node, re-dialed with
/// bounded, jittered exponential backoff when the link drops. The receive
/// side is plain blocking I/O: one acceptor thread per listener, one reader
/// thread per accepted connection that decodes frames, reassembles and
/// validates pages into the shared inbox, records worker heartbeats, and
/// ends when its peer closes — a blocking `read` is told what a readiness
/// loop would have to keep asking. A monitor thread turns missed beats into
/// suspicion; a collect blocked on a suspect worker fails fast with
/// [`PcError::WorkerDead`] instead of waiting out the collect deadline,
/// and stage replay takes it from there.
///
/// A thread per connection is only cheap while connections are few, which
/// is why links are pooled per destination and not per `(src, dst)` pair:
/// W workers mean 2W + 1 readers, not (W + 1)² + W. The thread count is
/// load-bearing for memory, not just tidiness: see DESIGN.md, "Transport &
/// recovery", for the malloc-arena measurement behind it.
pub struct TcpTransport {
    inbox: Arc<Inbox>,
    config: TcpConfig,
    meter: Arc<TransportMeter>,
    epoch: Arc<Mutex<u64>>,
    workers: usize,
    /// Listener addresses: worker `w` at index `w`, the master at index
    /// `workers`.
    addrs: Vec<SocketAddr>,
    /// One pooled outbound link per destination node, indexed like `addrs`
    /// and shared by every sender in the process.
    conns: Vec<Mutex<Link>>,
    beats: Arc<BeatBoard>,
    alive: Arc<Vec<AtomicBool>>,
    shutdown: Arc<AtomicBool>,
    /// Each node's acceptor thread, with the address that wakes it.
    acceptors: Vec<(SocketAddr, std::thread::JoinHandle<()>)>,
    /// The monitor and the heartbeat endpoints.
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl TcpTransport {
    /// Binds one listener per node and spawns its acceptor, the heartbeat
    /// monitor, and one heartbeat endpoint per worker.
    pub fn new(meter: Arc<TransportMeter>, config: TcpConfig, workers: usize) -> PcResult<Self> {
        let workers = workers.max(1);
        let io_err = |what: &str, e: std::io::Error| {
            PcError::Transport(format!("tcp transport {what}: {e}"))
        };
        // Listener slots: worker w at index w, the master at index
        // `workers`.
        let mut listeners = Vec::with_capacity(workers + 1);
        let mut addrs = Vec::with_capacity(workers + 1);
        for _ in 0..=workers {
            let l = std::net::TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io_err("bind", e))?;
            addrs.push(l.local_addr().map_err(|e| io_err("local_addr", e))?);
            listeners.push(l);
        }
        let rx = Receiver {
            inbox: Arc::new(Inbox::new()),
            meter: meter.clone(),
            epoch: Arc::new(Mutex::new(0u64)),
            beats: Arc::new(BeatBoard::new(workers)),
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        // From here on an early return drops `t`, which stops and joins
        // whatever was already started.
        let mut t = TcpTransport {
            inbox: rx.inbox.clone(),
            config,
            meter,
            epoch: rx.epoch.clone(),
            workers,
            addrs,
            conns: (0..=workers).map(|_| Mutex::default()).collect(),
            beats: rx.beats.clone(),
            alive: Arc::new((0..workers).map(|_| AtomicBool::new(true)).collect()),
            shutdown: rx.shutdown.clone(),
            acceptors: Vec::new(),
            threads: Vec::new(),
        };

        // --- one acceptor per node: all inbound traffic ---
        for (node, listener) in listeners.into_iter().enumerate() {
            let rx = rx.clone();
            let h = spawn_named(&format!("accept-{node}"), move || rx.accept_loop(listener))?;
            t.acceptors.push((t.addrs[node], h));
        }

        // --- the liveness monitor ---
        {
            let interval = t.config.heartbeat_interval;
            let suspect_after = t.config.suspect_after;
            t.threads.push(spawn_named("monitor", move || {
                while !rx.shutdown.load(Ordering::Relaxed) {
                    rx.beats.tick(interval, suspect_after, &rx.meter);
                    std::thread::sleep(interval / 2);
                }
            })?);
        }

        // --- one heartbeat endpoint per worker ---
        for w in 0..workers {
            let meter = t.meter.clone();
            let alive = t.alive.clone();
            let shutdown = t.shutdown.clone();
            let config = t.config.clone();
            let master_addr = t.addrs[workers];
            t.threads.push(spawn_named(&format!("beat-{w}"), move || {
                heartbeat_endpoint(w, master_addr, config, meter, alive, shutdown)
            })?);
        }
        Ok(t)
    }

    /// Encodes a page's frames with `encode` into the pooled link's buffer
    /// and writes them to `dst` in one call, re-dialing with bounded
    /// exponential backoff (jittered, capped, metered) when the link is
    /// down or drops mid-write.
    fn write_frames(&self, dst: NodeId, encode: impl FnOnce(&mut Vec<u8>)) -> PcResult<()> {
        let node = if dst == MASTER { self.workers } else { dst };
        let (Some(slot), Some(addr)) = (self.conns.get(node), self.addrs.get(node)) else {
            return Err(PcError::Transport(format!(
                "send to {}: no such node",
                node_name(dst)
            )));
        };
        let mut link = sync::lock(slot);
        let Link {
            stream: conn,
            frames,
        } = &mut *link;
        frames.clear();
        encode(frames);
        let mut attempt = 0u32;
        let mut had_failure = false;
        loop {
            let stream = match conn.as_mut() {
                Some(stream) => stream,
                None => match std::net::TcpStream::connect(addr) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_write_timeout(Some(WRITE_DEADLINE));
                        if had_failure {
                            self.meter.on_reconnect();
                        }
                        conn.insert(s)
                    }
                    Err(e) => {
                        had_failure = true;
                        attempt += 1;
                        if attempt > REDIAL_ATTEMPTS {
                            return Err(PcError::Transport(format!(
                                "connect to {} failed after {} backoff attempts: {e}",
                                node_name(dst),
                                REDIAL_ATTEMPTS
                            )));
                        }
                        std::thread::sleep(backoff_delay(attempt - 1, dst as u64));
                        continue;
                    }
                },
            };
            let wrote = stream.write_all(frames).and_then(|()| stream.flush());
            match wrote {
                Ok(()) => return Ok(()),
                Err(e) => {
                    // The link dropped mid-page: reconnect and resend every
                    // frame. The new connection gets a fresh reassembler,
                    // the old one's partial page is metered as waste, and a
                    // frame torn by the dead connection is caught by its
                    // checksum or the truncation check.
                    *conn = None;
                    had_failure = true;
                    attempt += 1;
                    if attempt > REDIAL_ATTEMPTS {
                        return Err(PcError::Transport(format!(
                            "send to {} failed after {} backoff attempts: {e}",
                            node_name(dst),
                            REDIAL_ATTEMPTS
                        )));
                    }
                    std::thread::sleep(backoff_delay(attempt - 1, dst as u64));
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn send(&self, src: NodeId, dst: NodeId, page: &SealedPage) -> PcResult<()> {
        let seq = self.inbox.register_send(dst);
        let epoch = *sync::lock(&self.epoch);
        let chunk = self.config.chunk_bytes;
        self.write_frames(dst, |out| {
            encode_page_frames(out, epoch, src, dst, seq, page.payload(), chunk);
        })
    }

    fn collect(&self, dst: NodeId) -> PcResult<Vec<SealedPage>> {
        let probe = || self.beats.first_suspect().map(PcError::WorkerDead);
        self.inbox
            .collect(dst, Some(self.config.collect_deadline), Some(&probe))
    }

    fn reset(&self) {
        // New epoch first, so frames still buffered in sockets are
        // recognizably stale by the time the inbox is cleared. The readers
        // accept data frames under this same lock: once `reset` returns,
        // no page of the aborted epoch can still be delivered or metered,
        // so recovery's meter rollback (which follows) is exact.
        let mut epoch = sync::lock(&self.epoch);
        *epoch += 1;
        self.inbox.reset();
    }

    fn send_corrupted(
        &self,
        src: NodeId,
        dst: NodeId,
        page: &SealedPage,
        flip_seed: u64,
        retransmit: bool,
    ) -> PcResult<()> {
        let seq = self.inbox.register_send(dst);
        let epoch = *sync::lock(&self.epoch);
        let chunk = self.config.chunk_bytes;
        self.write_frames(dst, |out| {
            let bytes = page.payload();
            encode_page_frames(out, epoch, src, dst, seq, bytes, chunk);
            corrupt_one_frame(out, bytes.len(), chunk, flip_seed, retransmit);
        })
    }

    fn kill(&self, w: NodeId) {
        if w < self.workers {
            self.alive[w].store(false, Ordering::Relaxed);
        }
        // Sever the link into the dead node (closing the sender half is
        // also what ends its reader); senders will re-dial (with backoff)
        // once it is revived.
        if let Some(slot) = self.conns.get(w) {
            sync::lock(slot).stream = None;
        }
    }

    fn revive(&self, w: NodeId) {
        if w < self.workers {
            self.alive[w].store(true, Ordering::Relaxed);
            self.beats.revive(w);
        }
    }

    fn suspects(&self) -> Vec<NodeId> {
        self.beats.suspects()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Readers end when their peer closes: the pooled sender halves
        // close here, the heartbeat endpoints' as those threads exit.
        self.conns.clear();
        // An acceptor notices the flag only when `accept` returns: hand it
        // a throw-away connection. One that cannot be woken is left
        // detached rather than hanging the drop.
        for (addr, h) in self.acceptors.drain(..) {
            if std::net::TcpStream::connect(addr).is_ok() {
                let _ = h.join();
            }
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Receiver {
    /// One node's acceptor: every inbound connection gets a blocking
    /// reader thread. Returns — after joining its readers, whose peers
    /// `Drop` has closed by then — once `shutdown` is set and a dial wakes
    /// the `accept`.
    fn accept_loop(&self, listener: std::net::TcpListener) {
        let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in listener.incoming() {
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // Reap readers whose connection has closed, so kill/revive
            // cycles cannot grow the list without bound.
            readers.retain(|h| !h.is_finished());
            let rx = self.clone();
            // A failed spawn drops the stream: the sender sees a dead link.
            readers.extend(spawn_named("read", move || rx.read_loop(stream)));
        }
        for h in readers {
            let _ = h.join();
        }
    }

    /// One inbound connection: decodes frames, reassembles pages, and
    /// records heartbeats until the peer closes (a killed worker's severed
    /// sender half, a dropped transport) or the framing breaks.
    fn read_loop(&self, mut stream: std::net::TcpStream) {
        let mut reasm = Reassembler::new();
        // The socket reads straight into `buf`; frames are decoded where
        // they land, `start..end` holds the bytes not yet decoded.
        let mut buf = vec![0u8; READ_BUF];
        let (mut start, mut end) = (0, 0);
        let framing_broken = loop {
            if buf.len() - end < READ_MIN {
                // Move the undecoded tail (at most one partial frame) to
                // the front; grow only for a frame longer than the buffer.
                buf.copy_within(start..end, 0);
                end -= start;
                start = 0;
                if buf.len() - end < READ_MIN {
                    buf.resize(buf.len() * 2, 0);
                }
            }
            match stream.read(&mut buf[end..]) {
                Ok(0) => break false,
                Ok(n) => end += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break false,
            }
            match self.drain_frames(&buf[start..end], &mut reasm) {
                Some(consumed) => start += consumed,
                None => break true,
            }
            if start == end {
                (start, end) = (0, 0);
            }
        };
        let stranded = &buf[start..end];
        if !framing_broken && !stranded.is_empty() {
            // The peer vanished mid-frame: a truncated page. Surface a
            // typed error on the destination if the stranded header
            // still names one; either way the bytes were waste.
            self.meter.on_failed_attempt(stranded.len());
            if let Some(dst) = wire::stranded_dst(stranded) {
                self.inbox.fail(
                    dst as NodeId,
                    format!(
                        "connection closed mid-frame ({} bytes stranded)",
                        stranded.len()
                    ),
                );
            }
        }
        reasm.scrap(&self.meter);
    }

    /// Decodes every complete frame at the head of `buf` and returns the
    /// bytes they took, or `None` when the framing itself broke (the
    /// connection must be dropped).
    fn drain_frames(&self, buf: &[u8], reasm: &mut Reassembler) -> Option<usize> {
        let mut consumed_total = 0;
        loop {
            match wire::decode(&buf[consumed_total..]) {
                Ok(Decoded::Need) => return Some(consumed_total),
                Ok(Decoded::Frame { frame, consumed }) => {
                    consumed_total += consumed;
                    match frame.kind {
                        FrameKind::Heartbeat => {
                            let src = frame.src as usize;
                            self.beats.record(src);
                        }
                        FrameKind::Data => {
                            // Held across the accept; see `reset`.
                            let now = sync::lock(&self.epoch);
                            if frame.epoch != *now {
                                reasm.retain_epoch(*now);
                                continue;
                            }
                            reasm.accept(frame, &self.meter, &self.inbox);
                        }
                    }
                }
                Ok(Decoded::Corrupt { consumed, .. }) => {
                    // Checksum reject: skip exactly this frame; framing holds.
                    self.meter.on_failed_attempt(consumed);
                    consumed_total += consumed;
                }
                Err(_) => {
                    // Frame boundaries can no longer be trusted: everything
                    // still buffered is waste and the connection dies. The
                    // stranded destination (if its header survives) gets a
                    // typed error instead of a deadline stall.
                    let rest = buf.len() - consumed_total;
                    self.meter.on_failed_attempt(rest);
                    if let Some(dst) = wire::stranded_dst(&buf[consumed_total..]) {
                        self.inbox.fail(
                            dst as NodeId,
                            "wire framing broken on an inbound connection".to_string(),
                        );
                    }
                    return None;
                }
            }
        }
    }
}

/// One worker's beating endpoint: dials the master and sends a heartbeat
/// frame every interval, re-dialing with jittered exponential backoff when
/// the link fails, and going silent while the worker is killed.
fn heartbeat_endpoint(
    w: usize,
    master_addr: SocketAddr,
    config: TcpConfig,
    meter: Arc<TransportMeter>,
    alive: Arc<Vec<AtomicBool>>,
    shutdown: Arc<AtomicBool>,
) {
    let mut beat: u64 = 0;
    let mut conn: Option<std::net::TcpStream> = None;
    let mut failed_attempts: u32 = 0;
    let mut had_failure = false;
    let nap = |d: Duration| {
        // Sleep in slices so kill/shutdown bite quickly.
        let step = Duration::from_millis(5);
        let mut left = d;
        while left > Duration::ZERO && !shutdown.load(Ordering::Relaxed) {
            let s = left.min(step);
            std::thread::sleep(s);
            left = left.saturating_sub(s);
        }
    };
    while !shutdown.load(Ordering::Relaxed) {
        if !alive[w].load(Ordering::Relaxed) {
            // A crash is a failure whether or not the first dial had
            // landed yet: the dial after the restart is a metered re-dial.
            conn = None;
            had_failure = true;
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        if conn.is_none() {
            match std::net::TcpStream::connect(master_addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_write_timeout(Some(WRITE_DEADLINE));
                    if had_failure {
                        meter.on_reconnect();
                        had_failure = false;
                    }
                    failed_attempts = 0;
                    conn = Some(s);
                }
                Err(_) => {
                    had_failure = true;
                    nap(backoff_delay(failed_attempts, w as u64));
                    failed_attempts = failed_attempts.saturating_add(1);
                    continue;
                }
            }
        }
        let frame = WireFrame::heartbeat(w as u64, MASTER as u64, beat).encode();
        beat += 1;
        let ok = conn
            .as_mut()
            .map(|s| s.write_all(&frame).and_then(|()| s.flush()).is_ok())
            .unwrap_or(false);
        if !ok {
            conn = None;
            had_failure = true;
            continue;
        }
        nap(config.heartbeat_interval);
    }
}

// ---------------------------------------------------------------- faults

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

impl FaultKind {
    fn tag(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Reorder => "reorder",
            FaultKind::Corrupt => "corrupt",
            FaultKind::WorkerDeath => "worker-death",
        }
    }
}

/// A reproducible fault schedule: everything the [`FaultyTransport`]
/// injects is a pure function of this spec, so a failing chaos seed is a
/// one-line repro.
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
    holdback: Option<(usize, Vec<u8>)>,
}

/// Decorates any [`Transport`] with seed-driven fault injection. Despite
/// the chaos underneath, the decorated transport still satisfies the full
/// delivery contract (exactly-once, order-restored) whenever `retries` is
/// on and no death fires — and recovery restores it end-to-end otherwise.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    spec: FaultSpec,
    workers: usize,
    meter: Arc<TransportMeter>,
    armed: AtomicBool,
    sends: AtomicU64,
    faults_injected: AtomicU64,
    death_fired: AtomicBool,
    dead: Mutex<HashSet<NodeId>>,
    chans: Mutex<HashMap<NodeId, ChanState>>,
}

impl FaultyTransport {
    /// Wraps `inner`, injecting faults over a cluster of `workers` nodes.
    pub fn new(
        inner: Arc<dyn Transport>,
        meter: Arc<TransportMeter>,
        spec: FaultSpec,
        workers: usize,
    ) -> Self {
        FaultyTransport {
            inner,
            spec,
            workers: workers.max(1),
            meter,
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
            .unwrap_or_else(|| (mix(self.spec.seed, 1, 0xDEAD) as usize) % self.workers);
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
    fn name(&self) -> &'static str {
        "faulty"
    }

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
                    // Let the wire see the death too: a real-socket inner
                    // transport severs the victim's connections and stops
                    // its heartbeats, so the master's liveness monitor
                    // detects the crash the same way it would a real one.
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
                        self.meter.on_failed_attempt(page.used());
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
                        // Stash this page; it goes out after the next send
                        // to the same destination (or at collect).
                        c.holdback = Some((logical, page.to_bytes()));
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
        if let Some((held_logical, bytes)) = stashed {
            let held = SealedPage::from_bytes(&bytes)?;
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
        if let Some((held_logical, bytes)) = stashed {
            self.check_alive(MASTER, dst)?;
            let held = SealedPage::from_bytes(&bytes)?;
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

    fn kill(&self, w: NodeId) {
        sync::lock(&self.dead).insert(w);
        self.inner.kill(w);
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

    fn fault_summary(&self) -> Option<String> {
        let kinds: Vec<&str> = self.spec.kinds.iter().map(|k| k.tag()).collect();
        let death = self
            .death_point()
            .map(|(at, v)| format!(" death@send{at}->worker{v}"))
            .unwrap_or_default();
        Some(format!(
            "seed={:#x} kinds=[{}] rate={}/256 max_drops={} retries={}{} over {}",
            self.spec.seed,
            kinds.join(","),
            self.spec.rate,
            self.spec.max_drops_per_send,
            self.spec.retries,
            death,
            self.inner.name()
        ))
    }
}

// ---------------------------------------------------------------- config

/// Declarative transport selection, carried by `ClusterConfig` so tests,
/// `repro faults`, and the chaos CI matrix can describe a transport stack
/// without touching construction code.
#[derive(Debug, Clone, Default)]
pub enum TransportKind {
    /// The synchronous in-process byte copy.
    #[default]
    Local,
    /// Real loopback TCP sockets with heartbeat liveness and backoff
    /// reconnection.
    Tcp(TcpConfig),
    /// Fault injection decorating another transport.
    Faulty {
        /// The transport actually moving bytes underneath.
        inner: Box<TransportKind>,
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
            TransportKind::Faulty { inner, spec } => {
                let base = inner.build(meter.clone(), workers)?;
                Arc::new(FaultyTransport::new(base, meter, spec.clone(), workers))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_lambda::SetWriter;
    use pc_object::{make_object, PcVec};

    fn page(tag: i64) -> SealedPage {
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

    fn tag_of(p: &SealedPage) -> i64 {
        let (_b, root) = p.open_view().unwrap();
        let objs = root
            .downcast::<PcVec<pc_object::Handle<pc_object::AnyObj>>>()
            .unwrap();
        let first = objs.iter().next().unwrap().erase();
        first.downcast::<PcVec<i64>>().unwrap().get(0) / 100
    }

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

    #[test]
    fn tcp_close_mid_frame_poisons_the_stranded_dst() {
        let meter = Arc::new(TransportMeter::default());
        let t = TcpTransport::new(meter.clone(), TcpConfig::default(), 2).unwrap();
        // A page for worker 1 is outstanding: without the poison, the
        // collect below would sit out its whole 10 s deadline.
        t.inbox.register_send(1);
        let frame = WireFrame::data(0, MASTER as u64, 1, 0, 0, 1, vec![7; 64]).encode();
        let half = &frame[..frame.len() / 2];
        let mut raw = std::net::TcpStream::connect(t.addrs[1]).unwrap();
        raw.write_all(half).unwrap();
        drop(raw);
        let start = Instant::now();
        match t.collect(1) {
            Err(PcError::Transport(why)) => assert!(why.contains("mid-frame"), "{why}"),
            other => panic!("expected a typed transport error, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "the poison must preempt the collect deadline"
        );
        assert_eq!(meter.bytes_retransmitted(), half.len() as u64);
        assert_eq!(meter.pages_shuffled(), 0);
    }

    #[test]
    fn tcp_broken_framing_drops_only_that_connection() {
        let meter = Arc::new(TransportMeter::default());
        let t = TcpTransport::new(meter.clone(), TcpConfig::default(), 2).unwrap();
        let mut raw = std::net::TcpStream::connect(t.addrs[1]).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        raw.write_all(&[0xAB; 64]).unwrap(); // a full header's worth, bad magic
        assert_eq!(
            raw.read(&mut [0u8; 8]).unwrap(),
            0,
            "the receiver must hang up on a connection whose framing broke"
        );
        assert_eq!(meter.bytes_retransmitted(), 64, "the garbage is waste");
        // The damage stays on that connection: the pooled link still
        // carries a page intact.
        let p = page(3);
        t.send(MASTER, 1, &p).unwrap();
        let got = t.collect(1).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].to_bytes(), p.to_bytes());
    }

    #[test]
    fn tcp_drop_joins_its_threads_promptly() {
        let meter = Arc::new(TransportMeter::default());
        let t = TcpTransport::new(meter.clone(), TcpConfig::default(), 2).unwrap();
        // Live data connections to both workers, heartbeat links to the
        // master, and one killed worker.
        for w in 0..2 {
            t.send(MASTER, w, &page(w as i64)).unwrap();
            assert_eq!(t.collect(w).unwrap().len(), 1);
        }
        t.kill(1);
        let start = Instant::now();
        drop(t);
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "drop took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn faulty_reorder_is_invisible_after_collect() {
        let meter = Arc::new(TransportMeter::default());
        let inner: Arc<dyn Transport> = Arc::new(LocalTransport::new(meter.clone()));
        let t = FaultyTransport::new(
            inner,
            meter,
            FaultSpec {
                rate: 256, // reorder every send
                ..FaultSpec::seeded(7, &[FaultKind::Reorder])
            },
            3,
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
        let inner: Arc<dyn Transport> = Arc::new(LocalTransport::new(meter.clone()));
        let t = FaultyTransport::new(
            inner,
            meter.clone(),
            FaultSpec {
                rate: 256,
                ..FaultSpec::seeded(11, &[FaultKind::Drop])
            },
            3,
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
        let inner: Arc<dyn Transport> = Arc::new(LocalTransport::new(meter.clone()));
        let t = FaultyTransport::new(
            inner,
            meter,
            FaultSpec {
                death_at: Some(2),
                victim: Some(1),
                ..FaultSpec::seeded(3, &[FaultKind::WorkerDeath])
            },
            3,
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

    #[test]
    fn backoff_delays_are_capped_and_grow() {
        let mut prev = Duration::ZERO;
        for attempt in 0..10 {
            let d = backoff_delay(attempt, 1);
            assert!(
                d <= BACKOFF_CAP + BACKOFF_CAP / 4,
                "attempt {attempt}: {d:?} exceeds the jittered cap"
            );
            if attempt < 3 {
                assert!(d > prev, "early attempts must grow: {prev:?} -> {d:?}");
                prev = d;
            }
        }
        // Deterministic: the same (attempt, salt) always jitters the same.
        assert_eq!(backoff_delay(4, 7), backoff_delay(4, 7));
    }
}
