//! Sealed pages over real loopback TCP sockets: pooled links, blocking
//! readers, heartbeat liveness and backoff reconnection.

use super::inbox::{corrupt_one_frame, encode_page_frames, Inbox, Reassembler};
use super::{node_name, NodeId, Transport, TransportMeter, MASTER};
use crate::cluster::unique_suffix;
use crate::wire::{self, Decoded, FrameKind, WireFrame};
use pc_object::hash::mix;
use pc_object::{sync, PcError, PcResult, SealedPage};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    pub(super) meter: Arc<TransportMeter>,
    epoch: Arc<Mutex<u64>>,
    pub(super) workers: usize,
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

    /// Wire-corruption hook for fault injection: performs the logical send
    /// of `page`, but one seed-chosen frame goes out with a bit flipped
    /// *after* its checksum was computed. With `retransmit` the clean frame
    /// follows (modeling link-level retransmission after a checksum
    /// reject), so the page still arrives exactly once; without it the page
    /// is lost on the wire and surfaces as a typed transport error at
    /// collect, which stage replay recovers.
    pub fn send_corrupted(
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

    /// Crash worker `w`'s backend endpoint: its heartbeats stop and the
    /// link into it is severed (closing the sender half is also what ends
    /// its reader). Senders re-dial, with backoff, once it is revived.
    pub fn kill(&self, w: NodeId) {
        if w < self.workers {
            self.alive[w].store(false, Ordering::Relaxed);
        }
        if let Some(slot) = self.conns.get(w) {
            sync::lock(slot).stream = None;
        }
    }
}

impl Transport for TcpTransport {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::testutil::page;

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
