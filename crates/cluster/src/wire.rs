//! The wire format: length-prefixed, CRC-checksummed frames.
//!
//! Every byte a socket-backed transport puts on the wire is one of these
//! frames. The framing rules are what make corruption *recoverable*:
//!
//! * A frame starts with a fixed magic and carries its payload length up
//!   front, so a receiver always knows where the next frame boundary is —
//!   even when the current frame's payload is garbage.
//! * A CRC-32 trailer covers everything after the magic. A payload bit-flip
//!   fails the checksum and the receiver skips exactly that frame
//!   ([`Decoded::Corrupt`] says how many bytes to consume); framing stays
//!   intact and later frames still parse.
//! * Only a mangled *header region* (bad magic, absurd lengths) is
//!   unrecoverable: the receiver can no longer trust frame boundaries and
//!   must drop the connection ([`decode`] returns `Err`). The missing pages
//!   then surface as a typed [`PcError::Transport`] at collect time and
//!   stage replay recovers — corruption never panics and never delivers
//!   garbage pages.
//!
//! This codec frames everything the real-socket [`TcpTransport`] sends, so
//! the chaos matrix exercises exactly the corruption story described here.
//!
//! [`TcpTransport`]: crate::transport::TcpTransport

use pc_object::hash::mix64;
use pc_object::{PcError, PcResult};

/// Frame magic: `b"PCW1"` little-endian.
pub const MAGIC: u32 = 0x3157_4350;

/// Byte offset of the payload inside an encoded frame.
pub const HEADER_LEN: usize = 49;

/// CRC-32 trailer length.
pub const TRAILER_LEN: usize = 4;

// Header layout, little-endian: magic u32 | kind u8 | epoch u64 | src u64 |
// dst u64 | seq u64 | idx u32 | total u32 | payload length u32.
const KIND_AT: usize = 4;
const EPOCH_AT: usize = 5;
const SRC_AT: usize = 13;
const DST_AT: usize = 21;
const SEQ_AT: usize = 29;
const IDX_AT: usize = 37;
const TOTAL_AT: usize = 41;
const LEN_AT: usize = 45;

/// Sanity cap on a single frame's payload (frames are page *chunks*; a
/// length beyond this is framing corruption, not a real frame).
pub const MAX_PAYLOAD: usize = 1 << 24;

/// Sanity cap on the chunk count of one page (a `total` beyond this is
/// framing corruption).
pub const MAX_CHUNKS: u32 = 1 << 20;

/// What kind of traffic a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// One chunk of a sealed page (`idx` of `total`).
    Data,
    /// A liveness beat from a worker to the master (`seq` is the beat
    /// counter).
    Heartbeat,
}

/// One wire frame. The payload is owned (`Vec<u8>`, the default) or
/// borrowed: [`decode`] hands out frames whose payload borrows the receive
/// buffer, and the sender encodes frames whose payload borrows the page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame<P = Vec<u8>> {
    /// Data chunk or heartbeat.
    pub kind: FrameKind,
    /// Delivery epoch: frames from aborted stage attempts are stale.
    pub epoch: u64,
    /// Sending node.
    pub src: u64,
    /// Destination node (inbox to deliver into).
    pub dst: u64,
    /// Page sequence number (data) or beat counter (heartbeat).
    pub seq: u64,
    /// Chunk index within the page.
    pub idx: u32,
    /// Total chunks in the page.
    pub total: u32,
    /// Chunk bytes (empty for heartbeats).
    pub payload: P,
}

impl<P> WireFrame<P> {
    /// A data frame carrying chunk `idx` of `total` of page `seq`.
    pub fn data(
        epoch: u64,
        src: u64,
        dst: u64,
        seq: u64,
        idx: u32,
        total: u32,
        payload: P,
    ) -> Self {
        WireFrame {
            kind: FrameKind::Data,
            epoch,
            src,
            dst,
            seq,
            idx,
            total,
            payload,
        }
    }
}

impl WireFrame {
    /// Heartbeat number `beat` from worker `src` to `dst`.
    pub fn heartbeat(src: u64, dst: u64, beat: u64) -> Self {
        WireFrame {
            kind: FrameKind::Heartbeat,
            epoch: 0,
            src,
            dst,
            seq: beat,
            idx: 0,
            total: 0,
            payload: Vec::new(),
        }
    }
}

impl<P: AsRef<[u8]>> WireFrame<P> {
    /// Serializes the frame: magic, header, payload, CRC-32 trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded frame to `out`: the payload is copied once,
    /// straight into place, and checksummed where it lands.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let payload = self.payload.as_ref();
        let start = out.len();
        out.reserve(frame_len(payload.len()));
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.push(match self.kind {
            FrameKind::Data => 1,
            FrameKind::Heartbeat => 2,
        });
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.dst.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.idx.to_le_bytes());
        out.extend_from_slice(&self.total.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        debug_assert_eq!(out.len() - start, HEADER_LEN + payload.len());
        let crc = crc32(&out[start + 4..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }
}

/// Bytes one frame with a `payload_len`-byte payload occupies on the wire.
pub const fn frame_len(payload_len: usize) -> usize {
    HEADER_LEN + payload_len + TRAILER_LEN
}

/// The outcome of trying to decode one frame from the head of a buffer.
#[derive(Debug)]
pub enum Decoded<'a> {
    /// Not enough bytes buffered yet; read more and retry.
    Need,
    /// One complete, checksum-verified frame; consume `consumed` bytes.
    Frame {
        /// The decoded frame; its payload borrows the decoded buffer.
        frame: WireFrame<&'a [u8]>,
        /// Bytes the frame occupied on the wire.
        consumed: usize,
    },
    /// The frame's checksum (or a field sanity check) failed, but the
    /// framing itself is intact: skip `consumed` bytes and keep decoding.
    Corrupt {
        /// Bytes to skip to reach the next frame boundary.
        consumed: usize,
        /// What failed, for the typed error that surfaces at collect.
        why: String,
    },
}

/// The little-endian integer whose `N` bytes start at `at`, or `None` when
/// `buf` ends first: every fixed-width field read goes through here.
fn le<const N: usize, T>(buf: &[u8], at: usize, from: fn([u8; N]) -> T) -> Option<T> {
    Some(from(buf.get(at..at + N)?.try_into().ok()?))
}

/// A frame header as read off the wire, before any check.
struct Header {
    magic: u32,
    kind: u8,
    epoch: u64,
    src: u64,
    dst: u64,
    seq: u64,
    idx: u32,
    total: u32,
    len: usize,
}

impl Header {
    /// The header at the head of `buf`; `None` until all of it is buffered.
    fn read(buf: &[u8]) -> Option<Header> {
        Some(Header {
            magic: le(buf, 0, u32::from_le_bytes)?,
            kind: le(buf, KIND_AT, u8::from_le_bytes)?,
            epoch: le(buf, EPOCH_AT, u64::from_le_bytes)?,
            src: le(buf, SRC_AT, u64::from_le_bytes)?,
            dst: le(buf, DST_AT, u64::from_le_bytes)?,
            seq: le(buf, SEQ_AT, u64::from_le_bytes)?,
            idx: le(buf, IDX_AT, u32::from_le_bytes)?,
            total: le(buf, TOTAL_AT, u32::from_le_bytes)?,
            len: le(buf, LEN_AT, u32::from_le_bytes)? as usize,
        })
    }
}

/// Decodes the frame at the head of `buf`.
///
/// `Err` means the framing itself can no longer be trusted (bad magic or an
/// absurd length): the caller must drop the connection — the data lost with
/// it surfaces as a typed transport error, never as a garbage page.
pub fn decode(buf: &[u8]) -> PcResult<Decoded<'_>> {
    let Some(h) = Header::read(buf) else {
        return Ok(Decoded::Need);
    };
    if h.magic != MAGIC {
        return Err(PcError::Transport(format!(
            "wire framing broken: bad magic {:#010x}",
            h.magic
        )));
    }
    let len = h.len;
    if len > MAX_PAYLOAD {
        return Err(PcError::Transport(format!(
            "wire framing broken: frame payload length {len} exceeds {MAX_PAYLOAD}"
        )));
    }
    let frame_len = frame_len(len);
    let Some(want) = le(buf, HEADER_LEN + len, u32::from_le_bytes) else {
        return Ok(Decoded::Need);
    };
    let got = crc32(&buf[4..HEADER_LEN + len]);
    if want != got {
        return Ok(Decoded::Corrupt {
            consumed: frame_len,
            why: format!("frame checksum mismatch (stored {want:#010x}, computed {got:#010x})"),
        });
    }
    let kind = match h.kind {
        1 => FrameKind::Data,
        2 => FrameKind::Heartbeat,
        other => {
            return Ok(Decoded::Corrupt {
                consumed: frame_len,
                why: format!("unknown frame kind {other}"),
            })
        }
    };
    if kind == FrameKind::Data && (h.total == 0 || h.idx >= h.total || h.total > MAX_CHUNKS) {
        return Ok(Decoded::Corrupt {
            consumed: frame_len,
            why: format!("inconsistent chunk header (idx {} of {})", h.idx, h.total),
        });
    }
    let frame = WireFrame {
        kind,
        epoch: h.epoch,
        src: h.src,
        dst: h.dst,
        seq: h.seq,
        idx: h.idx,
        total: h.total,
        payload: &buf[HEADER_LEN..HEADER_LEN + len],
    };
    Ok(Decoded::Frame {
        frame,
        consumed: frame_len,
    })
}

/// The destination a partial frame stranded on a closed or broken
/// connection was headed for: best effort, so only the magic must hold and
/// the header must reach the `dst` field.
pub fn stranded_dst(buf: &[u8]) -> Option<u64> {
    if le(buf, 0, u32::from_le_bytes)? != MAGIC {
        return None;
    }
    le(buf, DST_AT, u64::from_le_bytes)
}

/// Flips one seed-chosen bit inside the payload region of an encoded frame
/// (falls back to the `seq` field for empty payloads, which is equally
/// checksum-covered and framing-safe). Returns the flipped (byte, bit) so
/// fault schedules can print it.
pub fn flip_payload_bit(encoded: &mut [u8], seed: u64) -> (usize, u8) {
    let payload_len = encoded.len().saturating_sub(HEADER_LEN + TRAILER_LEN);
    let (base, span) = if payload_len > 0 {
        (HEADER_LEN, payload_len)
    } else {
        (SEQ_AT, 8)
    };
    let bit = mix64(seed) % (span as u64 * 8);
    let byte = base + (bit / 8) as usize;
    let mask = 1u8 << (bit % 8);
    encoded[byte] ^= mask;
    (byte, bit as u8 % 8)
}

// ---------------------------------------------------------------- crc32

/// Slicing-by-8 tables for the reflected IEEE polynomial. `T[0]` is the
/// classic bytewise table; `T[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes, so eight lookups fold eight input bytes in
/// one step.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// The fold seeds its four accumulators with one 64-byte step, so shorter
/// inputs (heartbeats checksum 45 bytes) take the table loop. At 64 bytes
/// the fold already takes about a third of the table loop's time.
#[cfg(target_arch = "x86_64")]
const FOLD_MIN: usize = 64;

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
///
/// On x86_64 CPUs with PCLMULQDQ and SSE4.1, inputs of 64 bytes or more
/// are folded 64 bytes per step by carry-less multiplication (Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
/// Intel 2009); everything else runs the slicing-by-8 loop. Both compute
/// the same polynomial from the same initial value, so the result does
/// not depend on the path.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN {
        if let Some(c) = crc32_folded(!0, bytes) {
            return !c;
        }
    }
    !crc32_sliced(!0, bytes)
}

/// Advances the CRC register `c` over `bytes`, eight bytes per step.
fn crc32_sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The IEEE polynomial `P(x)`, unreflected, with its `x^32` term; the
/// tables use its reflection `0xEDB8_8320`.
#[cfg(target_arch = "x86_64")]
const IEEE: u64 = 0x1_04C1_1DB7;

/// `x^n mod P(x)`, bit-reflected and shifted left one place (a reflected
/// carry-less product comes out one bit short): a fold multiplier.
#[cfg(target_arch = "x86_64")]
const fn fold_constant(n: u32) -> i64 {
    let mut r = 1u64;
    let mut i = 0;
    while i < n {
        r <<= 1;
        if r & (1 << 32) != 0 {
            r ^= IEEE;
        }
        i += 1;
    }
    ((r as u32).reverse_bits() as i64) << 1
}

/// `x^64 div P(x)`, bit-reflected over its 33 bits: Barrett's `μ`.
#[cfg(target_arch = "x86_64")]
const fn barrett_mu() -> i64 {
    let (mut rem, mut q) = (1u128 << 64, 0u64);
    while rem >> 32 != 0 {
        let shift = 127 - rem.leading_zeros() - 32;
        q |= 1 << shift;
        rem ^= (IEEE as u128) << shift;
    }
    (q.reverse_bits() >> 31) as i64
}

/// Advances the CRC register `state` over `bytes` by carry-less folding,
/// when this CPU can; `None` when it lacks PCLMULQDQ or SSE4.1.
#[cfg(target_arch = "x86_64")]
fn crc32_folded(state: u32, bytes: &[u8]) -> Option<u32> {
    if std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1") {
        // SAFETY: `crc32_clmul` requires PCLMULQDQ and SSE4.1, which the
        // CPU was just checked for. It is an `unsafe fn` only because safe
        // `#[target_feature]` functions need Rust 1.86, past the MSRV.
        return Some(unsafe { crc32_clmul(state, bytes) });
    }
    None
}

/// Advances the CRC register `state` over `bytes` (at least [`FOLD_MIN`]):
/// four 128-bit accumulators fold 64 bytes per step, fold into one, which
/// folds through the remaining 16-byte blocks, is reduced to 64 bits and
/// Barrett-reduced to 32; the last 0–15 bytes go through the table loop.
///
/// # Safety
///
/// The CPU must support PCLMULQDQ and SSE4.1.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn crc32_clmul(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    // The paper's constants: K1/K2 multiply the low/high lane of a fold
    // across 4·128 bits, K3/K4 across 128 bits, K5 the last 32 bits of 96.
    const K1: i64 = fold_constant(4 * 128 + 32);
    const K2: i64 = fold_constant(4 * 128 - 32);
    const K3: i64 = fold_constant(128 + 32);
    const K4: i64 = fold_constant(128 - 32);
    const K5: i64 = fold_constant(64);
    const MU: i64 = barrett_mu();
    const P: i64 = (0xEDB8_8320 << 1) | 1;
    // Block `i` (16 bytes) of `s`. SAFETY: the indexing panics before a
    // read could leave `bytes`, and `loadu` needs no alignment.
    macro_rules! load {
        ($s:expr, $i:expr) => {
            _mm_loadu_si128($s[16 * $i..16 * $i + 16].as_ptr().cast())
        };
    }
    // `acc` carried forward by the distance the constants in `k` encode,
    // plus `block`.
    macro_rules! fold {
        ($acc:expr, $block:expr, $k:expr) => {
            _mm_xor_si128(
                _mm_xor_si128(
                    _mm_clmulepi64_si128($acc, $k, 0x00),
                    _mm_clmulepi64_si128($acc, $k, 0x11),
                ),
                $block,
            )
        };
    }
    let (first, rest) = bytes.split_at(FOLD_MIN);
    let quads = rest.chunks_exact(64);
    let blocks = quads.remainder().chunks_exact(16);
    let tail = blocks.remainder();
    let mut x0 = _mm_xor_si128(load!(first, 0), _mm_cvtsi32_si128(state as i32));
    let mut x1 = load!(first, 1);
    let mut x2 = load!(first, 2);
    let mut x3 = load!(first, 3);
    let by_four = _mm_set_epi64x(K2, K1);
    for q in quads {
        x0 = fold!(x0, load!(q, 0), by_four);
        x1 = fold!(x1, load!(q, 1), by_four);
        x2 = fold!(x2, load!(q, 2), by_four);
        x3 = fold!(x3, load!(q, 3), by_four);
    }
    let by_one = _mm_set_epi64x(K4, K3);
    let mut x = fold!(fold!(fold!(x0, x1, by_one), x2, by_one), x3, by_one);
    for b in blocks {
        x = fold!(x, load!(b, 0), by_one);
    }
    // 128 bits to 64: the low lane carried over the high one, then the low
    // 32 bits of that over the remaining 64.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, by_one, 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett reduction, bit-reflected: T1 = (R mod x^32)·μ,
    // T2 = (T1 mod x^32)·P, and the CRC is the upper half of R ^ T2.
    let mu_p = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), mu_p, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), mu_p, 0x00);
    let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
    crc32_sliced(c, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise definition every path must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn every_crc32_path_equals_the_bytewise_loop_at_every_length_and_offset() {
        let data: Vec<u8> = (0..(1u64 << 20) + 16).map(|i| mix64(i) as u8).collect();
        let check = |s: &[u8], what: &str| {
            let want = crc32_bytewise(s);
            assert_eq!(crc32(s), want, "dispatched, {what}");
            assert_eq!(!crc32_sliced(!0, s), want, "sliced, {what}");
            #[cfg(target_arch = "x86_64")]
            if s.len() >= FOLD_MIN {
                if let Some(c) = crc32_folded(!0, s) {
                    assert_eq!(!c, want, "folded, {what}");
                }
            }
        };
        // Every length across the dispatch threshold, many 64-byte steps
        // and every 16-byte block count, from every alignment, so each
        // fold, block and tail path runs.
        for start in 0..16 {
            for len in 0..=1100 {
                check(
                    &data[start..start + len],
                    &format!("start {start} len {len}"),
                );
            }
        }
        // One 4 KiB frame's checksummed region, and a mebibyte.
        check(&data[..4141], "len 4141");
        check(&data[3..3 + (1 << 20)], "len 1 MiB");
        check(&[0xFF; 1000], "1000 x 0xFF");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = WireFrame::data(3, 1, 2, 40, 5, 9, vec![7u8; 300]);
        let bytes = f.encode();
        match decode(&bytes).unwrap() {
            Decoded::Frame { frame, consumed } => {
                let payload = frame.payload.to_vec();
                let WireFrame {
                    kind,
                    epoch,
                    src,
                    dst,
                    seq,
                    idx,
                    total,
                    ..
                } = frame;
                let owned = WireFrame {
                    kind,
                    epoch,
                    src,
                    dst,
                    seq,
                    idx,
                    total,
                    payload,
                };
                assert_eq!(owned, f);
                assert_eq!(consumed, bytes.len());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn encode_into_appends_the_frame_encode_returns() {
        let a = WireFrame::data(1, 2, 3, 4, 0, 2, vec![9u8; 100]);
        let b = WireFrame::data(1, 2, 3, 4, 1, 2, &[5u8; 17][..]);
        let mut out = vec![0xEE; 3];
        a.encode_into(&mut out);
        b.encode_into(&mut out);
        let mut want = vec![0xEE; 3];
        want.extend(a.encode());
        want.extend(b.encode());
        assert_eq!(out, want);
        assert_eq!(out.len(), 3 + frame_len(100) + frame_len(17));
    }

    #[test]
    fn short_buffer_asks_for_more() {
        let bytes = WireFrame::heartbeat(2, u64::MAX, 17).encode();
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]).unwrap() {
                Decoded::Need => {}
                other => panic!("truncated at {cut} must ask for more, got {other:?}"),
            }
        }
    }

    #[test]
    fn payload_bit_flip_is_detected_and_skippable() {
        let f = WireFrame::data(0, 0, 1, 0, 0, 1, (0..64).collect::<Vec<u8>>());
        let tail = WireFrame::heartbeat(1, u64::MAX, 1).encode();
        for seed in 0..32u64 {
            let mut bytes = f.encode();
            let n = bytes.len();
            flip_payload_bit(&mut bytes, seed);
            bytes.extend_from_slice(&tail);
            match decode(&bytes).unwrap() {
                Decoded::Corrupt { consumed, .. } => {
                    assert_eq!(consumed, n, "skip lands on the next frame boundary");
                    assert!(matches!(
                        decode(&bytes[consumed..]).unwrap(),
                        Decoded::Frame { .. }
                    ));
                }
                other => panic!("flipped payload must fail the checksum, got {other:?}"),
            }
        }
    }

    #[test]
    fn broken_framing_is_a_typed_error() {
        let mut bytes = WireFrame::data(0, 0, 1, 0, 0, 1, vec![1, 2, 3]).encode();
        bytes[0] ^= 0xFF; // magic
        assert!(matches!(decode(&bytes), Err(PcError::Transport(_))));
        let mut bytes = WireFrame::data(0, 0, 1, 0, 0, 1, vec![1, 2, 3]).encode();
        bytes[45..49].copy_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        assert!(matches!(decode(&bytes), Err(PcError::Transport(_))));
    }
}
