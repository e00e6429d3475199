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

/// CRC-32 (IEEE 802.3, reflected) over `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
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
    !c
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

    /// The bytewise definition the sliced loop must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop_at_every_length_and_offset() {
        let data: Vec<u8> = (0..4096u64).map(|i| mix64(i) as u8).collect();
        // Every length across several multiples of the 8-byte step, from
        // every starting alignment, so each remainder path runs.
        for start in 0..8 {
            for len in 0..80 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(&data), crc32_bytewise(&data));
        assert_eq!(crc32(&[0xFF; 1000]), crc32_bytewise(&[0xFF; 1000]));
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
