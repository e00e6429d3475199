//! Wire-codec robustness: arbitrary frames round-trip exactly, and every
//! kind of wire damage — truncation, bit flips, short reads, garbage —
//! surfaces as a typed outcome (`Need`, `Corrupt`, or `PcError::Transport`),
//! never as a decoded garbage frame and never as a panic.

use pc_cluster::wire::{self, Decoded, FrameKind, WireFrame};
use pc_object::PcError;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Data frames whose checksummed region (45 header bytes plus the
/// payload) runs from below the CRC's 64-byte fold threshold past a
/// default 4 KiB chunk, so both CRC paths and the fold's tail are drawn.
fn frame_strategy() -> impl Strategy<Value = WireFrame> {
    (
        0..3u64,                     // epoch
        0..8u64,                     // src
        0..8u64,                     // dst
        0..1_000u64,                 // seq
        (0..16u32, 1..17u32),        // idx < total
        pvec(any::<u8>(), 0..4_200), // payload
    )
        .prop_map(|(epoch, src, dst, seq, (idx, total), payload)| {
            WireFrame::data(epoch, src, dst, seq, idx % total, total, payload)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_is_exact(frame in frame_strategy()) {
        let encoded = frame.encode();
        match wire::decode(&encoded) {
            Ok(Decoded::Frame { frame: got, consumed }) => {
                prop_assert_eq!(consumed, encoded.len());
                prop_assert_eq!(got.kind, FrameKind::Data);
                prop_assert_eq!(got.epoch, frame.epoch);
                prop_assert_eq!(got.src, frame.src);
                prop_assert_eq!(got.dst, frame.dst);
                prop_assert_eq!(got.seq, frame.seq);
                prop_assert_eq!(got.idx, frame.idx);
                prop_assert_eq!(got.total, frame.total);
                prop_assert_eq!(got.payload, frame.payload);
            }
            other => prop_assert!(false, "clean frame failed to decode: {:?}", other),
        }
    }

    #[test]
    fn every_truncation_is_need_never_garbage(frame in frame_strategy()) {
        // A short read at *any* cut point must ask for more bytes; the
        // decoder must never mistake a prefix for a complete frame.
        let encoded = frame.encode();
        for cut in 0..encoded.len() {
            match wire::decode(&encoded[..cut]) {
                Ok(Decoded::Need) => {}
                other => prop_assert!(
                    false,
                    "truncation at {} of {} decoded to {:?}",
                    cut, encoded.len(), other
                ),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected(
        frame in frame_strategy(),
        bit in any::<usize>(),
    ) {
        // Flip one bit anywhere in the encoded frame. Three outcomes are
        // legitimate: the checksum catches it (Corrupt), the framing itself
        // becomes untrustworthy (typed Err), or a header flip inflates the
        // length so the buffer looks incomplete (Need). What must never
        // happen: a successfully decoded frame, or a panic.
        let mut encoded = frame.encode();
        let n_bits = encoded.len() * 8;
        let b = bit % n_bits;
        encoded[b / 8] ^= 1 << (b % 8);
        match wire::decode(&encoded) {
            Ok(Decoded::Corrupt { consumed, .. }) => {
                prop_assert!(consumed > 0, "corrupt frames must consume bytes");
            }
            Ok(Decoded::Need) | Err(PcError::Transport(_)) => {}
            other => prop_assert!(
                false,
                "bit flip at {} decoded cleanly: {:?}",
                b, other
            ),
        }
    }

    #[test]
    fn random_garbage_never_panics(junk in pvec(any::<u8>(), 0..256)) {
        // Arbitrary bytes must produce a typed outcome, never a panic.
        let _ = wire::decode(&junk);
    }
}

#[test]
fn corrupt_skip_resynchronizes_on_the_next_frame() {
    // The length-prefixed framing localizes a payload flip to one frame:
    // after skipping the corrupt frame, the next one decodes cleanly.
    let a = WireFrame::data(0, 1, 2, 7, 0, 2, vec![0xAA; 64]).encode();
    let b = WireFrame::data(0, 1, 2, 7, 1, 2, vec![0xBB; 64]).encode();
    let mut buf = a.clone();
    wire::flip_payload_bit(&mut buf, 42);
    buf.extend_from_slice(&b);
    let Ok(Decoded::Corrupt { consumed, .. }) = wire::decode(&buf) else {
        panic!("mangled first frame must be Corrupt");
    };
    assert_eq!(consumed, a.len(), "skip lands exactly on the next frame");
    match wire::decode(&buf[consumed..]) {
        Ok(Decoded::Frame { frame, consumed }) => {
            assert_eq!(consumed, b.len());
            assert_eq!(frame.idx, 1);
            assert_eq!(frame.payload, vec![0xBB; 64]);
        }
        other => panic!("clean second frame must decode: {other:?}"),
    }
}

#[test]
fn heartbeat_frames_roundtrip() {
    let hb = WireFrame::heartbeat(3, u64::MAX, 99).encode();
    match wire::decode(&hb) {
        Ok(Decoded::Frame { frame, consumed }) => {
            assert_eq!(consumed, hb.len());
            assert_eq!(frame.kind, FrameKind::Heartbeat);
            assert_eq!(frame.src, 3);
            assert_eq!(frame.dst, u64::MAX);
            assert_eq!(frame.seq, 99, "the beat counter rides in seq");
        }
        other => panic!("heartbeat must decode: {other:?}"),
    }
}
