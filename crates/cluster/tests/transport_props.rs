//! Property tests for the transport delivery contract: arbitrary page
//! batches handed over in process, pushed through chunking/reassembly, and
//! through seeded fault injection with retries come out **exactly once, in
//! send order, with no torn pages** (byte-identical `SealedPage`s).

use pc_cluster::{
    FaultKind, FaultSpec, FaultyTransport, LocalTransport, TcpConfig, TcpTransport, Transport,
    TransportMeter, MASTER,
};
use pc_lambda::SetWriter;
use pc_object::{make_object, PcVec, SealedPage};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::sync::Arc;

const WORKERS: usize = 3;

/// One send: (destination worker, payload tag, payload length).
fn batch_strategy() -> impl Strategy<Value = Vec<(usize, i64, usize)>> {
    pvec((0..WORKERS, 0..1_000i64, 1..40usize), 1..24)
}

/// A single sealed page whose payload is a `PcVec<i64>` derived from
/// (tag, len) — distinct specs give distinct bytes, so byte equality is a
/// real identity check.
fn page(tag: i64, len: usize) -> SealedPage {
    let mut w = SetWriter::new(1 << 14);
    w.write_with(|| {
        let v = make_object::<PcVec<i64>>()?;
        for i in 0..len as i64 {
            v.push(tag * 1_000 + i)?;
        }
        Ok(v.erase())
    })
    .unwrap();
    w.finish().unwrap().into_iter().next().unwrap()
}

/// Sends the batch, collects every destination, and checks the delivery
/// contract: per-destination page sequences byte-identical to send order.
fn check_delivery(
    t: &dyn Transport,
    batch: &[(usize, i64, usize)],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let pages: Vec<(usize, SealedPage)> = batch
        .iter()
        .map(|(dst, tag, len)| (*dst, page(*tag, *len)))
        .collect();
    for (dst, p) in &pages {
        t.send(MASTER, *dst, p)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(format!("send failed: {e}")))?;
    }
    for dst in 0..WORKERS {
        let got = t
            .collect(dst)
            .map_err(|e| {
                proptest::test_runner::TestCaseError::fail(format!("collect({dst}) failed: {e}"))
            })?
            .iter()
            .map(|p| p.to_bytes())
            .collect::<Vec<_>>();
        let want: Vec<Vec<u8>> = pages
            .iter()
            .filter(|(d, _)| *d == dst)
            .map(|(_, p)| p.to_bytes())
            .collect();
        prop_assert_eq!(
            got.len(),
            want.len(),
            "dst {}: duplicated or missing pages",
            dst
        );
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g, w, "dst {} page {}: torn or misordered", dst, i);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn local_hand_over_delivers_exactly_once_in_order(batch in batch_strategy()) {
        let meter = Arc::new(TransportMeter::default());
        let t = LocalTransport::new(meter.clone());
        check_delivery(&t, &batch)?;
        prop_assert_eq!(meter.pages_shuffled(), batch.len() as u64);
        prop_assert_eq!(meter.bytes_retransmitted(), 0);
    }

    #[test]
    fn tcp_chunking_reassembles_exactly_once_in_order(
        batch in batch_strategy(),
        chunk in 48usize..256,
    ) {
        let meter = Arc::new(TransportMeter::default());
        let t = TcpTransport::new(
            meter.clone(),
            TcpConfig {
                chunk_bytes: chunk, // far below page size: many frames/page
                ..TcpConfig::default()
            },
            WORKERS,
        )
        .unwrap();
        check_delivery(&t, &batch)?;
        prop_assert_eq!(meter.pages_shuffled(), batch.len() as u64);
        prop_assert_eq!(meter.bytes_retransmitted(), 0);
    }

    #[test]
    fn faulty_transport_with_retries_preserves_the_contract(
        batch in batch_strategy(),
        seed in 0..u64::MAX,
        rate in 0u16..=256,
    ) {
        let meter = Arc::new(TransportMeter::default());
        let inner = TcpTransport::new(
            meter.clone(),
            TcpConfig {
                chunk_bytes: 96,
                ..TcpConfig::default()
            },
            WORKERS,
        )
        .unwrap();
        let spec = FaultSpec {
            rate,
            ..FaultSpec::seeded(
                seed,
                &[
                    FaultKind::Drop,
                    FaultKind::Delay,
                    FaultKind::Reorder,
                    FaultKind::Corrupt,
                ],
            )
        };
        let t = FaultyTransport::new(inner, spec);
        t.arm();
        check_delivery(&t, &batch)?;
        // Exactly-once at the meter too: logical traffic counts each page
        // once no matter how many wire attempts it took.
        prop_assert_eq!(meter.pages_shuffled(), batch.len() as u64);
    }
}
