//! The real-socket transport on its own: exactly-once in-order delivery,
//! heartbeat-driven failure detection beating the collect deadline,
//! metered backoff reconnection after a crash-restart, and corruption
//! converting into clean retransmits or typed errors — never garbage
//! pages. (Whole-cluster byte-identity against the in-process baseline
//! lives in `faults.rs`.)

use pc_cluster::{TcpConfig, TcpTransport, Transport, TransportMeter, MASTER};
use pc_lambda::SetWriter;
use pc_object::{make_object, PcError, PcVec, SealedPage};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn page(tag: i64) -> SealedPage {
    let mut w = SetWriter::new(1 << 14);
    w.write_with(|| {
        let v = make_object::<PcVec<i64>>()?;
        for i in 0..64 {
            v.push(tag * 1_000 + i)?;
        }
        Ok(v.erase())
    })
    .unwrap();
    w.finish().unwrap().into_iter().next().unwrap()
}

/// A tight config so liveness tests run in milliseconds, not seconds.
fn quick_config() -> TcpConfig {
    TcpConfig {
        chunk_bytes: 256, // several frames per page
        heartbeat_interval: Duration::from_millis(20),
        suspect_after: 3,
        collect_deadline: Duration::from_secs(5),
    }
}

#[test]
fn sockets_deliver_exactly_once_in_order() {
    let meter = Arc::new(TransportMeter::default());
    let t = TcpTransport::new(meter.clone(), quick_config(), 2).unwrap();
    let pages: Vec<SealedPage> = (0..8).map(page).collect();
    for p in &pages {
        t.send(MASTER, 1, p).unwrap();
    }
    let got = t.collect(1).unwrap();
    assert_eq!(got.len(), pages.len());
    for (g, want) in got.iter().zip(&pages) {
        assert_eq!(g.to_bytes(), want.to_bytes(), "torn or misordered page");
    }
    assert_eq!(meter.pages_shuffled(), 8);
    assert_eq!(meter.bytes_retransmitted(), 0);
}

/// A page of `n` `i64`s on a 4 MiB page.
fn big_page(tag: i64, n: i64) -> SealedPage {
    let mut w = SetWriter::new(4 << 20);
    w.write_with(|| {
        let v = make_object::<PcVec<i64>>()?;
        for i in 0..n {
            v.push(tag * 10_000_000 + i)?;
        }
        Ok(v.erase())
    })
    .unwrap();
    w.finish().unwrap().into_iter().next().unwrap()
}

#[test]
fn pages_larger_than_the_read_buffer_arrive_intact() {
    // Over 10 MB through one link: the reader's buffer wraps many times at
    // the default 4 KiB chunks, and under a 2 MiB chunk size a single frame
    // is longer than the buffer itself.
    let pages: Vec<SealedPage> = (0..6).map(|t| big_page(t, 120_000)).collect();
    assert!(pages[0].used() > 1 << 20);
    for chunk_bytes in [TcpConfig::default().chunk_bytes, 2 << 20] {
        let meter = Arc::new(TransportMeter::default());
        let config = TcpConfig {
            chunk_bytes,
            ..quick_config()
        };
        let t = TcpTransport::new(meter.clone(), config, 2).unwrap();
        for p in &pages {
            t.send(MASTER, 0, p).unwrap();
        }
        let got = t.collect(0).unwrap();
        assert_eq!(got.len(), pages.len());
        for (g, want) in got.iter().zip(&pages) {
            assert!(
                g.payload() == want.payload(),
                "chunk {chunk_bytes}: torn page"
            );
        }
        let want_bytes: usize = pages.iter().map(SealedPage::used).sum();
        assert_eq!(meter.bytes_shuffled(), want_bytes as u64);
        assert_eq!(meter.bytes_retransmitted(), 0);
    }
}

#[test]
fn heartbeat_liveness_detects_death_before_the_deadline() {
    let meter = Arc::new(TransportMeter::default());
    let t = TcpTransport::new(meter.clone(), quick_config(), 2).unwrap();
    // A send whose only wire copy is mangled: the checksum rejects it, so
    // the destination waits on a page that will never arrive — exactly the
    // situation a silent worker death creates.
    t.send_corrupted(MASTER, 1, &page(1), 0xF11, false).unwrap();
    t.kill(0);
    let start = Instant::now();
    let err = t.collect(1).unwrap_err();
    let waited = start.elapsed();
    assert_eq!(err, PcError::WorkerDead(0), "the suspect is named");
    assert!(
        waited < Duration::from_secs(2),
        "missed heartbeats must preempt the {:?} collect deadline (took {waited:?})",
        quick_config().collect_deadline
    );
    assert!(
        meter.heartbeats_missed() >= 3,
        "each missed beat is metered (got {})",
        meter.heartbeats_missed()
    );
}

#[test]
fn crash_restart_reconnects_with_backoff_and_meters_it() {
    let meter = Arc::new(TransportMeter::default());
    let t = TcpTransport::new(meter.clone(), quick_config(), 2).unwrap();
    t.send(MASTER, 0, &page(1)).unwrap();
    assert_eq!(t.collect(0).unwrap().len(), 1);
    // Crash: connections sever, heartbeats stop, the monitor suspects.
    t.kill(0);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(t.suspects(), vec![0], "silence must raise suspicion");
    // Restart: recovery's reset + revive. The heartbeat endpoint re-dials
    // (metered), suspicion clears, and the link carries pages again.
    t.reset();
    t.revive(0);
    t.send(MASTER, 0, &page(2)).unwrap();
    assert_eq!(t.collect(0).unwrap().len(), 1);
    // The heartbeat endpoint re-dials on its own schedule: wait for the
    // metered reconnect rather than racing it.
    let deadline = Instant::now() + Duration::from_secs(3);
    while meter.reconnects() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(t.suspects().is_empty(), "restart must clear suspicion");
    assert!(
        meter.reconnects() >= 1,
        "the re-dialed heartbeat link is metered"
    );
}

#[test]
fn corruption_on_the_socket_is_retransmitted_clean() {
    let meter = Arc::new(TransportMeter::default());
    let t = TcpTransport::new(meter.clone(), quick_config(), 2).unwrap();
    let p = page(7);
    // One frame's payload is bit-flipped on the wire; the clean copy
    // follows. The receiver must reject the mangled frame by checksum and
    // deliver the page intact.
    t.send_corrupted(MASTER, 1, &p, 0xBEEF, true).unwrap();
    let got = t.collect(1).unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(
        got[0].to_bytes(),
        p.to_bytes(),
        "delivered page must be the clean copy"
    );
    assert!(
        meter.bytes_retransmitted() > 0,
        "the checksum-rejected frame is metered as waste"
    );
    assert_eq!(meter.pages_shuffled(), 1, "still exactly one logical page");
}

#[test]
fn reset_fences_deliveries_of_the_aborted_epoch() {
    // Recovery resets the transport and then rolls the meter back: once
    // `reset()` returns, nothing sent before it may still be metered as a
    // logical delivery, or the replay's traffic count drifts from a clean
    // run's.
    let meter = Arc::new(TransportMeter::default());
    let t = TcpTransport::new(meter.clone(), quick_config(), 2).unwrap();
    for round in 0..20 {
        for i in 0..8 {
            t.send(MASTER, 1, &page(i)).unwrap();
        }
        // Sweep the reset across the poll loop's delivery of those pages.
        std::thread::sleep(Duration::from_micros(300 * round));
        t.reset();
        let at_reset = meter.pages_shuffled();
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(
            meter.pages_shuffled(),
            at_reset,
            "round {round}: a page of the aborted epoch was delivered after reset"
        );
    }
}
