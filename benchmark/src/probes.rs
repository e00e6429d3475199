//! Probes: isolated calls into one layer's public functions, replaying the
//! page volume the traced run reported. They run after the traced jobs,
//! outside any `job` span, and each reports the median of `REPEATS` runs.

use crate::stats::median;
use crate::workloads::{Counters, Workload};
use pc_cluster::MASTER;
use pc_core::prelude::*;
use pc_storage::{Catalog, StorageManager};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const REPEATS: usize = 5;
/// Ceiling on pages the wire probe sends, whatever the run shuffled.
const MAX_WIRE_PAGES: usize = 4096;

fn timed<T>(f: impl FnOnce() -> PcResult<T>) -> PcResult<(T, f64)> {
    let t = Instant::now();
    let v = f()?;
    Ok((v, t.elapsed().as_secs_f64()))
}

/// `pages_shuffled` is what one traced job moved between nodes; `scratch`
/// is a directory the storage probe may create its spill files under.
pub fn run(w: &dyn Workload, pages_shuffled: usize, scratch: &Path) -> PcResult<Counters> {
    let cluster = w.client().cluster();
    let (mut build, mut roundtrip, mut wire, mut append, mut scan) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut rows, mut input_bytes, mut wire_bytes) = (0u64, 0u64, 0u64);

    for rep in 0..REPEATS {
        // object: allocation + page sealing, no cluster.
        let ((n, pages), t) = timed(|| w.build_pages())?;
        build.push(t);
        rows = n;
        input_bytes = pages.iter().map(|p| p.used() as u64).sum();

        // object: the zero-serialization page movement path.
        let ((), t) = timed(|| {
            for p in &pages {
                let moved = SealedPage::from_bytes(&p.to_bytes())?;
                std::hint::black_box(moved.open_view()?);
            }
            Ok(())
        })?;
        roundtrip.push(t);

        // cluster: the run's shuffled page count through its own transport.
        let n_wire = pages_shuffled.clamp(1, MAX_WIRE_PAGES);
        let (received, t) = timed(|| {
            for i in 0..n_wire {
                cluster
                    .transport()
                    .send(MASTER, 0, &pages[i % pages.len()])?;
            }
            cluster.transport().collect(0)
        })?;
        if received.len() != n_wire {
            return Err(PcError::Transport(format!(
                "wire probe sent {n_wire} pages, collected {}",
                received.len()
            )));
        }
        wire_bytes = received.iter().map(|p| p.used() as u64).sum();
        wire.push(t);

        // storage: append then scan on a fresh manager at the run's pool size.
        let store = StorageManager::new(
            Arc::new(Catalog::new()),
            cluster.config.pool_capacity,
            scratch.join(format!("probe_store_{rep}")),
        )?;
        store.create_or_clear_set("probe", "pages")?;
        let ((), t) = timed(|| {
            pages
                .into_iter()
                .try_for_each(|p| store.append_page("probe", "pages", p))
        })?;
        append.push(t);
        let (scanned, t) = timed(|| store.scan("probe", "pages"))?;
        std::hint::black_box(scanned);
        scan.push(t);
    }

    let wire_s = median(&wire);
    Ok(vec![
        ("object.build_rows_per_s", rows as f64 / median(&build)),
        ("object.bytes_per_row", input_bytes as f64 / rows as f64),
        ("object.page_roundtrip_s", median(&roundtrip)),
        ("cluster.wire_probe_s", wire_s),
        ("cluster.wire_mb_per_s", wire_bytes as f64 / 1e6 / wire_s),
        ("storage.append_s", median(&append)),
        ("storage.scan_s", median(&scan)),
        ("input_bytes", input_bytes as f64),
    ])
}
