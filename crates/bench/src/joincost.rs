//! `repro joincost` — the join's cost split into its build and its probe.
//!
//! The shape is the relational benchmark query's join: 60 000 probe rows
//! (the query's `build` set, every key twice) against a table of 30 000
//! build rows (its `dim` set, unique keys), every row a two-`i64` object,
//! on one thread. The table is built the way the engine's build
//! sink builds it — [`JoinBuilder::push_batch`] over 1 024-row batches,
//! two morsels (one builder each), 4 partitions, 1 MiB pages — and probed
//! the way a pipeline probes it, [`JoinTable::probe_into`] per row into
//! reused buffers. Each rep times the build (sealing included) and the
//! probe on their own; the report is the median of each over the reps and
//! the sealed table's bytes per build row (what a broadcast ships and a
//! spill writes).

use crate::util::row;
use pc_exec::{JoinBuilder, JoinTable};
use pc_object::hash::hash_i64;
use pc_object::{make_object, pc_object, AllocScope, AnyHandle, SealedPage};
use std::sync::Arc;
use std::time::Instant;

/// Probe-side rows; every key is probed `PROBE_ROWS / KEYS` times.
const PROBE_ROWS: usize = 60_000;
/// Table rows, one per distinct key.
const KEYS: usize = 30_000;
/// The engine's default batch size, partition count and page size.
const BATCH: usize = 1024;
const PARTITIONS: usize = 4;
const PAGE_SIZE: usize = 1 << 20;
/// Builders the table rows are split over, as two input pages give two
/// build morsels.
const MORSELS: usize = 2;

pc_object! {
    /// A two-`i64` row.
    pub struct Pair / PairView {
        (key, set_key): i64,
        (val, set_val): i64,
    }
}

/// One column of rows and their join hashes.
struct Side {
    objs: Vec<AnyHandle>,
    hashes: Vec<u64>,
}

fn side(keys: impl Iterator<Item = i64>) -> Side {
    let (mut objs, mut hashes) = (Vec::new(), Vec::new());
    for (i, key) in keys.enumerate() {
        let p = make_object::<Pair>().expect("the source block holds every row");
        p.v().set_key(key).expect("flat field");
        p.v().set_val(i as i64 % 1000).expect("flat field");
        objs.push(p.erase());
        hashes.push(hash_i64(key));
    }
    Side { objs, hashes }
}

/// Builds the table from `dim`, morsel by morsel, batch by batch.
fn build(dim: &Side) -> Vec<(usize, Arc<SealedPage>)> {
    let mut pages = Vec::new();
    let per = dim.objs.len().div_ceil(MORSELS);
    for lo in (0..dim.objs.len()).step_by(per) {
        let hi = (lo + per).min(dim.objs.len());
        let mut t = JoinBuilder::new(PARTITIONS, PAGE_SIZE);
        for at in (lo..hi).step_by(BATCH) {
            let end = (at + BATCH).min(hi);
            t.push_batch(&dim.hashes[at..end], None, &dim.objs[at..end])
                .expect("build");
        }
        let sealed = t.into_pages().expect("seal");
        pages.extend(sealed.into_iter().map(|(p, page)| (p, Arc::new(page))));
    }
    pages
}

/// Probes every row of `probe` in batches; returns the match count.
fn probe(t: &JoinTable, probe: &Side) -> usize {
    let (mut idx, mut built) = (Vec::new(), Vec::new());
    let mut matches = 0;
    for batch in probe.hashes.chunks(BATCH) {
        idx.clear();
        built.clear();
        for (i, &h) in batch.iter().enumerate() {
            matches += t.probe_into(h, i as u32, &mut idx, &mut built);
        }
        std::hint::black_box((&idx, &built));
    }
    matches
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Runs `reps` reps (3 with `quick`, 11 otherwise) and prints the medians.
pub fn joincost(quick: bool) {
    let reps = if quick { 3 } else { 11 };
    let _scope = AllocScope::new(16 << 20);
    let dim = side(0..KEYS as i64);
    let stride = side((0..PROBE_ROWS).map(|i| ((i * 997) % KEYS) as i64));
    let (mut build_ms, mut probe_ms) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let pages = build(&dim);
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        bytes = pages.iter().map(|(_, p)| p.used()).sum::<usize>();
        let table = JoinTable::from_shared_pages(PARTITIONS, &pages).expect("reopen");
        let t0 = Instant::now();
        let matches = probe(&table, &stride);
        probe_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(matches, PROBE_ROWS, "every probe row matches one table row");
    }
    println!(
        "joincost: {PROBE_ROWS} probe rows x {KEYS} table rows (two-i64), 1 thread, \
         {PARTITIONS} partitions, {} KiB pages, median of {reps} reps",
        PAGE_SIZE >> 10
    );
    let widths = [10, 10, 20, 14];
    row(
        &[
            "build ms".into(),
            "probe ms".into(),
            "bytes / build row".into(),
            "table MB".into(),
        ],
        &widths,
    );
    row(
        &[
            format!("{:.2}", median(build_ms)),
            format!("{:.2}", median(probe_ms)),
            format!("{:.1}", bytes as f64 / KEYS as f64),
            format!("{:.2}", bytes as f64 / 1e6),
        ],
        &widths,
    );
}
