//! `repro aggcost` — the aggregation's cost split into its three steps.
//!
//! The shape is the relational benchmark query's aggregation: 60 000
//! two-`i64` rows into 30 000 groups (`(Σval, count)` per key), 4
//! partitions, 1 MiB pages. Each rep runs the steps the engine runs on one
//! worker and times them apart: **pre-aggregate** (two morsels, one
//! [`ErasedAggSink`](pc_lambda::ErasedAggSink) each, fed 1 024-row batches on one thread), **combine**
//! (each partition's morsel pages merged into one, as the combining
//! threads do) and **owner finalize** ([`finalize_owned`], the engine's own
//! aggregation threads) at 1 and at 2 threads, which the lane rule
//! ([`aggregation_lanes`]) turns into the lane counts printed. Both
//! finalizes must write the same page bytes, and their rows must hold
//! every group and Σ. The report is the median of each time over the reps.

use crate::util::row;
use pc_cluster::stages::{aggregation_lanes, finalize_owned};
use pc_lambda::{AggPage, AggregateSpec, Column, ErasedAgg, SpillCtx};
use pc_object::{
    make_object, pc_object, AllocScope, AnyHandle, AnyObj, BlockRef, Handle, PcResult, PcVec,
    SealedPage,
};
use pc_storage::StorageManager;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Input rows; every group gets `ROWS / GROUPS` of them.
const ROWS: usize = 60_000;
const GROUPS: usize = 30_000;
/// The engine's default batch size, partition count and page size.
const BATCH: usize = 1024;
const PARTITIONS: usize = 4;
const PAGE_SIZE: usize = 1 << 20;
/// Sinks the rows are split over, as two input pages give two morsels.
const MORSELS: usize = 2;

pc_object! {
    /// A two-`i64` input row.
    pub struct AggRow / AggRowView {
        (key, set_key): i64,
        (val, set_val): i64,
    }
}

pc_object! {
    /// One output group: the key, Σval and the row count.
    pub struct GroupSum / GroupSumView {
        (key, set_key): i64,
        (sum, set_sum): i64,
        (count, set_count): i64,
    }
}

/// `(Σval, count)` per key.
struct SumCount;

impl AggregateSpec for SumCount {
    type In = AggRow;
    type Key = i64;
    type Val = (i64, i64);
    type Out = GroupSum;

    fn key_of(&self, rec: &Handle<AggRow>) -> PcResult<i64> {
        Ok(rec.v().key())
    }

    fn init(&self, _b: &BlockRef, rec: &Handle<AggRow>) -> PcResult<(i64, i64)> {
        Ok((rec.v().val(), 1))
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<AggRow>) -> PcResult<()> {
        let (sum, count): (i64, i64) = b.read(slot);
        b.write(slot, (sum + rec.v().val(), count + 1));
        Ok(())
    }

    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()> {
        let (s1, c1): (i64, i64) = dst.read(dst_slot);
        let (s2, c2): (i64, i64) = src.read(src_slot);
        dst.write(dst_slot, (s1 + s2, c1 + c2));
        Ok(())
    }

    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<GroupSum>> {
        let (sum, count): (i64, i64) = b.read(slot);
        let out = make_object::<GroupSum>()?;
        out.v().set_key(*key)?;
        out.v().set_sum(sum)?;
        out.v().set_count(count)?;
        Ok(out)
    }
}

/// Pre-aggregates `rows`, morsel by morsel, batch by batch; returns every
/// morsel's `(partition, page)` pairs in morsel order.
fn pre_aggregate(
    agg: &dyn ErasedAgg,
    rows: &[AnyHandle],
    spill: &SpillCtx,
) -> Vec<(usize, AggPage)> {
    let mut parts = Vec::new();
    for morsel in rows.chunks(rows.len().div_ceil(MORSELS)) {
        let mut sink = agg.new_sink(PARTITIONS, PAGE_SIZE, spill.clone());
        for batch in morsel.chunks(BATCH) {
            sink.absorb(&Column::Obj(batch.to_vec()), None)
                .expect("absorb");
        }
        parts.extend(sink.flush().expect("flush"));
    }
    parts
}

/// Merges each partition's morsel pages into one page, as a worker's
/// combining threads do; a partition with one page passes as it is.
fn combine(agg: &dyn ErasedAgg, parts: Vec<(usize, AggPage)>) -> BTreeMap<usize, Vec<SealedPage>> {
    let mut by_part: BTreeMap<usize, Vec<AggPage>> = BTreeMap::new();
    for (part, page) in parts {
        by_part.entry(part).or_default().push(page);
    }
    let mut inbox = BTreeMap::new();
    for (part, pages) in by_part {
        let mut merger = agg.new_merger(PAGE_SIZE);
        let combined = match <[AggPage; 1]>::try_from(pages) {
            Ok([page]) => vec![page.load().expect("load")],
            Err(pages) => {
                for page in pages {
                    merger
                        .merge_page(page.load().expect("load"))
                        .expect("merge");
                }
                merger.into_pages().expect("seal")
            }
        };
        inbox.insert(part, combined);
    }
    inbox
}

/// `(groups, Σsum, Σcount)` over the rows of `pages`.
fn summary(pages: &[SealedPage]) -> (usize, i64, i64) {
    let mut s = (0, 0, 0);
    for page in pages {
        let (_block, root) = page.clone().open().expect("open");
        let rows = root
            .downcast::<PcVec<Handle<AnyObj>>>()
            .expect("a set page");
        for h in rows.iter() {
            let g = h.assume::<GroupSum>();
            s = (s.0 + 1, s.1 + g.v().sum(), s.2 + g.v().count());
        }
    }
    s
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `reps` reps (3 with `quick`, 11 otherwise) and prints the medians.
pub fn aggcost(quick: bool) {
    let reps = if quick { 3 } else { 11 };
    let storage = StorageManager::in_temp("aggcost").expect("a temp store");
    let spill = SpillCtx {
        budget: storage.pool().budget(),
        spiller: Arc::new(storage.pool().spill_set()),
    };
    let agg = pc_lambda::agg::AggEngine::new(SumCount);
    let scope = AllocScope::new(16 << 20);
    let rows: Vec<AnyHandle> = (0..ROWS)
        .map(|i| {
            let r = make_object::<AggRow>().expect("the source block holds every row");
            r.v()
                .set_key(((i * 997) % GROUPS) as i64)
                .expect("flat field");
            r.v().set_val((i % 1000) as i64).expect("flat field");
            r.erase()
        })
        .collect();
    let want = (
        GROUPS,
        (0..ROWS).map(|i| (i % 1000) as i64).sum::<i64>(),
        ROWS as i64,
    );
    let (mut pre_ms, mut combine_ms) = (Vec::new(), Vec::new());
    let (mut one_ms, mut two_ms) = (Vec::new(), Vec::new());
    let (mut lanes, mut inbound, mut entries, mut out_pages) = (0, 0, 0, 0);
    for rep in 0..reps {
        let t0 = Instant::now();
        let parts = pre_aggregate(&agg, &rows, &spill);
        pre_ms.push(ms_since(t0));
        let t0 = Instant::now();
        let inbox = combine(&agg, parts);
        combine_ms.push(ms_since(t0));
        inbound = inbox
            .values()
            .flatten()
            .map(SealedPage::used)
            .sum::<usize>();
        entries = inbox
            .values()
            .map(|pages| agg.entries(pages).expect("entries"))
            .sum::<u64>();
        lanes = aggregation_lanes(2, inbox.len(), entries);
        // Each finalize reuses what the one before it freed, so the two
        // alternate going first.
        let finalize = |threads: usize, ms: &mut Vec<f64>| {
            let t0 = Instant::now();
            let out = finalize_owned(&agg, inbox.clone(), threads, PAGE_SIZE).expect("finalize");
            ms.push(ms_since(t0));
            out
        };
        let ((groups, one), (_, two)) = if rep % 2 == 0 {
            let one = finalize(1, &mut one_ms);
            (one, finalize(2, &mut two_ms))
        } else {
            let two = finalize(2, &mut two_ms);
            (finalize(1, &mut one_ms), two)
        };
        assert_eq!(groups as usize, GROUPS, "one output row per group");
        assert_eq!(summary(&one), want, "groups, Σ and counts");
        let bytes =
            |pages: &[SealedPage]| pages.iter().map(SealedPage::to_bytes).collect::<Vec<_>>();
        assert!(
            bytes(&one) == bytes(&two),
            "the lane count changed the output pages"
        );
        out_pages = one.len();
    }
    drop(scope);
    println!(
        "aggcost: {ROWS} two-i64 rows into {GROUPS} groups, {MORSELS} morsels, \
         {PARTITIONS} partitions, {} KiB pages, median of {reps} reps",
        PAGE_SIZE >> 10
    );
    println!(
        "  the owner receives {entries} entries in {:.2} MB; at 2 threads it finalizes \
         on {lanes} lane(s); {out_pages} output pages",
        inbound as f64 / 1e6
    );
    let widths = [16, 12, 20, 20];
    row(
        &[
            "pre-aggregate ms".into(),
            "combine ms".into(),
            "finalize ms, 1 lane".into(),
            format!("finalize ms, {lanes} lane(s)"),
        ],
        &widths,
    );
    row(
        &[
            format!("{:.2}", median(pre_ms)),
            format!("{:.2}", median(combine_ms)),
            format!("{:.2}", median(one_ms)),
            format!("{:.2}", median(two_ms)),
        ],
        &widths,
    );
}
