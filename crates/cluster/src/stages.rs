//! Distributed job stages (Appendix D).
//!
//! Every pipeline of the physical plan becomes a `PipelineJobStage` run on
//! all workers in parallel. Each worker runs the stage **morsel-driven**
//! (`pc_exec::run_stage_morsels`): its local pages are carved into
//! fixed-size morsels pulled by `exec.threads` work-stealing pipelining
//! threads, and the per-morsel outputs merge in morsel order so worker
//! output is byte-identical for every thread count. The worker's own
//! buffer pool is the stage's out-of-core context (`SpillCtx`): its memory
//! budget and a fresh spill set, passed to `run_stage_morsels`. What
//! happens to the sink output depends on its kind:
//!
//! * **Output / Materialize** — pages stay on the producing worker: stored
//!   sets are distributed.
//! * **JoinBuild** — per-morsel tables are sealed into partition-tagged
//!   pages and **broadcast**: every worker receives every build page (the
//!   paper's broadcast join). The gather reserves the table's bytes
//!   against a budget once, spilling partitions that do not fit. The
//!   paper hash-partitions large build sides per D.3 instead; this
//!   simulation broadcasts every build side.
//! * **AggProduce** — the two-stage distributed aggregation of D.2 /
//!   Figure 5: pipelining threads pre-aggregate into hash-partitioned map
//!   pages and push them through a zero-copy pointer queue to combining
//!   threads; combined pages are shuffled to each partition's owner; the
//!   owner's aggregation threads finalize its partitions in runs — one run
//!   per [`GROUPS_PER_RUN`] inbound entries, at most one per partition,
//!   each a contiguous partition range written into its own pages — on
//!   `min(exec.threads, runs)` lanes (one lane runs inline), merging only
//!   a partition that arrived as several pages. The runs concatenate in
//!   partition order, so rows come out in stored-hash order and bytes do
//!   not depend on `exec.threads`; a page breaks at every run boundary.

use crate::cluster::PcCluster;
use crate::transport::MASTER;
use pc_exec::{
    fan_out, run_stage_morsels, ExecStats, MorselOutput, PipelineSpec, SharedTable, Sink,
};
use pc_lambda::{AggPage, ErasedAgg, SetWriter, StageLibrary};
use pc_object::{PcError, PcResult, SealedPage};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Broadcast join tables in transit, by name: sealed partition-tagged page
/// lists ([`SharedTable`]). Receivers
/// reassemble the partition chains from the page tags instead of
/// concatenating every page into one flat scan list.
pub type TableStore = HashMap<String, SharedTable>;

/// Runs one pipeline as a distributed job stage.
pub fn run_stage_distributed(
    cluster: &PcCluster,
    p: &PipelineSpec,
    stages: &StageLibrary,
    aggs: &HashMap<String, Arc<dyn ErasedAgg>>,
    tables: &mut TableStore,
) -> PcResult<ExecStats> {
    let nworkers = cluster.workers.len();

    // ---- run the pipeline on every worker, morsel-driven ----
    type WorkerResult = PcResult<(Vec<MorselOutput>, ExecStats)>;
    let tables_ref: &TableStore = tables;
    let results: Vec<WorkerResult> = fan_out(0..nworkers, |w| {
        let pages = cluster.local_pages(w, &p.source)?;
        // Simulate the worker's local type catalog faulting the root type
        // from the master (the .so fetch of §6.3).
        if let Some(first) = pages.first() {
            let block = first.open_block();
            let code = block.obj_code(first.root());
            cluster.workers[w].types.resolve(code)?;
        }
        // The worker's pipelining threads pull morsels from a shared
        // work-stealing queue; each probe thread opens its own zero-copy
        // view of any broadcast join tables. The worker's own pool backs
        // its memory budget and spill store.
        let spill = cluster.worker_spill_ctx(w);
        let exec = &cluster.config.exec;
        run_stage_morsels(exec, p, &pages, stages, aggs, tables_ref, &spill)
    });

    let mut stats = ExecStats::default();
    let mut per_worker_outputs: Vec<Vec<MorselOutput>> = Vec::with_capacity(nworkers);
    for r in results {
        let (outs, s) = r?;
        stats.absorb(&s);
        per_worker_outputs.push(outs);
    }

    // ---- route sink outputs ----
    match &p.sink {
        Sink::Output { .. } | Sink::Materialize { .. } => {
            for (w, outs) in per_worker_outputs.into_iter().enumerate() {
                for out in outs {
                    let MorselOutput::Pages(pages) = out else {
                        unreachable!()
                    };
                    cluster.store_output(w, &p.sink, pages)?;
                }
            }
        }
        Sink::JoinBuild { table, .. } => {
            // Gather every worker's partition-tagged build pages at the
            // master and broadcast. Per-morsel builds fold together
            // partition-wise: a page tagged `p` joins every other worker's
            // partition-`p` chain on the receiving side, so probes there
            // still touch exactly one partition.
            let transport = cluster.transport();
            let mut parts_in_send_order: Vec<usize> = Vec::new();
            let mut src_in_send_order: Vec<usize> = Vec::new();
            for (w, outs) in per_worker_outputs.into_iter().enumerate() {
                for out in outs {
                    let MorselOutput::TablePages(pages) = out else {
                        unreachable!()
                    };
                    for (part, page) in pages {
                        // Queue for the master; the partition tag and the
                        // producer ride side-band in send order, which
                        // collect() restores.
                        transport.send(w, MASTER, &page)?;
                        parts_in_send_order.push(part);
                        src_in_send_order.push(w);
                    }
                }
            }
            let gathered: Vec<(usize, Arc<SealedPage>)> = parts_in_send_order
                .iter()
                .copied()
                .zip(transport.collect(MASTER)?.into_iter().map(Arc::new))
                .collect();
            // ...and once to every worker that didn't build the page (the
            // broadcast). Each copy crosses the transport — so faults hit
            // it — while the shared Arc stands in for the per-worker copy.
            for (i, (_part, page)) in gathered.iter().enumerate() {
                for w in 0..nworkers {
                    if w != src_in_send_order[i] {
                        transport.send(MASTER, w, page)?;
                    }
                }
            }
            for w in 0..nworkers {
                let _ = transport.collect(w)?;
            }
            cluster.note_broadcast();
            // The gather is where the table's full size first exists in
            // one place, so it reserves against a budget and sheds
            // partitions that do not fit (this in-process cluster shares
            // one broadcast table, so worker 0's pool stands in for the
            // per-worker copy).
            let st = SharedTable::from_tagged_pages_budgeted(
                cluster.config.exec.partitions,
                gathered,
                &cluster.worker_spill_ctx(0),
            )?;
            stats.join_partitions_spilled += st.spilled_partitions() as u64;
            stats.join_bytes_spilled += st.spilled_bytes() as u64;
            tables.insert(table.clone(), st);
        }
        Sink::AggProduce { comp, dest, .. } => {
            run_aggregation_stage(cluster, comp, dest, aggs, per_worker_outputs, &mut stats)?;
        }
    }
    Ok(stats)
}

/// The consuming side of distributed aggregation (Appendix D.2): combine
/// per-morsel partition pages on each worker, shuffle them to the partition
/// owners, merge what arrived in pieces, and materialize.
fn run_aggregation_stage(
    cluster: &PcCluster,
    comp: &str,
    dest: &pc_exec::AggDest,
    aggs: &HashMap<String, Arc<dyn ErasedAgg>>,
    per_worker_outputs: Vec<Vec<MorselOutput>>,
    stats: &mut ExecStats,
) -> PcResult<()> {
    let agg = aggs
        .get(comp)
        .ok_or_else(|| PcError::Catalog(format!("no aggregation engine for {comp}")))?;
    let nworkers = cluster.workers.len();
    let page_size = cluster.config.exec.page_size;

    // Combining step, per worker (Appendix D.2's K combining threads):
    // merge the morsels' partial maps per partition, so each worker ships
    // at most one combined page per partition. Partitions are dealt
    // round-robin, in partition order, over the unified `exec.threads`
    // knob; each merge is page-at-a-time (`PcMap::merge_from` under the
    // hood, in morsel order within a partition), and results are re-sorted
    // by partition so the shuffle order stays deterministic.
    let combine_threads = cluster.config.exec.threads.max(1);
    type Shipped = PcResult<Vec<(usize, SealedPage)>>;
    let combined = fan_out(per_worker_outputs, |outs| -> Shipped {
        let mut by_part: BTreeMap<usize, Vec<AggPage>> = BTreeMap::new();
        for out in outs {
            let MorselOutput::AggPartitions(parts) = out else {
                unreachable!()
            };
            for (part, page) in parts {
                by_part.entry(part).or_default().push(page);
            }
        }
        // Deal partitions over the worker's combining threads.
        let mut lanes: Vec<Vec<(usize, Vec<AggPage>)>> =
            (0..combine_threads).map(|_| Vec::new()).collect();
        for (i, entry) in by_part.into_iter().enumerate() {
            lanes[i % combine_threads].push(entry);
        }
        let lane_results = fan_out(lanes, |lane| -> Shipped {
            let mut shipped = Vec::new();
            for (part, pages) in lane {
                match <[AggPage; 1]>::try_from(pages) {
                    // Nothing to combine; forward as-is (reloading if it
                    // sits spilled).
                    Ok([page]) => shipped.push((part, page.load()?)),
                    Err(pages) => {
                        let mut merger = agg.new_merger(page_size);
                        for page in pages {
                            // Spilled pages reload one at a time: the
                            // combine never holds a partition's whole chain
                            // in RAM.
                            merger.merge_page(page.load()?)?;
                        }
                        for page in merger.into_pages()? {
                            shipped.push((part, page));
                        }
                    }
                }
            }
            Ok(shipped)
        });
        let mut shipped = Vec::new();
        for r in lane_results {
            shipped.extend(r?);
        }
        // Reproducible shuffle order regardless of lane scheduling.
        shipped.sort_by_key(|(p, _)| *p);
        Ok(shipped)
    });

    // Shuffle: partition p's pages go to worker p % W over the transport,
    // their partition tags side-band in send order, which collect()
    // restores. All sends are queued before any inbox is collected, so the
    // socket transport overlaps chunk delivery with the remaining combines.
    let transport = cluster.transport();
    let mut parts_in_send_order: Vec<Vec<usize>> = vec![Vec::new(); nworkers];
    for (src_w, r) in combined.into_iter().enumerate() {
        for (part, page) in r? {
            let owner = part % nworkers;
            transport.send(src_w, owner, &page)?;
            parts_in_send_order[owner].push(part);
        }
    }
    let mut inbox: Vec<BTreeMap<usize, Vec<SealedPage>>> = Vec::with_capacity(nworkers);
    for (w, parts) in parts_in_send_order.iter().enumerate() {
        let mut by_part: BTreeMap<usize, Vec<SealedPage>> = BTreeMap::new();
        for (&part, page) in parts.iter().zip(transport.collect(w)?) {
            by_part.entry(part).or_default().push(page);
        }
        inbox.push(by_part);
    }

    // Aggregation threads: each owner finalizes its partitions in runs,
    // each run on a lane into its own pages.
    let threads = cluster.config.exec.threads.max(1);
    let finals = fan_out(inbox, |by_part| {
        finalize_owned(agg.as_ref(), by_part, threads, page_size)
    });

    let (db, set): (String, String) = match dest {
        pc_exec::AggDest::Set { db, set } => (db.clone(), set.clone()),
        pc_exec::AggDest::Intermediate { list } => {
            cluster.catalog.ensure_set(pc_exec::TMP_DB, list);
            (pc_exec::TMP_DB.to_string(), list.clone())
        }
    };
    for (w, r) in finals.into_iter().enumerate() {
        let (groups, pages) = r?;
        stats.agg_groups += groups;
        stats.rows_out += groups;
        for page in pages {
            cluster.workers[w].storage.append_page(&db, &set, page)?;
            stats.pages_written += 1;
        }
    }
    Ok(())
}

/// Groups an output run must emit to pay for a lane. On a 2-core x86-64
/// host a scoped thread's spawn and join took 15–20 µs and finalizing a
/// group about 0.1 µs (`repro aggcost`), so a run's work is at least ~20
/// times its lane's cost, and a lane also costs an output page and an
/// allocator arena, which small aggregations should not pay.
pub const GROUPS_PER_RUN: u64 = 4096;

/// Output runs an owner writes its partitions in: one per
/// [`GROUPS_PER_RUN`] inbound entries ([`ErasedAgg::entries`]), at most one
/// per owned partition. A run is a contiguous range of partitions
/// finalized into one [`SetWriter`], so its pages break only at run
/// boundaries. Entries follow from which keys each producer saw, never
/// from `threads` or from a spill schedule, so neither moves a page break.
/// An aggregation with fewer than two runs' worth of groups is one run,
/// written as one partition-ordered stream.
pub fn aggregation_runs(partitions: usize, entries: u64) -> usize {
    partitions.min((entries / GROUPS_PER_RUN).max(1) as usize)
}

/// Aggregation lanes an owner finalizes on: one per run
/// ([`aggregation_runs`]), at most `threads`. One lane runs inline.
pub fn aggregation_lanes(threads: usize, partitions: usize, entries: u64) -> usize {
    threads.min(aggregation_runs(partitions, entries))
}

/// One owner's aggregation threads (Appendix D.2, Figure 5): finalizes
/// every partition it owns, split into [`aggregation_runs`] contiguous
/// runs, each run into its own [`SetWriter`], runs dealt round-robin over
/// [`aggregation_lanes`] lanes. Only a partition that arrived as several
/// pages (one per producing worker) merges; one that arrived whole is read
/// in place. The pages return in partition order, so the owner's rows are
/// in stored-hash order and its output bytes are the same at every thread
/// count.
pub fn finalize_owned(
    agg: &dyn ErasedAgg,
    by_part: BTreeMap<usize, Vec<SealedPage>>,
    threads: usize,
    page_size: usize,
) -> PcResult<(u64, Vec<SealedPage>)> {
    let mut entries = 0;
    for pages in by_part.values() {
        entries += agg.entries(pages)?;
    }
    let n = by_part.len();
    let runs = aggregation_runs(n, entries);
    let lanes = aggregation_lanes(threads, n, entries);
    let mut parts = by_part.into_values();
    let runs = (0..runs).map(|r| {
        let len = (r + 1) * n / runs - r * n / runs;
        parts.by_ref().take(len).collect::<Vec<_>>()
    });
    let finalize = |run: Vec<Vec<SealedPage>>| -> PcResult<(u64, Vec<SealedPage>)> {
        let mut writer = SetWriter::new(page_size);
        let mut groups = 0;
        for pages in run {
            groups += agg.finalize_partition(pages, page_size, &mut writer)?;
        }
        Ok((groups, writer.finish()?))
    };
    let done: Vec<PcResult<(u64, Vec<SealedPage>)>> = if lanes <= 1 {
        runs.map(finalize).collect()
    } else {
        let mut dealt: Vec<Vec<(usize, Vec<Vec<SealedPage>>)>> =
            (0..lanes).map(|_| Vec::new()).collect();
        for (r, run) in runs.enumerate() {
            dealt[r % lanes].push((r, run));
        }
        let mut done: Vec<_> = fan_out(dealt, |lane| {
            lane.into_iter()
                .map(|(r, run)| (r, finalize(run)))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        done.sort_by_key(|(r, _)| *r);
        done.into_iter().map(|(_, result)| result).collect()
    };
    let (mut groups, mut pages) = (0, Vec::new());
    for r in done {
        let (g, p) = r?;
        groups += g;
        pages.extend(p);
    }
    Ok((groups, pages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_lambda::agg::AggEngine;
    use pc_lambda::{AggregateSpec, Column, SpillCtx};
    use pc_object::{make_object, AllocScope, BlockRef, Handle, PcVec};
    use pc_storage::StorageManager;

    /// Σ and count of `[key, val]` rows per key, out as `[key, count, sum]`.
    struct SumByKey;

    impl AggregateSpec for SumByKey {
        type In = PcVec<i64>;
        type Key = i64;
        type Val = (i64, i64);
        type Out = PcVec<i64>;

        fn key_of(&self, rec: &Handle<PcVec<i64>>) -> PcResult<i64> {
            Ok(rec.get(0))
        }

        fn init(&self, _b: &BlockRef, rec: &Handle<PcVec<i64>>) -> PcResult<(i64, i64)> {
            Ok((1, rec.get(1)))
        }

        fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<PcVec<i64>>) -> PcResult<()> {
            let (c, s): (i64, i64) = b.read(slot);
            b.write(slot, (c + 1, s + rec.get(1)));
            Ok(())
        }

        fn merge(
            &self,
            dst: &BlockRef,
            dst_slot: u32,
            src: &BlockRef,
            src_slot: u32,
        ) -> PcResult<()> {
            let (c1, s1): (i64, i64) = dst.read(dst_slot);
            let (c2, s2): (i64, i64) = src.read(src_slot);
            dst.write(dst_slot, (c1 + c2, s1 + s2));
            Ok(())
        }

        fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<PcVec<i64>>> {
            let (c, s): (i64, i64) = b.read(slot);
            let out = make_object::<PcVec<i64>>()?;
            for v in [*key, c, s] {
                out.push(v)?;
            }
            Ok(out)
        }
    }

    #[test]
    fn runs_follow_entries_and_lanes_follow_runs() {
        let run = GROUPS_PER_RUN;
        assert_eq!(aggregation_runs(4, 3 * run), 3);
        assert_eq!(aggregation_runs(4, 9 * run), 4);
        assert_eq!(aggregation_runs(4, 2 * run - 1), 1);
        assert_eq!(aggregation_runs(4, 0), 1);
        assert_eq!(aggregation_runs(0, 0), 0);
        assert_eq!(aggregation_lanes(2, 4, 3 * run), 2);
        assert_eq!(aggregation_lanes(8, 4, 9 * run), 4);
        assert_eq!(aggregation_lanes(4, 4, 2 * run - 1), 1);
        assert_eq!(aggregation_lanes(4, 1, 9 * run), 1);
        assert_eq!(aggregation_lanes(1, 4, 9 * run), 1);
    }

    #[test]
    fn one_lane_and_two_lanes_finalize_the_same_pages_identically() {
        const PARTS: usize = 4;
        const PAGE: usize = 1 << 16;
        const GROUPS: i64 = 20_000;
        let storage = StorageManager::in_temp("lanes").unwrap();
        let spill = SpillCtx {
            budget: storage.pool().budget(),
            spiller: Arc::new(storage.pool().spill_set()),
        };
        let agg = AggEngine::new(SumByKey);
        let mut sink = agg.new_sink(PARTS, PAGE, spill);
        let scope = AllocScope::new(1 << 22);
        let rows: Vec<_> = (0..40_000i64)
            .map(|i| {
                let r = make_object::<PcVec<i64>>().unwrap();
                r.push(i * 7 % GROUPS).unwrap();
                r.push(i).unwrap();
                r.erase()
            })
            .collect();
        sink.absorb(&Column::Obj(rows), None).unwrap();
        drop(scope);
        let mut by_part: BTreeMap<usize, Vec<SealedPage>> = BTreeMap::new();
        for (part, page) in sink.flush().unwrap() {
            by_part.entry(part).or_default().push(page.load().unwrap());
        }
        assert_eq!(by_part.len(), PARTS);
        assert!(
            by_part.values().any(|pages| pages.len() > 1),
            "some partition must arrive in pieces and merge"
        );
        let mut entries = 0;
        for pages in by_part.values() {
            entries += agg.entries(pages).unwrap();
        }
        // Pages of one partition may repeat a key: an upper bound.
        assert!(entries >= GROUPS as u64);
        assert_eq!(aggregation_runs(PARTS, entries), PARTS);
        assert_eq!(aggregation_lanes(1, PARTS, entries), 1);
        assert_eq!(aggregation_lanes(2, PARTS, entries), 2);

        let run = |threads: usize| {
            let (groups, pages) = finalize_owned(&agg, by_part.clone(), threads, PAGE).unwrap();
            (
                groups,
                pages.iter().map(|p| p.to_bytes()).collect::<Vec<_>>(),
            )
        };
        let (one, two) = (run(1), run(2));
        assert_eq!(one.0, GROUPS as u64);
        assert!(one.1.len() >= PARTS, "a page breaks at every run");
        assert!(one == two, "two lanes wrote other pages than one lane");
    }
}
