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
//!   owner's aggregation threads merge and materialize the result.

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
/// owners, merge, and materialize.
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

    // Shuffle: partition p's pages go to worker p % W over the transport.
    // All sends are queued before any inbox is collected, so the socket
    // transport overlaps chunk delivery with the remaining combines.
    let transport = cluster.transport();
    for (src_w, r) in combined.into_iter().enumerate() {
        for (part, page) in r? {
            let owner = part % nworkers;
            transport.send(src_w, owner, &page)?;
        }
    }
    let mut inbox: Vec<Vec<SealedPage>> = Vec::with_capacity(nworkers);
    for w in 0..nworkers {
        inbox.push(transport.collect(w)?);
    }

    // Aggregation threads: each owner merges its inbox and materializes.
    let finals = fan_out(inbox, |pages| -> PcResult<(u64, Vec<SealedPage>)> {
        if pages.is_empty() {
            return Ok((0, Vec::new()));
        }
        let mut merger = agg.new_merger(page_size);
        for page in pages {
            merger.merge_page(page)?;
        }
        let mut writer = SetWriter::new(page_size);
        let groups = merger.finalize(&mut writer)?;
        Ok((groups, writer.finish()?))
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
