//! Pipeline execution.
//!
//! `run_span`-over-morsels is the core engine: `crate::morsel` carves a
//! stage's input pages into fixed-size morsels and worker threads pull them
//! from a work-stealing queue, each running the per-batch loop defined here
//! with its own sink state. The distributed runtime in `pc-cluster` is the
//! one caller: it runs the morsel driver once per worker (a
//! `PipelineJobStage`) and shuffles the outputs between nodes; single-node
//! execution is a one-worker cluster.
//!
//! Batch mechanics follow Appendix C: input pages stay pinned while a batch
//! built from them is in flight; object-producing kernels allocate directly
//! on the live output page (or a recycled scratch page for non-output
//! sinks); `BlockFull` faults retire pages — zombifying them when in-flight
//! columns still pin them — and retry the failed stage.

use crate::jointable::JoinTable;
use crate::plan::{PipelineSpec, ResolvedOp, ResolvedPipeline, ResolvedSink, Sink};
use crate::vlist::VectorList;
use pc_lambda::{
    for_each_sel, AggPage, Column, ColumnKernel, ColumnPool, ErasedAgg, ErasedAggSink, ExecCtx,
    SetWriter, SpillCtx,
};
use pc_object::{
    AllocPolicy, AllocScope, AnyHandle, AnyObj, BlockRef, Handle, PcError, PcResult, PcVec,
    SealedPage,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Rows per vector list ("the number of objects in a vector can be
    /// tuned to fit the L1 or L2 cache", §5.2).
    pub batch_size: usize,
    /// Output/table page size (PC's default is 256 MB; scaled down here).
    pub page_size: usize,
    /// Hash partitions for aggregation sinks.
    pub agg_partitions: usize,
    /// Radix partitions for join build tables (rounded to a power of two;
    /// probes route to one partition's page chain instead of scanning every
    /// table page).
    pub join_partitions: usize,
    /// Worker threads per pipeline stage (the paper's pipelining threads).
    /// Defaults to the available cores; the `PC_THREADS` environment
    /// variable overrides the default. Results are byte-identical for every
    /// value — outputs merge in morsel order, never completion order.
    pub threads: usize,
    /// Rows per morsel (the unit of work-stealing parallelism). A morsel
    /// never spans pages, so the effective size is
    /// `min(morsel_rows, rows left on the page)`. The decomposition — and
    /// therefore the merged output — depends only on this knob and the
    /// input pages, not on `threads`.
    pub morsel_rows: usize,
    /// Out-of-core context: the [`MemoryBudget`](pc_object::MemoryBudget)
    /// operators reserve working memory against, plus the spill store a
    /// partition's page chain is shed to when a reservation is denied.
    /// `None` (the default) is the old fully-in-memory behavior: nothing is
    /// reserved and nothing can spill.
    pub spill: Option<SpillCtx>,
}

/// Default stage thread count: `PC_THREADS` when set to a positive integer,
/// otherwise the number of available cores.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("PC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            batch_size: 1024,
            page_size: 1 << 20,
            agg_partitions: 4,
            join_partitions: 8,
            threads: default_threads(),
            morsel_rows: 32 * 1024,
            spill: None,
        }
    }
}

/// Run statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    pub pipelines_run: usize,
    pub batches: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub pages_written: u64,
    pub join_groups: u64,
    pub agg_groups: u64,
    /// Rows folded into pre-aggregation partition maps (the producing side
    /// of Appendix D.2's two-phase aggregation).
    pub rows_aggregated: u64,
    /// Partition map pages sealed for shuffling by pre-aggregation sinks.
    pub map_pages_sealed: u64,
    /// Rows that probed a join hash table.
    pub rows_probed: u64,
    /// Match groups those probes produced.
    pub join_matches: u64,
    /// Join build table pages finished by build sinks (the partitioned
    /// chains' pages, sealed for broadcast in the distributed runtime).
    pub build_pages_sealed: u64,
    /// Morsels handed out by stage schedulers (shared-queue dispatches;
    /// monotone across merges).
    pub morsels_dispatched: u64,
    /// Morsels a worker thread stole from another thread's deque after its
    /// own drained (monotone across merges).
    pub morsels_stolen: u64,
    /// High-water mark of worker threads any single stage actually used.
    pub threads_used: usize,
    pub max_zombie_pages: usize,
    /// Pre-aggregation partition pages spilled under memory pressure
    /// (whole-chain sheds plus the sealing page that triggered them).
    pub agg_pages_spilled: u64,
    /// Bytes of pre-aggregation pages spilled.
    pub agg_bytes_spilled: u64,
    /// Join build partitions shed whole to the spill store at gather time.
    pub join_partitions_spilled: u64,
    /// Bytes of join build pages spilled.
    pub join_bytes_spilled: u64,
    /// Second-pass probe waves run over reloaded spilled join partitions.
    pub spill_waves: u64,
    /// Buffer-pool counters over the run (deltas of the executing node's
    /// pool, surfaced so `repro` tables can print pool behavior per run).
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub pool_spills: u64,
    pub pool_bytes_spilled: u64,
}

impl ExecStats {
    pub fn absorb(&mut self, other: &ExecStats) {
        self.pipelines_run += other.pipelines_run;
        self.batches += other.batches;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.pages_written += other.pages_written;
        self.join_groups += other.join_groups;
        self.agg_groups += other.agg_groups;
        self.rows_aggregated += other.rows_aggregated;
        self.map_pages_sealed += other.map_pages_sealed;
        self.rows_probed += other.rows_probed;
        self.join_matches += other.join_matches;
        self.build_pages_sealed += other.build_pages_sealed;
        self.morsels_dispatched += other.morsels_dispatched;
        self.morsels_stolen += other.morsels_stolen;
        self.threads_used = self.threads_used.max(other.threads_used);
        self.max_zombie_pages = self.max_zombie_pages.max(other.max_zombie_pages);
        self.agg_pages_spilled += other.agg_pages_spilled;
        self.agg_bytes_spilled += other.agg_bytes_spilled;
        self.join_partitions_spilled += other.join_partitions_spilled;
        self.join_bytes_spilled += other.join_bytes_spilled;
        self.spill_waves += other.spill_waves;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.pool_evictions += other.pool_evictions;
        self.pool_spills += other.pool_spills;
        self.pool_bytes_spilled += other.pool_bytes_spilled;
    }
}

/// What a pipeline's sink produced (before any storage/shuffle routing).
pub enum PipelineOutput {
    /// Sealed output pages (OUTPUT / materialization sinks).
    Pages(Vec<SealedPage>),
    /// A built join hash table (boxed: the partitioned table's inline state
    /// dwarfs the other variants).
    BuiltTable(Box<JoinTable>),
    /// Pre-aggregated `(partition, page)` pairs awaiting merge; a page may
    /// be resident or spilled (it reloads lazily at merge time).
    AggPartitions(Vec<(usize, AggPage)>),
}

/// The database name intermediates are materialized under.
pub const TMP_DB: &str = "__tmp";

/// Runs one pipeline over a span of `(page, lo, hi)` row ranges with fresh
/// sink state, on the calling thread. This is the unit a morsel scheduler
/// dispatches: every morsel gets its own sinks, so its output depends only
/// on its input rows and merges deterministically by morsel index.
pub(crate) fn run_span<'a>(
    config: &ExecConfig,
    p: &PipelineSpec,
    rp: &ResolvedPipeline,
    aggs: &HashMap<String, Arc<dyn ErasedAgg>>,
    tables: &HashMap<String, JoinTable>,
    pool: &mut ColumnPool,
    spans: impl Iterator<Item = (&'a Arc<SealedPage>, usize, usize)>,
) -> PcResult<(PipelineOutput, ExecStats)> {
    let mut stats = ExecStats::default();
    let mut writer: Option<SetWriter> = match &p.sink {
        Sink::Output { .. } | Sink::Materialize { .. } => Some(SetWriter::new(config.page_size)),
        _ => None,
    };
    let mut agg_sink: Option<Box<dyn ErasedAggSink>> = match &p.sink {
        Sink::AggProduce { comp, .. } => {
            let agg = aggs
                .get(comp)
                .ok_or_else(|| PcError::Catalog(format!("no aggregation engine for {comp}")))?;
            Some(agg.new_sink(
                config.agg_partitions,
                config.page_size,
                config.spill.clone(),
            ))
        }
        _ => None,
    };
    let mut build_table = match &p.sink {
        Sink::JoinBuild { obj_cols, .. } => Some(JoinTable::with_partitions(
            obj_cols.len(),
            config.page_size,
            config.join_partitions,
        )),
        _ => None,
    };
    let mut scratch = ScratchPage::new(config.page_size);
    // One slot-addressed vector list and the thread's buffer pool serve
    // every batch: the batch boundary recycles column buffers instead of
    // freeing them, and the pool outlives the span so buffers stay affine
    // to the thread across morsels.
    let mut vl = VectorList::for_slots(rp.slot_names.clone());

    for (page, lo, span_hi) in spans {
        // Zero-copy read view of the input page (pinned while the Arc and
        // the batch's handles live).
        let (_block, root) = page.open_view()?;
        let root: Handle<PcVec<Handle<AnyObj>>> = root.downcast()?;
        let total = root.len().min(span_hi);
        let mut at = lo.min(total);
        while at < total {
            let hi = (at + config.batch_size).min(total);
            let mut handles = pool.take_objs();
            handles.extend((at..hi).map(|i| root.get(i).erase()));
            stats.rows_in += handles.len() as u64;
            vl.set_slot(rp.source_slot, Column::Obj(handles));
            at = hi;

            run_batch(
                rp,
                tables,
                &mut vl,
                &mut writer,
                &mut agg_sink,
                &mut build_table,
                &mut scratch,
                pool,
                &mut stats,
            )?;
            stats.batches += 1;
            // Batch boundary: the vector list dies (its buffers return to
            // the pool, dropping object references), zombies release.
            vl.recycle(pool);
            if let Some(w) = writer.as_mut() {
                stats.max_zombie_pages = stats.max_zombie_pages.max(w.max_zombies);
                w.release_zombies()?;
            }
        }
    }

    let output = match &p.sink {
        Sink::Output { .. } | Sink::Materialize { .. } => {
            let w = writer.take().unwrap();
            stats.rows_out += w.objects_written;
            let pages = w.finish()?;
            stats.pages_written += pages.len() as u64;
            PipelineOutput::Pages(pages)
        }
        Sink::JoinBuild { .. } => {
            let mut t = build_table.take().unwrap();
            // The build is complete: construct the probe-side tag filters
            // from the stored entry hashes (the seal point of the chains).
            t.finish_build();
            stats.join_groups += t.groups;
            stats.build_pages_sealed += t.page_count() as u64;
            PipelineOutput::BuiltTable(Box::new(t))
        }
        Sink::AggProduce { .. } => {
            let mut sink = agg_sink.take().unwrap();
            let parts = sink.flush()?;
            let s = sink.stats();
            stats.rows_aggregated += s.rows_absorbed;
            stats.map_pages_sealed += s.map_pages_sealed;
            stats.agg_pages_spilled += s.pages_spilled;
            stats.agg_bytes_spilled += s.bytes_spilled;
            PipelineOutput::AggPartitions(parts)
        }
    };
    Ok((output, stats))
}

#[allow(clippy::too_many_arguments)]
fn run_batch(
    rp: &ResolvedPipeline,
    tables: &HashMap<String, JoinTable>,
    vl: &mut VectorList,
    writer: &mut Option<SetWriter>,
    agg_sink: &mut Option<Box<dyn ErasedAggSink>>,
    build_table: &mut Option<JoinTable>,
    scratch: &mut ScratchPage,
    pool: &mut ColumnPool,
    stats: &mut ExecStats,
) -> PcResult<()> {
    for op in &rp.ops {
        if vl.is_empty() {
            return Ok(());
        }
        match op {
            ResolvedOp::Apply {
                kernel,
                inputs,
                out,
                drop,
                drop_out,
            } => {
                let col = apply_with_retry(kernel, inputs, vl, writer, scratch)?;
                vl.drop_slots(drop, pool);
                vl.rebase_with(*out, col, pool);
                if *drop_out {
                    vl.clear_slot(*out, pool);
                }
            }
            ResolvedOp::Filter { bool_slot, drop } => {
                // The filter only marks surviving rows; no column moves.
                vl.filter_by_slot(*bool_slot, pool)?;
                vl.drop_slots(drop, pool);
            }
            ResolvedOp::FlatMap {
                kernel,
                input,
                out,
                drop,
                drop_out,
            } => {
                let mut result = None;
                for attempt in 0..8 {
                    let block = kernel_block(writer, scratch)?;
                    let scope = AllocScope::install(block.clone());
                    let mut ctx = ExecCtx::new(block);
                    let r = kernel.apply(&[vl.slot(*input)?], vl.sel(), &mut ctx);
                    std::mem::drop(scope);
                    match r {
                        Ok(v) => {
                            result = Some(v);
                            break;
                        }
                        Err(PcError::BlockFull { .. }) if attempt < 7 => {
                            roll_kernel_page(writer, scratch)?;
                        }
                        Err(e) => return Err(e),
                    }
                }
                let (col, counts) = result.ok_or_else(|| {
                    PcError::Catalog("flatmap exceeded page-fault retries".into())
                })?;
                vl.drop_slots(drop, pool);
                vl.replicate_with(&counts, *out, col, pool);
                if *drop_out {
                    vl.clear_slot(*out, pool);
                }
                pool.recycle_sel(counts);
            }
            ResolvedOp::Probe {
                table,
                hash_slot,
                build_slots,
                drop,
                drop_after,
            } => {
                let t = tables
                    .get(table)
                    .ok_or_else(|| PcError::Catalog(format!("join table {table} not built")))?;
                let mut idx = pool.take_sel();
                let mut built: Vec<Vec<AnyHandle>> =
                    (0..t.arity()).map(|_| pool.take_objs()).collect();
                {
                    let hashes = vl.slot(*hash_slot)?.as_u64()?;
                    // Fold the selection into the gather indices: only live
                    // rows probe, and `idx` carries base-row positions.
                    match vl.sel() {
                        None => {
                            stats.rows_probed += hashes.len() as u64;
                            for (i, h) in hashes.iter().enumerate() {
                                t.probe_into(*h, i as u32, &mut idx, &mut built);
                            }
                        }
                        Some(sel) => {
                            stats.rows_probed += sel.len() as u64;
                            for &i in sel {
                                t.probe_into(hashes[i as usize], i, &mut idx, &mut built);
                            }
                        }
                    }
                    stats.join_matches += idx.len() as u64;
                }
                vl.drop_slots(drop, pool);
                vl.gather_rebase(&idx, pool);
                for (k, slot) in build_slots.iter().enumerate() {
                    vl.set_slot(*slot, Column::Obj(std::mem::take(&mut built[k])));
                }
                vl.drop_slots(drop_after, pool);
                pool.recycle_sel(idx);
                // `built` now holds only the zero-capacity leftovers of
                // mem::take; the real buffers return to the pool when the
                // vector list recycles at the batch boundary.
            }
        }
    }
    if vl.is_empty() {
        return Ok(());
    }
    // Pipe sinks are contiguity boundaries: they consume the selection
    // directly (no compaction pass) by iterating live rows only.
    match &rp.sink {
        ResolvedSink::Write { slot } => {
            let w = writer.as_mut().unwrap();
            let objs = vl.slot(*slot)?.as_obj()?;
            for_each_sel(objs.len(), vl.sel(), |i| w.write_handle(&objs[i]))?;
        }
        ResolvedSink::AggProduce { slot } => {
            agg_sink
                .as_mut()
                .unwrap()
                .absorb(vl.slot(*slot)?, vl.sel())?;
        }
        ResolvedSink::JoinBuild {
            hash_slot,
            obj_slots,
        } => {
            // The vectorized build: the whole selection-live batch is
            // hashed, radix-partitioned, and bulk-folded into the table's
            // partition chains in one call — no per-row group Vec, no
            // per-column handle clone.
            let t = build_table.as_mut().unwrap();
            let hashes = vl.slot(*hash_slot)?.as_u64()?;
            let cols: Vec<&[AnyHandle]> = obj_slots
                .iter()
                .map(|s| vl.slot(*s).and_then(|c| c.as_obj()))
                .collect::<PcResult<_>>()?;
            t.insert_batch(hashes, vl.sel(), &cols)?;
        }
    }
    Ok(())
}

/// The block kernels should allocate on: the live output page for
/// OUTPUT-like sinks (objects land where they are needed), a recycled
/// scratch page otherwise.
fn kernel_block(writer: &mut Option<SetWriter>, scratch: &mut ScratchPage) -> PcResult<BlockRef> {
    match writer {
        Some(w) => w.live_block(),
        None => scratch.block(),
    }
}

fn roll_kernel_page(writer: &mut Option<SetWriter>, scratch: &mut ScratchPage) -> PcResult<()> {
    match writer {
        Some(w) => {
            // Same-size retries can fault forever when one batch's output
            // exceeds a page; escalate the page size as we retry.
            w.escalate_page_size();
            w.retire_live_page()
        }
        None => scratch.roll(),
    }
}

fn apply_with_retry(
    kernel: &Arc<dyn ColumnKernel>,
    inputs: &[usize],
    vl: &VectorList,
    writer: &mut Option<SetWriter>,
    scratch: &mut ScratchPage,
) -> PcResult<Column> {
    for attempt in 0..8 {
        let block = kernel_block(writer, scratch)?;
        let scope = AllocScope::install(block.clone());
        let mut ctx = ExecCtx::new(block);
        let cols: Vec<&Column> = inputs
            .iter()
            .map(|&s| vl.slot(s))
            .collect::<PcResult<Vec<_>>>()?;
        let r = kernel.apply(&cols, vl.sel(), &mut ctx);
        drop(scope);
        match r {
            Ok(col) => return Ok(col),
            Err(PcError::BlockFull { .. }) if attempt < 7 => {
                // Page fault: retire the page (it may zombify if pinned by
                // this batch's earlier columns), escalate, retry the stage.
                roll_kernel_page(writer, scratch)?;
            }
            Err(e) => return Err(e),
        }
    }
    Err(PcError::Catalog(
        "pipeline stage exceeded page-fault retries".into(),
    ))
}

/// A recycled allocation page for intermediate objects in pipelines whose
/// sink is not an output page (the paper's intermediate-data pages).
struct ScratchPage {
    size: usize,
    block: Option<BlockRef>,
}

impl ScratchPage {
    fn new(size: usize) -> Self {
        ScratchPage { size, block: None }
    }

    fn block(&mut self) -> PcResult<BlockRef> {
        if self.block.is_none() {
            self.block = Some(BlockRef::new(self.size, AllocPolicy::LightweightReuse));
        }
        Ok(self.block.as_ref().unwrap().clone())
    }

    /// Abandons the current scratch page (a zombie page in §C's taxonomy —
    /// it dies when the batch's handles drop) and escalates the size so a
    /// batch whose intermediates exceed one page eventually fits.
    fn roll(&mut self) -> PcResult<()> {
        self.block = None;
        self.size = (self.size * 2).min(256 << 20);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_every_counter() {
        let mut total = ExecStats {
            pipelines_run: 2,
            batches: 10,
            max_zombie_pages: 1,
            ..Default::default()
        };
        let other = ExecStats {
            pipelines_run: 3,
            batches: 5,
            rows_in: 7,
            rows_out: 4,
            pages_written: 2,
            join_groups: 6,
            agg_groups: 1,
            rows_aggregated: 9,
            map_pages_sealed: 3,
            rows_probed: 11,
            join_matches: 8,
            build_pages_sealed: 5,
            morsels_dispatched: 13,
            morsels_stolen: 4,
            threads_used: 3,
            max_zombie_pages: 2,
            agg_pages_spilled: 21,
            agg_bytes_spilled: 22,
            join_partitions_spilled: 23,
            join_bytes_spilled: 24,
            spill_waves: 25,
            pool_hits: 26,
            pool_misses: 27,
            pool_evictions: 28,
            pool_spills: 29,
            pool_bytes_spilled: 30,
        };
        total.absorb(&other);
        // `pipelines_run` used to be silently dropped here, so cluster-level
        // sums under-counted pipelines.
        assert_eq!(total.pipelines_run, 5);
        assert_eq!(total.batches, 15);
        assert_eq!(total.rows_in, 7);
        assert_eq!(total.rows_out, 4);
        assert_eq!(total.pages_written, 2);
        assert_eq!(total.join_groups, 6);
        assert_eq!(total.agg_groups, 1);
        assert_eq!(total.rows_aggregated, 9);
        assert_eq!(total.map_pages_sealed, 3);
        assert_eq!(total.rows_probed, 11);
        assert_eq!(total.join_matches, 8);
        assert_eq!(total.build_pages_sealed, 5);
        assert_eq!(total.morsels_dispatched, 13);
        assert_eq!(total.morsels_stolen, 4);
        assert_eq!(total.threads_used, 3, "threads_used is a high-water max");
        assert_eq!(total.max_zombie_pages, 2, "zombie high-water is a max");
        assert_eq!(total.agg_pages_spilled, 21);
        assert_eq!(total.agg_bytes_spilled, 22);
        assert_eq!(total.join_partitions_spilled, 23);
        assert_eq!(total.join_bytes_spilled, 24);
        assert_eq!(total.spill_waves, 25);
        assert_eq!(total.pool_hits, 26);
        assert_eq!(total.pool_misses, 27);
        assert_eq!(total.pool_evictions, 28);
        assert_eq!(total.pool_spills, 29);
        assert_eq!(total.pool_bytes_spilled, 30);
    }
}
