//! Pipeline execution.
//!
//! `run_span`-over-morsels is the core engine: `crate::morsel` carves a
//! stage's input pages into fixed-size morsels and worker threads pull them
//! from a work-stealing queue, each running the per-batch loop defined here
//! with its own sink state (one `SinkState` per morsel) and sealing the
//! result into the [`MorselOutput`] the cluster routes. The distributed
//! runtime in `pc-cluster` is the one caller: it runs the morsel driver
//! once per worker (a `PipelineJobStage`) and shuffles the outputs between
//! nodes; single-node execution is a one-worker cluster.
//!
//! Batch mechanics follow Appendix C: input pages stay pinned while a batch
//! built from them is in flight; object-producing kernels allocate directly
//! on the live output page (or a scratch page for non-output sinks), which
//! `SinkState` hands them as their [`PageSource`]. A `BlockFull` fault
//! rolls that page and re-runs only the faulting row (`ExecCtx::row`), not
//! the whole stage: a rolled output page stays open as a zombie, the Write
//! sink roots the batch's rows on it where its kernels left them, and it
//! seals at the batch boundary; rolled scratch pages die with the batch's
//! handles into them.

use crate::jointable::{JoinBuilder, JoinTable};
use crate::morsel::MorselOutput;
use crate::plan::{PipelineSpec, ResolvedOp, ResolvedPipeline, ResolvedSink, Sink};
use crate::vlist::VectorList;
use pc_lambda::{
    for_each_sel, Column, ColumnPool, ErasedAgg, ErasedAggSink, ExecCtx, PageSource, ScratchPage,
    SetWriter, SpillCtx,
};
use pc_object::{AnyObj, Handle, PcError, PcResult, PcVec, SealedPage};
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
    /// Hash partitions of both map-page sinks (Appendix D.2/D.3): the
    /// aggregation's pre-aggregation maps and the join build table alike,
    /// rounded up to a power of two. A probe walks one partition's page
    /// chain instead of every table page.
    pub partitions: usize,
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
            partitions: 4,
            threads: default_threads(),
            morsel_rows: 32 * 1024,
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
    /// Objects a Write sink deep-copied onto its live page because they
    /// could not be rooted where they lay.
    pub objects_copied: u64,
    /// Build rows folded into join tables.
    pub join_groups: u64,
    pub agg_groups: u64,
    /// Rows folded into pre-aggregation partition maps (the producing side
    /// of Appendix D.2's two-phase aggregation).
    pub rows_aggregated: u64,
    /// Partition map pages sealed for shuffling by pre-aggregation sinks.
    pub map_pages_sealed: u64,
    /// Rows that probed a join hash table.
    pub rows_probed: u64,
    /// Matches those probes produced.
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
        self.objects_copied += other.objects_copied;
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

/// A span's sink state: the one sink its pipeline ends in, built once from
/// [`Sink`] and consumed into the span's [`MorselOutput`], with the pages
/// the pipeline's kernels allocate on.
enum SinkState {
    /// OUTPUT / materialization: objects land on the writer's live page.
    Write(SetWriter),
    /// Pre-aggregation into hash-partitioned map pages; kernels allocate
    /// intermediates on scratch pages.
    Agg(Box<dyn ErasedAggSink>, ScratchPage),
    /// A join build table's partition maps, with scratch pages likewise.
    Build(JoinBuilder, ScratchPage),
}

impl SinkState {
    /// The page source of the span's kernels: the live output page for
    /// OUTPUT-like sinks (objects land where they are needed), scratch
    /// pages otherwise.
    fn kernel_pages(&mut self) -> &mut dyn PageSource {
        match self {
            SinkState::Write(w) => w,
            SinkState::Agg(_, s) | SinkState::Build(_, s) => s,
        }
    }
}

/// The database name intermediates are materialized under.
pub const TMP_DB: &str = "__tmp";

/// What every span of one stage on one worker shares: the knobs, the
/// pipeline and its resolved form, the aggregation engines, and the
/// worker's out-of-core context (the budget operators reserve working
/// memory against, and the spill store they shed page chains to when a
/// reservation is denied).
pub(crate) struct Stage<'a> {
    pub config: &'a ExecConfig,
    pub p: &'a PipelineSpec,
    pub rp: &'a ResolvedPipeline,
    pub aggs: &'a HashMap<String, Arc<dyn ErasedAgg>>,
    pub spill: &'a SpillCtx,
}

/// Runs one pipeline over one `(page, lo, hi)` row range (`None`: no input
/// rows, the sink machinery alone) with fresh sink state, on the calling
/// thread. This is the unit a morsel scheduler dispatches: every morsel
/// gets its own sink, so its output depends only on its input rows and
/// merges deterministically by morsel index. The output is sealed here, on
/// the thread that produced it (handles never cross threads — §6.5).
pub(crate) fn run_span(
    stage: &Stage,
    tables: &HashMap<String, JoinTable>,
    pool: &mut ColumnPool,
    span: Option<(&Arc<SealedPage>, usize, usize)>,
) -> PcResult<(MorselOutput, ExecStats)> {
    let Stage {
        config,
        p,
        rp,
        aggs,
        ..
    } = stage;
    let mut stats = ExecStats::default();
    let mut sink = match &p.sink {
        Sink::Output { .. } | Sink::Materialize { .. } => {
            SinkState::Write(SetWriter::new(config.page_size))
        }
        Sink::AggProduce { comp, .. } => {
            let agg = aggs
                .get(comp)
                .ok_or_else(|| PcError::Catalog(format!("no aggregation engine for {comp}")))?;
            SinkState::Agg(
                agg.new_sink(config.partitions, config.page_size, stage.spill.clone()),
                ScratchPage::new(config.page_size),
            )
        }
        Sink::JoinBuild { .. } => SinkState::Build(
            JoinBuilder::new(config.partitions, config.page_size),
            ScratchPage::new(config.page_size),
        ),
    };
    // One slot-addressed vector list and the thread's buffer pool serve
    // every batch: the batch boundary recycles column buffers instead of
    // freeing them, and the pool outlives the span so buffers stay affine
    // to the thread across morsels.
    let mut vl = VectorList::for_slots(rp.slot_names.clone());

    if let Some((page, lo, span_hi)) = span {
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

            run_batch(rp, tables, &mut vl, &mut sink, pool, &mut stats)?;
            stats.batches += 1;
            // Batch boundary: the vector list dies (its buffers return to
            // the pool, dropping object references), zombies release.
            vl.recycle(pool);
            if let SinkState::Write(w) = &mut sink {
                w.release_zombies()?;
            }
        }
    }

    let output = match sink {
        SinkState::Write(w) => {
            stats.rows_out += w.objects_written;
            stats.objects_copied += w.objects_copied;
            stats.max_zombie_pages = stats.max_zombie_pages.max(w.max_zombies);
            let pages = w.finish()?;
            stats.pages_written += pages.len() as u64;
            MorselOutput::Pages(pages)
        }
        SinkState::Build(t, _) => {
            stats.join_groups += t.rows();
            let pages = t.into_pages()?;
            stats.build_pages_sealed += pages.len() as u64;
            MorselOutput::TablePages(pages)
        }
        SinkState::Agg(mut sink, _) => {
            let parts = sink.flush()?;
            let s = sink.stats();
            stats.rows_aggregated += s.rows_absorbed;
            stats.map_pages_sealed += s.map_pages_sealed;
            stats.agg_pages_spilled += s.pages_spilled;
            stats.agg_bytes_spilled += s.bytes_spilled;
            MorselOutput::AggPartitions(parts)
        }
    };
    Ok((output, stats))
}

fn run_batch(
    rp: &ResolvedPipeline,
    tables: &HashMap<String, JoinTable>,
    vl: &mut VectorList,
    sink: &mut SinkState,
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
                let col = {
                    let cols: Vec<&Column> = inputs
                        .iter()
                        .map(|&s| vl.slot(s))
                        .collect::<PcResult<Vec<_>>>()?;
                    let mut ctx = ExecCtx::new(sink.kernel_pages())?;
                    kernel.apply(&cols, vl.sel(), &mut ctx)?
                };
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
                let (col, counts) = {
                    let mut ctx = ExecCtx::new(sink.kernel_pages())?;
                    kernel.apply(&[vl.slot(*input)?], vl.sel(), &mut ctx)?
                };
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
                build_slot,
                drop,
                drop_after,
            } => {
                let t = tables
                    .get(table)
                    .ok_or_else(|| PcError::Catalog(format!("join table {table} not built")))?;
                let mut idx = pool.take_sel();
                let mut built = pool.take_objs();
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
                // `built`'s buffer returns to the pool when the vector list
                // recycles at the batch boundary.
                vl.set_slot(*build_slot, Column::Obj(built));
                vl.drop_slots(drop_after, pool);
                pool.recycle_sel(idx);
            }
        }
    }
    if vl.is_empty() {
        return Ok(());
    }
    // Pipe sinks are contiguity boundaries: they consume the selection
    // directly (no compaction pass) by iterating live rows only.
    match (&rp.sink, sink) {
        (ResolvedSink::Write { slot }, SinkState::Write(w)) => {
            let objs = vl.slot(*slot)?.as_obj()?;
            for_each_sel(objs.len(), vl.sel(), |i| w.write_handle(&objs[i]))?;
        }
        (ResolvedSink::AggProduce { slot }, SinkState::Agg(agg, _)) => {
            agg.absorb(vl.slot(*slot)?, vl.sel())?;
        }
        (
            ResolvedSink::JoinBuild {
                hash_slot,
                obj_slot,
            },
            SinkState::Build(t, _),
        ) => {
            // The vectorized build: the whole selection-live batch is
            // hashed, radix-partitioned, and bulk-folded into the table's
            // partition chains in one call.
            let hashes = vl.slot(*hash_slot)?.as_u64()?;
            t.push_batch(hashes, vl.sel(), vl.slot(*obj_slot)?.as_obj()?)?;
        }
        _ => {
            return Err(PcError::Catalog(
                "pipeline sink and its resolved form disagree".into(),
            ))
        }
    }
    Ok(())
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
            objects_copied: 31,
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
        assert_eq!(total.objects_copied, 31);
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
