//! Morsel-driven parallel stage execution with work stealing.
//!
//! A stage's input pages are carved into fixed-size **morsels** (a bounded
//! run of rows that never spans a page). Morsels are dealt round-robin into
//! per-thread deques; each worker thread pops from the front of its own
//! deque and, when it drains, steals from the **back** of a victim's — the
//! classic morsel-driven scheme (Leis et al.): cheap local FIFO dispatch,
//! skew absorbed by stealing the coldest work furthest from the victim's
//! current position.
//!
//! **Determinism.** Stealing makes the *schedule* timing-dependent, so no
//! state may accumulate across morsels in a thread (PC map layout is
//! insertion-order-sensitive). Every morsel therefore runs with fresh sink
//! state (`local::run_span`) and seals its output inside the
//! producing thread; the driver merges sealed outputs strictly by **morsel
//! index**. The morsel decomposition is a pure function of the input pages
//! and `morsel_rows`, so the merged bytes are identical for every thread
//! count and every steal schedule. What *is* thread-affine — the
//! `ColumnPool` buffer cache — only affects allocation, never output bytes.

use crate::jointable::{JoinTable, TagFilter};
use crate::local::{run_span, ExecConfig, ExecStats, Stage};
use crate::plan::PipelineSpec;
use pc_lambda::{AggPage, ColumnPool, ErasedAgg, SpillCtx, StageLibrary};
use pc_object::{
    sync, AnyObj, Handle, MemoryBudget, MemoryGrant, PageSpiller, PcError, PcResult, PcVec,
    SealedPage,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One unit of schedulable work: rows `lo..hi` of a single sealed page.
pub struct Morsel {
    /// Position in the stage's global morsel order (the merge key).
    pub index: usize,
    /// The input page this morsel reads (shared, zero-copy).
    pub page: Arc<SealedPage>,
    /// First row of the run.
    pub lo: usize,
    /// One past the last row of the run.
    pub hi: usize,
}

/// Carves `pages` into morsels of at most `morsel_rows` rows. The result
/// depends only on the pages' row counts and `morsel_rows` — never on
/// thread count — which is what makes morsel-order merging deterministic.
pub fn carve_morsels(pages: &[Arc<SealedPage>], morsel_rows: usize) -> PcResult<Vec<Morsel>> {
    let step = morsel_rows.max(1);
    let mut morsels = Vec::new();
    for page in pages {
        let (_block, root) = page.open_view()?;
        let root: Handle<PcVec<Handle<AnyObj>>> = root.downcast()?;
        let total = root.len();
        let mut at = 0usize;
        while at < total {
            let hi = (at + step).min(total);
            morsels.push(Morsel {
                index: morsels.len(),
                page: page.clone(),
                lo: at,
                hi,
            });
            at = hi;
        }
    }
    Ok(morsels)
}

/// The shared morsel scheduler: per-thread deques with steal-on-drain.
pub struct MorselQueue {
    deques: Vec<Mutex<VecDeque<Morsel>>>,
    dispatched: AtomicU64,
    stolen: AtomicU64,
}

impl MorselQueue {
    /// Deals morsels round-robin by index over `threads` deques.
    pub fn deal(morsels: Vec<Morsel>, threads: usize) -> Self {
        let threads = threads.max(1);
        let mut deques: Vec<VecDeque<Morsel>> = (0..threads).map(|_| VecDeque::new()).collect();
        for m in morsels {
            deques[m.index % threads].push_back(m);
        }
        MorselQueue {
            deques: deques.into_iter().map(Mutex::new).collect(),
            dispatched: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
        }
    }

    /// Next morsel for thread `me`: front of its own deque, else stolen
    /// from the back of the nearest non-empty victim. `None` means every
    /// deque has drained — the work set is fixed up front, so no new
    /// morsels can appear afterwards.
    pub fn next(&self, me: usize) -> Option<Morsel> {
        if let Some(m) = sync::lock(&self.deques[me]).pop_front() {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            return Some(m);
        }
        for k in 1..self.deques.len() {
            let victim = (me + k) % self.deques.len();
            if let Some(m) = sync::lock(&self.deques[victim]).pop_back() {
                self.dispatched.fetch_add(1, Ordering::Relaxed);
                self.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(m);
            }
        }
        None
    }

    /// Total morsels handed out so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// How many of those were steals.
    pub fn stolen(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }
}

/// Runs `f(item)` for every item, each on its own scoped thread, and returns
/// the results in item order. A panic in `f` is re-raised on the caller with
/// its original payload once every thread has finished. Every stage-level
/// spawn-and-join goes through here.
pub fn fan_out<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// One morsel's sink result, sealed into pages inside the producing thread
/// (handles never cross threads — §6.5), so it is `Send`: the cluster routes
/// it to storage, broadcast, or shuffle as it is.
pub enum MorselOutput {
    /// Sealed output pages (OUTPUT / materialization sinks).
    Pages(Vec<SealedPage>),
    /// A sealed join build table's partition-tagged map pages.
    TablePages(Vec<(usize, SealedPage)>),
    /// Pre-aggregated `(partition, page)` pairs awaiting merge; a page may
    /// be resident or spilled (it reloads lazily at merge time).
    AggPartitions(Vec<(usize, AggPage)>),
}

/// One planned second-pass chunk: `(spilled-partition index, lo page, hi
/// page)` — the half-open token range a wave reloads together.
type ChunkPlan = (usize, usize, usize);

/// A join build partition shed whole under memory pressure: its page chain
/// lives in the spill store until a second-pass wave reloads it.
pub struct SpilledPartition {
    /// The radix partition index the chain's pages are tagged with.
    pub part: usize,
    /// Spill-store tokens for the chain's pages, in chain order.
    pub tokens: Vec<u64>,
    /// Per-page payload bytes (the unit the wave chunker budgets in).
    pub page_bytes: Vec<usize>,
    /// Total bytes across the chain.
    pub bytes: usize,
}

/// A sealed, shareable join build table: partition-tagged pages plus the
/// tag filters built once at merge/gather time. Probe threads (local
/// morsel workers and remote cluster workers alike) reopen zero-copy
/// [`JoinTable`] views over it with [`SharedTable::open`].
///
/// Under a memory budget the table may be *partial*: partitions that did
/// not fit their reservation were sealed and spilled whole at gather time
/// (`spilled`), and the stage driver probes them in second-pass waves that
/// reload one budget-sized chunk of a chain at a time. The tag filters
/// always cover the **full** table — a spilled partition's filter is
/// exactly the reload skip-check the second pass reuses.
pub struct SharedTable {
    /// Radix partition count the pages are tagged with.
    pub partitions: usize,
    /// Resident partition-tagged sealed map pages, in deterministic
    /// (morsel / gather) order.
    pub pages: Vec<(usize, Arc<SealedPage>)>,
    /// Per-partition 16-bit blocked-Bloom tag filters, built once over the
    /// full table (before any spilling) and shared by every reopening
    /// thread and every wave.
    pub filters: Vec<TagFilter>,
    /// Partitions shed whole to the spill store at gather time, sorted by
    /// partition index.
    pub spilled: Vec<SpilledPartition>,
    /// Where the spilled chains live (present iff anything spilled).
    spiller: Option<Arc<dyn PageSpiller>>,
    /// The budget reservation backing the resident pages; returned when the
    /// table drops.
    _grant: Option<MemoryGrant>,
}

impl SharedTable {
    /// Builds the shared form under the worker's memory budget. The
    /// gathered table's bytes are reserved against the budget; while the
    /// reservation is denied, the **largest** resident partition's whole
    /// page chain is sealed to the spill store and the (smaller)
    /// reservation retried — grace-style shedding. The loop always
    /// terminates: every denial sheds at least one page, and a zero-byte
    /// reservation is never denied, so in the worst case the table ends
    /// fully spilled with no grant held.
    pub fn from_tagged_pages_budgeted(
        partitions: usize,
        pages: Vec<(usize, Arc<SealedPage>)>,
        ctx: &SpillCtx,
    ) -> PcResult<Self> {
        let partitions = pc_object::containers::round_partitions(partitions);
        // Filters cover the FULL table, built before anything spills: a
        // spilled partition's filter doubles as the second pass's reload
        // skip-check, and wave views reuse the same filter set unchanged.
        let filters = JoinTable::build_shared_tag_filters(partitions, &pages)?;
        let mut resident = pages;
        let mut spilled: Vec<SpilledPartition> = Vec::new();
        let mut total: usize = resident.iter().map(|(_, pg)| pg.used()).sum();
        let grant = loop {
            match ctx.budget.reserve(total) {
                Ok(g) => break Some(g),
                Err(PcError::MemoryPressure { .. }) => {
                    let mut per: HashMap<usize, usize> = HashMap::new();
                    for (part, pg) in &resident {
                        *per.entry(*part).or_insert(0) += pg.used();
                    }
                    // Largest partition first; ties break to the smallest
                    // index so the shed order is deterministic.
                    let Some((&victim, _)) = per
                        .iter()
                        .max_by_key(|(part, bytes)| (**bytes, std::cmp::Reverse(**part)))
                    else {
                        break None;
                    };
                    let mut keep = Vec::with_capacity(resident.len());
                    let mut tokens = Vec::new();
                    let mut page_bytes = Vec::new();
                    let mut bytes = 0usize;
                    for (part, pg) in resident {
                        if part == victim {
                            let used = pg.used();
                            tokens.push(ctx.spiller.spill(&pg)?);
                            page_bytes.push(used);
                            bytes += used;
                        } else {
                            keep.push((part, pg));
                        }
                    }
                    resident = keep;
                    total -= bytes;
                    spilled.push(SpilledPartition {
                        part: victim,
                        tokens,
                        page_bytes,
                        bytes,
                    });
                }
                Err(e) => return Err(e),
            }
        };
        spilled.sort_by_key(|sp| sp.part);
        let spiller = if spilled.is_empty() {
            None
        } else {
            Some(ctx.spiller.clone())
        };
        Ok(SharedTable {
            partitions,
            pages: resident,
            filters,
            spilled,
            spiller,
            _grant: grant,
        })
    }

    /// Opens a read-only probe view (zero-copy page reopen, shared
    /// filters). Each probing thread opens its own view once and probes it
    /// for every morsel it runs. Spilled partitions simply have no resident
    /// pages: their probes route to an empty chain and match nothing — the
    /// second-pass waves own those rows.
    pub fn open(&self) -> PcResult<JoinTable> {
        JoinTable::from_shared_pages(self.partitions, &self.pages, &self.filters)
    }

    /// How many partitions were shed to the spill store.
    pub fn spilled_partitions(&self) -> usize {
        self.spilled.len()
    }

    /// Total bytes across all spilled chains.
    pub fn spilled_bytes(&self) -> usize {
        self.spilled.iter().map(|sp| sp.bytes).sum()
    }

    /// A resident-only clone (shared pages and filters, no spill state) —
    /// the view of this table a second-pass wave uses when the wave is
    /// reloading some *other* table's chunk.
    fn resident_view(&self) -> SharedTable {
        SharedTable {
            partitions: self.partitions,
            pages: self.pages.clone(),
            filters: self.filters.clone(),
            spilled: Vec::new(),
            spiller: None,
            _grant: None,
        }
    }

    /// Plans the second-pass chunking of every spilled chain: each chunk is
    /// at least one page, grown greedily while the budget grants more. The
    /// planning reservations are sizing probes only (released immediately);
    /// [`Self::open_chunk`] re-reserves when a wave actually reloads.
    fn plan_chunks(&self, budget: &MemoryBudget) -> Vec<ChunkPlan> {
        let mut chunks = Vec::new();
        for (si, sp) in self.spilled.iter().enumerate() {
            let mut lo = 0;
            while lo < sp.page_bytes.len() {
                let mut hi = lo + 1;
                // A denied first page still chunks alone: the wave must
                // make progress under any denial pattern.
                if let Ok(mut g) = budget.reserve(sp.page_bytes[lo]) {
                    while hi < sp.page_bytes.len() && g.grow(sp.page_bytes[hi]).is_ok() {
                        hi += 1;
                    }
                }
                chunks.push((si, lo, hi));
                lo = hi;
            }
        }
        chunks
    }

    /// Reloads pages `lo..hi` of spilled chain `si` into a probe-able view.
    /// The reservation is best-effort: a denial must not stall the wave —
    /// reloading is the only path that drains the spill store.
    fn open_chunk(
        &self,
        si: usize,
        lo: usize,
        hi: usize,
        budget: &MemoryBudget,
    ) -> PcResult<SharedTable> {
        let sp = &self.spilled[si];
        let spiller = self
            .spiller
            .as_ref()
            .ok_or_else(|| PcError::Catalog("spilled join table has no spiller".into()))?;
        let bytes: usize = sp.page_bytes[lo..hi].iter().sum();
        let grant = budget.reserve(bytes).ok();
        let mut pages = Vec::with_capacity(hi - lo);
        for k in lo..hi {
            pages.push((sp.part, Arc::new(spiller.reload(sp.tokens[k])?)));
        }
        Ok(SharedTable {
            partitions: self.partitions,
            pages,
            filters: self.filters.clone(),
            spilled: Vec::new(),
            spiller: None,
            _grant: grant,
        })
    }
}

/// Opens thread-local probe views of every table this pipeline probes.
fn open_probe_tables(
    stage: &Stage,
    shared: &HashMap<String, SharedTable>,
) -> PcResult<HashMap<String, JoinTable>> {
    let mut local = HashMap::new();
    for t in stage.p.probes() {
        let st = shared
            .get(t)
            .ok_or_else(|| PcError::Catalog(format!("join table {t} not built")))?;
        local.insert(t.to_string(), st.open()?);
    }
    Ok(local)
}

type MorselResults = PcResult<Vec<(usize, MorselOutput, ExecStats)>>;

/// One worker thread's loop: pull morsels (own deque first, then steal),
/// run each as an independent span with fresh sink state, seal its output,
/// and tag it with its morsel index for the deterministic merge.
fn run_worker(
    stage: &Stage,
    shared: &HashMap<String, SharedTable>,
    queue: &MorselQueue,
    me: usize,
) -> MorselResults {
    let mut pool = ColumnPool::default();
    let local_tables = open_probe_tables(stage, shared)?;
    let mut acc = Vec::new();
    while let Some(m) = queue.next(me) {
        let span = Some((&m.page, m.lo, m.hi));
        let (out, stats) = run_span(stage, &local_tables, &mut pool, span)?;
        acc.push((m.index, out, stats));
    }
    Ok(acc)
}

/// Runs one pipeline stage morsel-driven over `config.threads`
/// work-stealing threads, with `spill` (the worker's memory budget and
/// spill store) as the out-of-core context of its operators. Returns each
/// morsel's sealed output **in morsel order** plus the merged stats (also
/// folded in morsel order, so even stats are schedule-independent apart
/// from `morsels_stolen`).
///
/// If any probed table shed partitions to the spill store at gather time,
/// the stage runs **second-pass waves** after the resident pass: one wave
/// per budget-sized chunk of each spilled chain (cartesian across tables
/// when several spilled), each wave re-scanning the input against a view
/// holding only that chunk. A build row lives in exactly one chunk, so the
/// waves' outputs union disjointly to the unbudgeted result; outputs
/// concatenate in wave order, which is deterministic given the chunk plan.
pub fn run_stage_morsels(
    config: &ExecConfig,
    p: &PipelineSpec,
    pages: &[Arc<SealedPage>],
    stages: &StageLibrary,
    aggs: &HashMap<String, Arc<dyn ErasedAgg>>,
    shared: &HashMap<String, SharedTable>,
    spill: &SpillCtx,
) -> PcResult<(Vec<MorselOutput>, ExecStats)> {
    let rp = p.resolve(stages)?;
    let stage = Stage {
        config,
        p,
        rp: &rp,
        aggs,
        spill,
    };
    let (mut outputs, mut stats) = run_wave(&stage, pages, shared)?;

    // ---- second pass: probe waves over spilled join partitions ----
    let spilled_tables: Vec<&str> = p
        .probes()
        .into_iter()
        .filter(|t| shared.get(*t).is_some_and(|st| !st.spilled.is_empty()))
        .collect();
    if spilled_tables.is_empty() || pages.is_empty() {
        return Ok((outputs, stats));
    }
    // Per spilled table: its chunk plan. A wave picks, for every spilled
    // table, either the resident view (index 0) or one chunk (index i+1);
    // the all-resident combination was the first pass above.
    let plans: Vec<(&str, Vec<ChunkPlan>)> = spilled_tables
        .iter()
        .map(|t| (*t, shared[*t].plan_chunks(&spill.budget)))
        .collect();
    let lens: Vec<usize> = plans.iter().map(|(_, c)| c.len() + 1).collect();
    let mut idx = vec![0usize; plans.len()];
    'waves: loop {
        // Odometer advance; starting from all-zero naturally skips the
        // resident×resident combination.
        let mut k = 0;
        loop {
            idx[k] += 1;
            if idx[k] < lens[k] {
                break;
            }
            idx[k] = 0;
            k += 1;
            if k == idx.len() {
                break 'waves;
            }
        }
        let mut wave_shared: HashMap<String, SharedTable> = HashMap::new();
        for t in p.probes() {
            let st = &shared[t];
            let view = match plans.iter().position(|(n, _)| *n == t) {
                Some(pi) if idx[pi] > 0 => {
                    let (si, lo, hi) = plans[pi].1[idx[pi] - 1];
                    st.open_chunk(si, lo, hi, &spill.budget)?
                }
                _ => st.resident_view(),
            };
            wave_shared.insert(t.to_string(), view);
        }
        let (wave_out, wave_stats) = run_wave(&stage, pages, &wave_shared)?;
        stats.absorb(&wave_stats);
        stats.spill_waves += 1;
        outputs.extend(wave_out);
    }
    Ok((outputs, stats))
}

/// One pass of a stage over `pages` against one set of probe views: the
/// morsel-driven core of [`run_stage_morsels`].
fn run_wave(
    stage: &Stage,
    pages: &[Arc<SealedPage>],
    shared: &HashMap<String, SharedTable>,
) -> PcResult<(Vec<MorselOutput>, ExecStats)> {
    let morsels = carve_morsels(pages, stage.config.morsel_rows)?;

    if morsels.is_empty() {
        // No input rows: still run the sink machinery once so an empty
        // input yields the sink's (empty) output — a finished empty table,
        // a flushed map — exactly as the single-threaded engine does.
        let mut pool = ColumnPool::default();
        let local_tables = open_probe_tables(stage, shared)?;
        let (out, mut stats) = run_span(stage, &local_tables, &mut pool, None)?;
        stats.threads_used = stats.threads_used.max(1);
        return Ok((vec![out], stats));
    }

    // Never spawn more threads than there are morsels to run.
    let nthreads = stage.config.threads.max(1).min(morsels.len());
    let queue = MorselQueue::deal(morsels, nthreads);

    let per_thread: Vec<MorselResults> = if nthreads == 1 {
        // Single-threaded: run inline, no spawn overhead.
        vec![run_worker(stage, shared, &queue, 0)]
    } else {
        fan_out(0..nthreads, |t| run_worker(stage, shared, &queue, t))
    };

    let mut tagged = Vec::new();
    for r in per_thread {
        tagged.extend(r?);
    }
    // The deterministic merge: outputs and stats fold by morsel index, not
    // completion order.
    tagged.sort_by_key(|(i, _, _)| *i);
    let mut stats = ExecStats::default();
    let mut outputs = Vec::with_capacity(tagged.len());
    for (_, out, s) in tagged {
        stats.absorb(&s);
        outputs.push(out);
    }
    stats.morsels_dispatched += queue.dispatched();
    stats.morsels_stolen += queue.stolen();
    stats.threads_used = stats.threads_used.max(nthreads);
    Ok((outputs, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_lambda::SetWriter;
    use pc_object::{make_object, PcVec};

    fn page_with(rows: usize) -> Arc<SealedPage> {
        let mut w = SetWriter::new(1 << 20);
        for i in 0..rows {
            w.write_with(|| {
                let v = make_object::<PcVec<i64>>()?;
                v.push(i as i64)?;
                Ok(v.erase())
            })
            .unwrap();
        }
        let pages = w.finish().unwrap();
        assert_eq!(pages.len(), 1);
        Arc::new(pages.into_iter().next().unwrap())
    }

    #[test]
    fn carve_respects_page_boundaries_and_morsel_rows() {
        let pages = vec![page_with(10), page_with(3), page_with(7)];
        let morsels = carve_morsels(&pages, 4).unwrap();
        let runs: Vec<(usize, usize)> = morsels.iter().map(|m| (m.lo, m.hi)).collect();
        assert_eq!(
            runs,
            vec![(0, 4), (4, 8), (8, 10), (0, 3), (0, 4), (4, 7)],
            "morsels cover every row exactly once and never span a page"
        );
        assert!(morsels.iter().enumerate().all(|(i, m)| m.index == i));
        // The decomposition ignores thread count entirely — only rows and
        // morsel_rows matter.
        assert_eq!(carve_morsels(&pages, 4).unwrap().len(), morsels.len());
    }

    #[test]
    fn carve_of_empty_input_is_empty() {
        assert!(carve_morsels(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn queue_drains_every_morsel_exactly_once_and_counts_steals() {
        let pages = vec![page_with(64)];
        let morsels = carve_morsels(&pages, 4).unwrap();
        let n = morsels.len();
        assert_eq!(n, 16);
        let q = MorselQueue::deal(morsels, 4);
        // Thread 3 never shows up; thread 0 does all the work, stealing
        // everything dealt to 1, 2, and 3.
        let mut seen = Vec::new();
        while let Some(m) = q.next(0) {
            seen.push(m.index);
        }
        assert_eq!(q.dispatched(), n as u64);
        assert_eq!(q.stolen(), (n - n / 4) as u64);
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..n).collect::<Vec<_>>(),
            "no morsel lost or duplicated"
        );
    }

    #[test]
    fn steals_come_from_the_back_of_the_victim() {
        let pages = vec![page_with(8)];
        let q = MorselQueue::deal(carve_morsels(&pages, 1).unwrap(), 2);
        // Thread 1 owns indices 1,3,5,7 (front→back). A thief takes 7 first.
        let stolen = q.next(0); // own deque: 0
        assert_eq!(stolen.unwrap().index, 0);
        for _ in 0..3 {
            q.next(0);
        }
        // Own deque (0,2,4,6) is drained; next pull steals 1's back = 7.
        assert_eq!(q.next(0).unwrap().index, 7);
        assert_eq!(q.next(1).unwrap().index, 1, "victim still pops its front");
    }
}
