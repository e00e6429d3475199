//! The aggregation engine behind `AggregateComp` (§3, Appendix D.2).
//!
//! Aggregation in PC is built directly on the object model: worker threads
//! pre-aggregate into hash-partitioned [`PcMap`] objects allocated on
//! output pages; the pages are sealed and shuffled wholesale (zero
//! serialization); each partition's owner merges the partition's maps if it
//! arrived in pieces and materializes its output objects
//! ([`ErasedAgg::finalize_partition`], one partition per call, so an owner
//! finalizes its partitions on parallel lanes). This module provides:
//!
//! * [`AggregateSpec`] — the typed, user-implemented description of one
//!   aggregation (key extraction, in-place combine, partial-aggregate merge,
//!   output materialization);
//! * [`AggKey`] — key types usable for hash partitioning and map probing
//!   without allocating temporaries;
//! * [`ErasedAgg`] / [`ErasedAggSink`] / [`ErasedAggMerger`] — the
//!   object-safe interfaces the execution engine drives.
//!
//! The sink's hot path is **vectorized**: `absorb` extracts keys and hashes
//! for the whole selection-filtered batch into reusable scratch buffers and
//! hands the batch to a [`MapPageBuilder`] — the same radix-partitioned
//! map-page builder the join build uses — which scatters the rows by the
//! stored hash's top bits and folds each partition's bucket into its map page
//! with one resumable bulk upsert; the sink supplies the key comparison,
//! [`AggregateSpec::init`] and [`AggregateSpec::combine`], and budgets or
//! spills the pages the builder retires. The merger folds shuffled pages
//! map-at-a-time, reusing stored entry hashes instead of rehashing keys.
//! A partition emits its groups in stored-hash order; since partitions
//! hold ascending ranges of stored hashes
//! ([`partition_of`](pc_object::containers::partition_of)),
//! an owner's partitions concatenated in partition order are in one global
//! stored-hash order, whatever lane finalized each.
//! The old row-at-a-time path survives, compiled for this crate's tests
//! only, as `absorb_rowwise`: the reference the differential proptests in
//! `agg_vectorized` compare `absorb` against.

use crate::column::Column;
use crate::sink::SetWriter;
use pc_object::{
    hash as pc_hash, AllocPolicy, BlockRef, Handle, MapPage, MapPageBuilder, MemoryBudget,
    MemoryGrant, PageSpiller, PcKey, PcMap, PcObjType, PcResult, PcString, PcValue, SealedPage,
};
use std::marker::PhantomData;
use std::sync::Arc;

/// Out-of-core context for a pre-aggregation sink: the [`MemoryBudget`] its
/// sealed map pages reserve against, and the [`PageSpiller`] a chain falls
/// back to when a reservation is denied. An unlimited budget never denies
/// one, so its sink stays fully in memory.
#[derive(Clone)]
pub struct SpillCtx {
    pub budget: MemoryBudget,
    pub spiller: Arc<dyn PageSpiller>,
}

impl std::fmt::Debug for SpillCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillCtx")
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

/// A sealed partial-aggregate page that is either resident or spilled.
/// Spilled pages reload lazily at merge time, one page in memory at a time —
/// the aggregation side of grace-style two-pass execution.
pub enum AggPage {
    Ready(SealedPage),
    Spilled {
        spiller: Arc<dyn PageSpiller>,
        token: u64,
        bytes: usize,
    },
}

impl AggPage {
    /// The page's byte footprint (resident or on disk).
    pub fn bytes(&self) -> usize {
        match self {
            AggPage::Ready(p) => p.used(),
            AggPage::Spilled { bytes, .. } => *bytes,
        }
    }

    /// Whether the page currently lives on disk.
    pub fn is_spilled(&self) -> bool {
        matches!(self, AggPage::Spilled { .. })
    }

    /// Materializes the page, reloading (and discarding the spill file) if
    /// it was spilled.
    pub fn load(self) -> PcResult<SealedPage> {
        match self {
            AggPage::Ready(p) => Ok(p),
            AggPage::Spilled {
                spiller,
                token,
                bytes: _,
            } => {
                let page = spiller.reload(token)?;
                spiller.discard(token);
                Ok(page)
            }
        }
    }
}

/// A key type usable for aggregation: hashable and comparable against its
/// stored form without allocating, storable onto a map's page on first
/// insertion.
pub trait AggKey: Clone + 'static {
    /// The page-resident form ([`PcKey`]) used inside the partition maps.
    type Stored: PcKey;

    fn hash(&self) -> u64;
    /// Does this key equal the stored key at `slot`?
    fn matches(&self, b: &BlockRef, slot: u32) -> bool;
    /// Materializes the stored form on block `b` (first insertion).
    fn store_on(&self, b: &BlockRef) -> PcResult<Self::Stored>;
    /// Reads the key back from a stored slot (finalize iteration).
    fn load_from(b: &BlockRef, slot: u32) -> Self;
}

macro_rules! agg_key_int {
    ($($t:ty),*) => {$(
        impl AggKey for $t {
            type Stored = $t;
            fn hash(&self) -> u64 { pc_hash::mix64(*self as i64 as u64) }
            fn matches(&self, b: &BlockRef, slot: u32) -> bool { b.read::<$t>(slot) == *self }
            fn store_on(&self, _b: &BlockRef) -> PcResult<$t> { Ok(*self) }
            fn load_from(b: &BlockRef, slot: u32) -> Self { b.read(slot) }
        }
    )*};
}

agg_key_int!(i64, u64, i32, u32);

impl AggKey for (i32, i32) {
    type Stored = (i32, i32);
    fn hash(&self) -> u64 {
        pc_hash::combine(
            pc_hash::hash_i64(self.0 as i64),
            pc_hash::hash_i64(self.1 as i64),
        )
    }
    fn matches(&self, b: &BlockRef, slot: u32) -> bool {
        b.read::<(i32, i32)>(slot) == *self
    }
    fn store_on(&self, _b: &BlockRef) -> PcResult<Self> {
        Ok(*self)
    }
    fn load_from(b: &BlockRef, slot: u32) -> Self {
        b.read(slot)
    }
}

impl AggKey for String {
    type Stored = Handle<PcString>;
    fn hash(&self) -> u64 {
        pc_hash::hash_bytes(self.as_bytes())
    }
    fn matches(&self, b: &BlockRef, slot: u32) -> bool {
        let (off, _code) = b.read::<(u32, u32)>(slot);
        if off == 0 {
            return false;
        }
        let len = b.read_u32(off) as usize;
        b.bytes(off + 4, len) == self.as_bytes()
    }
    fn store_on(&self, b: &BlockRef) -> PcResult<Handle<PcString>> {
        PcString::make_on(b, self)
    }
    fn load_from(b: &BlockRef, slot: u32) -> Self {
        let h: Handle<PcString> = Handle::<PcString>::load(b, slot);
        h.as_str().to_string()
    }
}

/// A typed aggregation: how records map to keys, how values fold in place
/// on page memory, how partial aggregates merge, and how results
/// materialize into output objects.
///
/// The k-means aggregation of Appendix A is the canonical example: `In` is
/// `DataPoint`, `Key` the closest-centroid id, `Val` a running
/// `(count, sum-vector)`, and `Out` a `Centroid` object.
pub trait AggregateSpec: Send + Sync + 'static {
    type In: PcObjType;
    type Key: AggKey;
    type Val: PcValue;
    type Out: PcObjType;

    /// Extracts the grouping key (the paper's `getKeyProjection`).
    fn key_of(&self, rec: &Handle<Self::In>) -> PcResult<Self::Key>;

    /// Builds the initial stored value for a fresh key, allocating on the
    /// partition map's block `b` (the paper's `getValueProjection`).
    fn init(&self, b: &BlockRef, rec: &Handle<Self::In>) -> PcResult<Self::Val>;

    /// Folds `rec` into the existing stored value at `slot` (operator `+`).
    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<Self::In>) -> PcResult<()>;

    /// Merges a partial stored value (from a shuffled page) into `dst_slot`.
    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()>;

    /// Materializes the output object for a finished group. Runs with the
    /// output page active, so `make_object` allocates in place.
    fn finalize(&self, key: &Self::Key, b: &BlockRef, val_slot: u32)
        -> PcResult<Handle<Self::Out>>;
}

// --------------------------------------------------------------- erased API

/// Object-safe factory the engine stores inside an `AggregateComp`.
pub trait ErasedAgg: Send + Sync {
    /// Display name of the output type (diagnostics / catalog).
    fn out_type(&self) -> String;
    /// A pre-aggregation sink with `partitions` hash partitions. Its sealed
    /// map pages reserve against `spill`'s budget and spill under pressure.
    fn new_sink(
        &self,
        partitions: usize,
        page_size: usize,
        spill: SpillCtx,
    ) -> Box<dyn ErasedAggSink>;
    /// A merger for one partition's pages (the combining step).
    fn new_merger(&self, page_size: usize) -> Box<dyn ErasedAggMerger>;
    /// Entries in one partition's shuffled `pages`, summed: the
    /// partition's group count when it arrived as one page, an upper bound
    /// when several producers' pages hold the same key. Each page holds its
    /// producer's distinct keys of the partition whatever order they were
    /// folded in, so the count does not depend on spill schedules or
    /// thread counts. Pages are read in place.
    fn entries(&self, pages: &[SealedPage]) -> PcResult<u64>;
    /// The owner's final step for one partition: emits one output object
    /// per group of the partition's shuffled `pages` into `writer`, in
    /// stored-hash order, and returns the group count. A partition that
    /// arrives as one page is read in place; one that arrives as several
    /// merges first.
    fn finalize_partition(
        &self,
        pages: Vec<SealedPage>,
        page_size: usize,
        writer: &mut SetWriter,
    ) -> PcResult<u64>;
}

/// Counters a pre-aggregation sink accumulates while absorbing; folded into
/// the engine's `ExecStats` so the two-phase behavior of Appendix D.2 is
/// observable from `repro` output.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggSinkStats {
    /// Rows folded into partition maps.
    pub rows_absorbed: u64,
    /// Map pages sealed for shuffling (mid-burst page faults plus `flush`).
    pub map_pages_sealed: u64,
    /// Sealed map pages pushed to the spill store under memory pressure.
    pub pages_spilled: u64,
    /// Bytes those spilled pages carried.
    pub bytes_spilled: u64,
}

/// Pipeline-side pre-aggregation (the producing stage of Appendix D.2).
pub trait ErasedAggSink {
    /// Folds a column of input objects into the partition maps, batch at a
    /// time: keys and hashes for the whole (selection-filtered) batch are
    /// extracted into reusable scratch, row indices are radix-partitioned
    /// with a power-of-two mask, and each partition's map absorbs its rows
    /// as one grouped bulk upsert. When `sel` is `Some`, only the selected
    /// base rows are absorbed — the sink is a contiguity boundary, so it
    /// consumes the selection directly instead of forcing the pipeline to
    /// materialize a compacted column first.
    fn absorb(&mut self, objs: &Column, sel: Option<&[u32]>) -> PcResult<()>;
    /// The pre-vectorization reference path: one `key_of → hash → % →
    /// upsert` round trip per row. Kept so the differential tests can
    /// compare the two paths on identical input; the engine never calls
    /// this.
    #[cfg(test)]
    fn absorb_rowwise(&mut self, objs: &Column, sel: Option<&[u32]>) -> PcResult<()>;
    /// Seals all partition maps, returning `(partition, page)` pairs. Pages
    /// may be [`AggPage::Spilled`]; callers `load()` them at merge time so
    /// at most one reloaded page is in memory at once.
    fn flush(&mut self) -> PcResult<Vec<(usize, AggPage)>>;
    /// Counters accumulated so far (valid before and after `flush`).
    fn stats(&self) -> AggSinkStats;
}

/// Consuming-side merge of one partition's partial-aggregate pages.
pub trait ErasedAggMerger {
    /// Merges one partial-aggregate page.
    fn merge_page(&mut self, page: SealedPage) -> PcResult<()>;
    /// Seals the merged map back into shippable pages (used by the
    /// combining threads of Appendix D.2, which merge locally and forward).
    fn into_pages(self: Box<Self>) -> PcResult<Vec<SealedPage>>;
}

/// Wraps a typed [`AggregateSpec`] into the erased engine interface.
pub struct AggEngine<S: AggregateSpec>(pub Arc<S>);

impl<S: AggregateSpec> AggEngine<S> {
    pub fn new(spec: S) -> Self {
        AggEngine(Arc::new(spec))
    }
}

type MapOf<S> = PcMap<<<S as AggregateSpec>::Key as AggKey>::Stored, <S as AggregateSpec>::Val>;
type MapPageOf<S> =
    MapPage<<<S as AggregateSpec>::Key as AggKey>::Stored, <S as AggregateSpec>::Val>;

impl<S: AggregateSpec> ErasedAgg for AggEngine<S> {
    fn out_type(&self) -> String {
        S::Out::type_name()
    }

    fn new_sink(
        &self,
        partitions: usize,
        page_size: usize,
        spill: SpillCtx,
    ) -> Box<dyn ErasedAggSink> {
        Box::new(SinkImpl::<S> {
            spec: self.0.clone(),
            maps: MapPageBuilder::new(partitions, page_size),
            done: DonePages {
                pages: Vec::new(),
                spill,
                grant: None,
                stats: AggSinkStats::default(),
            },
            keys: Vec::new(),
        })
    }

    fn new_merger(&self, page_size: usize) -> Box<dyn ErasedAggMerger> {
        Box::new(MergerImpl::<S>::new(self.0.clone(), page_size))
    }

    fn entries(&self, pages: &[SealedPage]) -> PcResult<u64> {
        let mut n = 0;
        for page in pages {
            let (_block, root) = page.open_view()?;
            n += root.downcast::<MapOf<S>>()?.len() as u64;
        }
        Ok(n)
    }

    fn finalize_partition(
        &self,
        pages: Vec<SealedPage>,
        page_size: usize,
        writer: &mut SetWriter,
    ) -> PcResult<u64> {
        let page = match <[SealedPage; 1]>::try_from(pages) {
            Ok([page]) => {
                let (block, root) = page.open()?;
                MapPage {
                    map: root.downcast::<MapOf<S>>()?,
                    block,
                }
            }
            Err(pages) => {
                let mut merger = MergerImpl::<S>::new(self.0.clone(), page_size);
                for page in pages {
                    merger.merge_page(page)?;
                }
                match merger.acc {
                    Some(acc) => acc,
                    None => return Ok(0),
                }
            }
        };
        let mut entries: Vec<(u64, u32, u32)> = Vec::with_capacity(page.map.len());
        page.map.for_each_slot_hashed(|h, _b, k, v| {
            entries.push((h, k, v));
            Ok(())
        })?;
        // Canonical emit order: stored-key hash, not slot order. Slot order
        // encodes insertion history, which an out-of-core run replays wave
        // by wave — sorting keeps the output bytes identical to the
        // in-memory run regardless of the spill schedule. Partitions hold
        // disjoint, ascending hash ranges (`partition_of` takes the top
        // bits), so an owner's partitions emitted in partition order give
        // one global stored-hash order.
        entries.sort_unstable();
        let block = &page.block;
        for &(_h, kslot, vslot) in &entries {
            let key = S::Key::load_from(block, kslot);
            writer.write_with(|| Ok(self.0.finalize(&key, block, vslot)?.erase()))?;
        }
        Ok(entries.len() as u64)
    }
}

struct SinkImpl<S: AggregateSpec> {
    spec: Arc<S>,
    /// The partition maps: scatter, resumable fold, one open page each.
    maps: MapPageBuilder<<S::Key as AggKey>::Stored, S::Val>,
    /// Where full pages go.
    done: DonePages,
    /// Extracted keys, one per selected row (per-batch scratch).
    keys: Vec<S::Key>,
}

/// The sealed map pages a sink has retired, with their budget and spill
/// accounting.
struct DonePages {
    pages: Vec<(usize, AggPage)>,
    /// Out-of-core context.
    spill: SpillCtx,
    /// The reservation covering every `Ready` page in `pages`.
    grant: Option<MemoryGrant>,
    stats: AggSinkStats,
}

impl DonePages {
    /// Retires a sealed map page, reserving its bytes against the budget.
    /// A denied reservation spills partition `part`'s *whole* chain —
    /// every already-resident page of the partition plus the new one —
    /// returning the freed bytes to the budget (grace-style: once a
    /// partition starts spilling, keeping its older pages resident buys
    /// nothing, because the merge pass needs the full chain anyway).
    fn push(&mut self, part: usize, page: SealedPage) -> PcResult<()> {
        self.stats.map_pages_sealed += 1;
        let ctx = &self.spill;
        let bytes = page.used();
        let granted = match &mut self.grant {
            Some(g) => g.grow(bytes).is_ok(),
            None => match ctx.budget.reserve(bytes) {
                Ok(g) => {
                    self.grant = Some(g);
                    true
                }
                Err(_) => false,
            },
        };
        if granted {
            self.pages.push((part, AggPage::Ready(page)));
            return Ok(());
        }
        let mut freed = 0usize;
        for (p, ap) in self.pages.iter_mut() {
            if *p != part || ap.is_spilled() {
                continue;
            }
            if let AggPage::Ready(resident) = ap {
                let b = resident.used();
                let token = ctx.spiller.spill(resident)?;
                self.stats.pages_spilled += 1;
                self.stats.bytes_spilled += b as u64;
                freed += b;
                *ap = AggPage::Spilled {
                    spiller: ctx.spiller.clone(),
                    token,
                    bytes: b,
                };
            }
        }
        if freed > 0 {
            if let Some(g) = &mut self.grant {
                g.shrink(freed);
            }
        }
        let token = ctx.spiller.spill(&page)?;
        self.stats.pages_spilled += 1;
        self.stats.bytes_spilled += bytes as u64;
        self.pages.push((
            part,
            AggPage::Spilled {
                spiller: ctx.spiller.clone(),
                token,
                bytes,
            },
        ));
        Ok(())
    }
}

#[cfg(test)]
impl<S: AggregateSpec> SinkImpl<S> {
    /// The pre-vectorization per-row upsert, kept as the reference path
    /// behind `absorb_rowwise` (modulo-probed, closure-driven, one retry
    /// scaffold per row).
    fn upsert_row(
        &mut self,
        part: usize,
        hash: u64,
        key: &S::Key,
        rec: &Handle<S::In>,
    ) -> PcResult<()> {
        let spec = self.spec.clone();
        let mut page_size = self.maps.page_size();
        let mut on_fresh_page = false;
        for _ in 0..24 {
            let r = self.maps.open_page(part)?.map.upsert_by_modref(
                hash,
                |b, slot| key.matches(b, slot),
                |b| key.store_on(b),
                |b| spec.init(b, rec),
                |b, slot| spec.combine(b, slot, rec),
            );
            match r {
                Ok(()) => return Ok(()),
                Err(pc_object::PcError::BlockFull { .. }) => {
                    if on_fresh_page {
                        page_size = (page_size * 2).min(256 << 20);
                    }
                    let done = &mut self.done;
                    self.maps
                        .roll(part, page_size, |p, page| done.push(p, page))?;
                    on_fresh_page = true;
                }
                Err(e) => return Err(e),
            }
        }
        Err(pc_object::PcError::Catalog(
            "aggregate value exceeds the maximum page size".into(),
        ))
    }
}

impl<S: AggregateSpec> ErasedAggSink for SinkImpl<S> {
    fn absorb(&mut self, objs: &Column, sel: Option<&[u32]>) -> PcResult<()> {
        let objs = objs.as_obj()?;
        let SinkImpl {
            spec,
            maps,
            done,
            keys,
        } = self;
        // Extract keys and hashes for the whole selected batch into
        // reusable scratch. Records are *borrowed* from the column
        // (`typed_ref`): the batch path touches no reference count.
        keys.clear();
        let hashes = maps.batch();
        crate::kernel::for_each_sel(objs.len(), sel, |i| {
            let key = spec.key_of(objs[i].typed_ref::<S::In>())?;
            hashes.push(key.hash());
            keys.push(key);
            Ok(())
        })?;
        done.stats.rows_absorbed += keys.len() as u64;
        // Records are re-borrowed from the column by base row: a
        // zero-refcount typed view, valid for the life of the batch.
        let rec = |i: usize| objs[sel.map_or(i, |s| s[i] as usize)].typed_ref::<S::In>();
        let result = maps.fold(
            |i, b, slot| keys[i].matches(b, slot),
            |i, b| keys[i].store_on(b),
            |i, b| spec.init(b, rec(i)),
            |i, b, slot| spec.combine(b, slot, rec(i)),
            |part, page| done.push(part, page),
        );
        keys.clear();
        result
    }

    #[cfg(test)]
    fn absorb_rowwise(&mut self, objs: &Column, sel: Option<&[u32]>) -> PcResult<()> {
        let objs = objs.as_obj()?;
        self.done.stats.rows_absorbed += crate::kernel::sel_len(objs.len(), sel) as u64;
        crate::kernel::for_each_sel(objs.len(), sel, |i| {
            let rec = objs[i].downcast_unchecked::<S::In>();
            let key = self.spec.key_of(&rec)?;
            let hash = key.hash();
            let part = (hash % self.maps.partitions() as u64) as usize;
            self.upsert_row(part, hash, &key, &rec)
        })
    }

    fn flush(&mut self) -> PcResult<Vec<(usize, AggPage)>> {
        let done = &mut self.done;
        self.maps.finish(|part, page| done.push(part, page))?;
        // The flushed pages leave the sink; their memory is the caller's
        // now (merged page-at-a-time), so the reservation releases here.
        done.grant = None;
        Ok(std::mem::take(&mut done.pages))
    }

    fn stats(&self) -> AggSinkStats {
        self.done.stats
    }
}

struct MergerImpl<S: AggregateSpec> {
    spec: Arc<S>,
    page_size: usize,
    acc: Option<MapPageOf<S>>,
    _pd: PhantomData<fn() -> S>,
}

impl<S: AggregateSpec> MergerImpl<S> {
    fn new(spec: Arc<S>, page_size: usize) -> Self {
        MergerImpl {
            spec,
            page_size,
            acc: None,
            _pd: PhantomData,
        }
    }

    /// Grows the accumulator onto a block twice the size, deep-copying the
    /// map (keys keep hashing identically, so the rehash is exact).
    fn grow(&mut self) -> PcResult<()> {
        let old = self.acc.take().expect("grow without accumulator");
        let new_size = (old.block.capacity() * 2).max(self.page_size);
        let block = BlockRef::new(new_size, AllocPolicy::LightweightReuse);
        let map = old.map.deep_copy_to(&block)?;
        block.set_root(&map);
        self.acc = Some(MapPage { block, map });
        Ok(())
    }
}

impl<S: AggregateSpec> ErasedAggMerger for MergerImpl<S> {
    fn merge_page(&mut self, page: SealedPage) -> PcResult<()> {
        if self.acc.is_none() {
            self.acc = Some(MapPage::new(self.page_size)?);
        }
        let (src_block, root) = page.open()?;
        let src_map = root.downcast::<MapOf<S>>()?;
        let _ = src_block;
        // Page-at-a-time merge: stored hashes are reused (no per-entry
        // rehash), keys compare stored-to-stored, and first-sighted entries
        // adopt by deep copy. The cursor makes the fold resumable — a
        // `BlockFull` grows the accumulator block and continues exactly
        // where the fault hit, never re-merging a completed entry.
        let mut cursor = 0u32;
        loop {
            let spec = &self.spec;
            let acc = self.acc.as_ref().unwrap();
            let r = acc.map.merge_from(&src_map, &mut cursor, |db, dv, sb, sv| {
                spec.merge(db, dv, sb, sv)
            });
            match r {
                Ok(()) => return Ok(()),
                Err(pc_object::PcError::BlockFull { .. }) => self.grow()?,
                Err(e) => return Err(e),
            }
        }
    }

    fn into_pages(self: Box<Self>) -> PcResult<Vec<SealedPage>> {
        match self.acc {
            Some(acc) => Ok(vec![acc.seal()?]),
            None => Ok(Vec::new()),
        }
    }
}

#[cfg(test)]
mod agg_vectorized {
    //! Differential property tests for the vectorized aggregation sink: the
    //! batch path (batch hash → radix partition → grouped bulk upsert) and the
    //! row-at-a-time reference must produce identical `(key, count, sum)`
    //! multisets across random batches, selections, partition counts, and
    //! page-escalation sizes — after flushing, shuffling-style merging, and
    //! final materialization.

    use crate::agg::AggEngine;
    use crate::{AggregateSpec, Column, ErasedAgg, ErasedAggSink, SetWriter, SpillCtx};
    use pc_object::{
        make_object, pc_object, AllocScope, AnyObj, BlockRef, Handle, MemoryBudget, PageSpiller,
        PcResult, PcVec, SealedPage,
    };
    use proptest::prelude::*;
    use std::sync::Arc;

    /// The sinks' spill context: an unlimited budget never denies a
    /// reservation, so the spiller is never reached.
    fn in_memory() -> SpillCtx {
        struct Unreachable;
        impl PageSpiller for Unreachable {
            fn spill(&self, _: &SealedPage) -> PcResult<u64> {
                unreachable!("an unlimited budget spilled")
            }
            fn reload(&self, _: u64) -> PcResult<SealedPage> {
                unreachable!("an unlimited budget spilled")
            }
            fn discard(&self, _: u64) {
                unreachable!("an unlimited budget spilled")
            }
        }
        SpillCtx {
            budget: MemoryBudget::unlimited(),
            spiller: Arc::new(Unreachable),
        }
    }

    pc_object! {
        /// The test record: a group key and a payload value.
        pub struct Rec / RecView {
            (key, set_key): i64,
            (val, set_val): i64,
        }
    }

    struct GroupSum;

    impl AggregateSpec for GroupSum {
        type In = Rec;
        type Key = i64;
        type Val = (i64, i64); // (count, sum)
        type Out = PcVec<i64>; // [key, count, sum]

        fn key_of(&self, rec: &Handle<Rec>) -> PcResult<i64> {
            Ok(rec.v().key())
        }

        fn init(&self, _b: &BlockRef, rec: &Handle<Rec>) -> PcResult<(i64, i64)> {
            Ok((1, rec.v().val()))
        }

        fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<Rec>) -> PcResult<()> {
            let (c, s): (i64, i64) = b.read(slot);
            b.write(slot, (c + 1, s + rec.v().val()));
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

        fn finalize(&self, key: &i64, b: &BlockRef, val_slot: u32) -> PcResult<Handle<PcVec<i64>>> {
            let (c, s): (i64, i64) = b.read(val_slot);
            let out = make_object::<PcVec<i64>>()?;
            out.push(*key)?;
            out.push(c)?;
            out.push(s)?;
            Ok(out)
        }
    }

    /// Drains a sink through the full two-phase path (flush → the owner's
    /// per-partition merge and finalize) and returns the sorted
    /// `(key, count, sum)` groups.
    fn drain(
        engine: &AggEngine<GroupSum>,
        mut sink: Box<dyn ErasedAggSink>,
        page_size: usize,
    ) -> Vec<(i64, i64, i64)> {
        let mut parts: std::collections::BTreeMap<usize, Vec<SealedPage>> = Default::default();
        for (part, page) in sink.flush().unwrap() {
            parts.entry(part).or_default().push(page.load().unwrap());
        }
        let mut w = SetWriter::new(1 << 18);
        for pages in parts.into_values() {
            engine.finalize_partition(pages, page_size, &mut w).unwrap();
        }
        let mut out = Vec::new();
        for page in w.finish().unwrap() {
            let (_b, root) = SealedPage::from_bytes(&page.to_bytes())
                .unwrap()
                .open()
                .unwrap();
            let v = root.downcast::<PcVec<Handle<AnyObj>>>().unwrap();
            for h in v.iter() {
                let rec = h.assume::<PcVec<i64>>();
                out.push((rec.get(0), rec.get(1), rec.get(2)));
            }
        }
        out.sort_unstable();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn vectorized_and_rowwise_sinks_agree(
            rows in proptest::collection::vec((0i64..40, -100i64..100), 1..400),
            mask in proptest::collection::vec(any::<bool>(), 400..401),
            partitions in 1usize..6,
            page_size_exp in 12u32..17,
            batch_rows in 16usize..200,
        ) {
            let page_size = 1usize << page_size_exp; // 4 KiB .. 64 KiB: forces
                                                     // mid-burst seals + escalation
            let scope = AllocScope::new(1 << 22);
            let engine = AggEngine::new(GroupSum);
            let mut vectorized = engine.new_sink(partitions, page_size, in_memory());
            let mut rowwise = engine.new_sink(partitions, page_size, in_memory());

            // Build object batches of `batch_rows` rows each, with a selection
            // vector derived from the mask; absorb the same input through both
            // paths.
            let mut model: std::collections::HashMap<i64, (i64, i64)> = Default::default();
            for (chunk_at, chunk) in rows.chunks(batch_rows).enumerate() {
                let mut handles = Vec::with_capacity(chunk.len());
                for &(k, v) in chunk {
                    let r = make_object::<Rec>().unwrap();
                    r.v().set_key(k).unwrap();
                    r.v().set_val(v).unwrap();
                    handles.push(r.erase());
                }
                let sel: Vec<u32> = (0..chunk.len())
                    .filter(|i| mask[(chunk_at * batch_rows + i) % mask.len()])
                    .map(|i| i as u32)
                    .collect();
                for &i in &sel {
                    let (k, v) = chunk[i as usize];
                    let e = model.entry(k).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += v;
                }
                let col = Column::Obj(handles);
                vectorized.absorb(&col, Some(&sel)).unwrap();
                rowwise.absorb_rowwise(&col, Some(&sel)).unwrap();
            }
            drop(scope);

            let got_vec = drain(&engine, vectorized, page_size);
            let got_row = drain(&engine, rowwise, page_size);
            let mut want: Vec<(i64, i64, i64)> =
                model.into_iter().map(|(k, (c, s))| (k, c, s)).collect();
            want.sort_unstable();
            prop_assert_eq!(&got_vec, &got_row, "paths diverged");
            prop_assert_eq!(got_vec, want, "vectorized path wrong vs model");
        }

        #[test]
        fn dense_batches_agree_across_cardinalities(
            n in 1usize..600,
            card in prop_oneof![Just(1i64), Just(3), Just(16), Just(257)],
            partitions in 1usize..9,
        ) {
            // Dense (no selection) absorb over low and high cardinality,
            // including tiny pages that force the resumable bulk-upsert to seal
            // mid-bucket.
            let scope = AllocScope::new(1 << 22);
            let engine = AggEngine::new(GroupSum);
            let mut vectorized = engine.new_sink(partitions, 4096, in_memory());
            let mut rowwise = engine.new_sink(partitions, 4096, in_memory());
            let mut handles = Vec::with_capacity(n);
            let mut model: std::collections::HashMap<i64, (i64, i64)> = Default::default();
            for i in 0..n {
                let k = (i as i64 * 31) % card;
                let r = make_object::<Rec>().unwrap();
                r.v().set_key(k).unwrap();
                r.v().set_val(i as i64).unwrap();
                handles.push(r.erase());
                let e = model.entry(k).or_insert((0, 0));
                e.0 += 1;
                e.1 += i as i64;
            }
            let col = Column::Obj(handles);
            vectorized.absorb(&col, None).unwrap();
            rowwise.absorb_rowwise(&col, None).unwrap();
            drop(scope);

            let got_vec = drain(&engine, vectorized, 4096);
            let got_row = drain(&engine, rowwise, 4096);
            let mut want: Vec<(i64, i64, i64)> =
                model.into_iter().map(|(k, (c, s))| (k, c, s)).collect();
            want.sort_unstable();
            prop_assert_eq!(&got_vec, &got_row, "paths diverged");
            prop_assert_eq!(got_vec, want, "vectorized path wrong vs model");
        }
    }
}
