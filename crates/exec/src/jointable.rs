//! Join hash tables (Appendix D.3): `Map<unsigned_t, Vector<Object>>`
//! objects living on pages — radix-partitioned and built batch-at-a-time.
//!
//! A build-side entry stores `arity` object handles per match group (one
//! per object column of a composite build side). Inserting deep-copies the
//! objects onto the table's page — the same movement the original system
//! performs when repartition sinks write `Map<unsigned_t, Vector<Object>>`
//! pages. Probing walks the bucket in `arity`-sized groups; hash collisions
//! are resolved by the residual predicate the compiler re-emits post-join.
//!
//! The table mirrors the vectorized aggregation sink's layout: the key's
//! slot hash is computed once per row, its **high** bits select one of a
//! power-of-two set of partitions (a shift and mask — disjoint from the low
//! bits the partition maps consume for masked probing), and each partition
//! owns its own chain of map pages. The build path ([`JoinTable::insert_batch`])
//! radix-partitions a whole selection-filtered batch and folds each bucket
//! into its partition's open page with one grouped bulk upsert; the probe
//! path routes a key to its owning partition's chain only — never a full
//! table scan — after a compact 16-bit tag filter (built from the stored
//! hashes when the build seals) has rejected miss probes without touching
//! any map. The pre-vectorization row-at-a-time build and the unrouted
//! full-scan probe survive, compiled for this crate's tests only, as
//! `insert_rowwise` and `probe_into_scan`: the references the differential
//! tests here and in `join_vectorized` compare the batch paths against.

use pc_object::{
    AllocPolicy, AnyHandle, AnyObj, BlockRef, Handle, PcError, PcKey, PcMap, PcResult, PcVec,
    SealedPage,
};
use std::cell::Cell;

type Bucket = Handle<PcVec<Handle<AnyObj>>>;
type TableMap = PcMap<u64, Bucket>;

/// Default hash-partition count for join tables (overridable through
/// `ExecConfig::join_partitions` / [`JoinTable::with_partitions`]).
pub const DEFAULT_JOIN_PARTITIONS: usize = 8;

/// A partition's probe-side tag filter: a blocked Bloom filter with 16-bit
/// blocks, sized at seal time from the partition's entry count. Shared
/// (`Arc`) so a broadcast table's filters are built once and reopened by
/// every pipelining thread without rescanning the maps. Empty = not built
/// (probes go straight to the maps); any insert invalidates it.
pub type TagFilter = std::sync::Arc<Vec<u16>>;

/// One radix partition: its chain of map pages (the last one is open for
/// inserts; earlier ones filled up) and its probe-side tag filter.
struct Partition {
    pages: Vec<(BlockRef, Handle<TableMap>)>,
    tags: TagFilter,
}

/// Reusable batch scratch for [`JoinTable::insert_batch`] — grown on the
/// first batch, cleared (not freed) afterwards.
#[derive(Default)]
struct BuildScratch {
    /// Base row of each selected row.
    rows: Vec<u32>,
    /// Join-key hash (the hash column's value) per selected row.
    jhashes: Vec<u64>,
    /// Slot hash (`PcKey::hash_val` of the join hash) per selected row.
    shashes: Vec<u64>,
    /// Radix bucket boundaries: partition `p` owns `starts[p]..starts[p+1]`.
    starts: Vec<u32>,
    /// Scatter cursors, one per partition.
    cursors: Vec<u32>,
    /// Selected-row indices in bucket order.
    order: Vec<u32>,
    /// Slot hashes in bucket order — the contiguous bulk-upsert input.
    bucket_hashes: Vec<u64>,
}

/// One join input's hash table: a power-of-two set of radix partitions,
/// each spanning one or more pages.
pub struct JoinTable {
    arity: usize,
    page_size: usize,
    partitions: usize,
    parts: Vec<Partition>,
    scratch: BuildScratch,
    /// Total object groups inserted.
    pub groups: u64,
    /// Probe keys the tag filters rejected without a map probe.
    tag_rejects: Cell<u64>,
}

impl JoinTable {
    pub fn new(arity: usize, page_size: usize) -> Self {
        Self::with_partitions(arity, page_size, DEFAULT_JOIN_PARTITIONS)
    }

    /// The partition-count rounding every table applies: at least one, and
    /// a power of two so partition selection is a shift and mask. The one
    /// source of truth for builders, reopeners, and the broadcast store.
    pub fn round_partitions(partitions: usize) -> usize {
        partitions.max(1).next_power_of_two()
    }

    /// A table with an explicit hash-partition count (rounded by
    /// [`Self::round_partitions`]).
    pub fn with_partitions(arity: usize, page_size: usize, partitions: usize) -> Self {
        let partitions = Self::round_partitions(partitions);
        JoinTable {
            arity,
            page_size,
            partitions,
            parts: (0..partitions)
                .map(|_| Partition {
                    pages: Vec::new(),
                    tags: TagFilter::default(),
                })
                .collect(),
            scratch: BuildScratch::default(),
            groups: 0,
            tag_rejects: Cell::new(0),
        }
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Partition of a slot hash: high bits, masked. The map probe consumes
    /// the low bits and the tag filter the bits above the partition's, so
    /// the three stay independent.
    #[inline]
    fn part_of(&self, shash: u64) -> usize {
        ((shash >> 32) as usize) & (self.partitions - 1)
    }

    /// Tag-filter position of a slot hash within a filter of `len` (power
    /// of two) 16-bit blocks: `(block_index, bit_mask)`. The block index
    /// draws from the low bits (so even multi-million-entry partitions
    /// index the whole filter — low bits vary freely within a partition,
    /// unlike the partition-select bits 32..44) and the bit from bits
    /// 55..59 — ranges disjoint from each other and from bit 63, which the
    /// map repurposes as its OCCUPIED marker and strips from stored hashes
    /// (the filter is built from stored hashes, so consuming bit 63 would
    /// produce false negatives for half of all keys).
    #[inline]
    fn tag_pos(shash: u64, len: usize) -> (usize, u16) {
        (shash as usize & (len - 1), 1u16 << ((shash >> 55) & 15))
    }

    /// Opens a fresh map page at the end of `part`'s chain; returns its map.
    fn add_page(&mut self, part: usize, page_size: usize) -> PcResult<Handle<TableMap>> {
        let block = BlockRef::new(page_size, AllocPolicy::LightweightReuse);
        let map = block.make_object::<TableMap>()?;
        block.set_root(&map);
        self.parts[part].pages.push((block, map.clone()));
        Ok(map)
    }

    // ------------------------------------------------------------- building

    /// The vectorized build sink: inserts every selection-live row of a
    /// batch in three phases — (1) slot hashes for the whole batch into
    /// reusable scratch, (2) a counting radix scatter of row indices by the
    /// hash's high bits, (3) one grouped bulk upsert per non-empty
    /// partition, so consecutive probes stay on that partition's hot table.
    /// `cols[k][row]` is the `k`-th build-side object of base row `row`.
    pub fn insert_batch(
        &mut self,
        hashes: &[u64],
        sel: Option<&[u32]>,
        cols: &[&[AnyHandle]],
    ) -> PcResult<()> {
        debug_assert_eq!(cols.len(), self.arity);
        // Phase 1: extract base rows, join hashes, and slot hashes.
        let mut s = std::mem::take(&mut self.scratch);
        s.rows.clear();
        s.jhashes.clear();
        s.shashes.clear();
        match sel {
            None => {
                for (i, &h) in hashes.iter().enumerate() {
                    s.rows.push(i as u32);
                    s.jhashes.push(h);
                    s.shashes.push(PcKey::hash_val(&h));
                }
            }
            Some(sel) => {
                for &i in sel {
                    let h = hashes[i as usize];
                    s.rows.push(i);
                    s.jhashes.push(h);
                    s.shashes.push(PcKey::hash_val(&h));
                }
            }
        }
        let n = s.shashes.len();
        if n == 0 {
            self.scratch = s;
            return Ok(());
        }

        // Phase 2: counting scatter into bucket order — no per-row `%`, no
        // allocation past the first batch.
        let p = self.partitions;
        s.starts.clear();
        s.starts.resize(p + 1, 0);
        for &h in &s.shashes {
            s.starts[self.part_of(h) + 1] += 1;
        }
        for i in 0..p {
            s.starts[i + 1] += s.starts[i];
        }
        s.cursors.clear();
        s.cursors.extend_from_slice(&s.starts[..p]);
        s.order.clear();
        s.order.resize(n, 0);
        s.bucket_hashes.clear();
        s.bucket_hashes.resize(n, 0);
        for (i, &h) in s.shashes.iter().enumerate() {
            let part = self.part_of(h);
            let at = s.cursors[part] as usize;
            s.cursors[part] += 1;
            s.order[at] = i as u32;
            s.bucket_hashes[at] = h;
        }

        // Phase 3: grouped bulk insert, one partition at a time. `groups`
        // counts per completed partition, so it stays consistent with the
        // probe-visible contents even when a later partition errors out.
        let mut result = Ok(());
        for part in 0..p {
            let (lo, hi) = (s.starts[part] as usize, s.starts[part + 1] as usize);
            if lo == hi {
                continue;
            }
            result = self.bulk_insert(
                part,
                &s.order[lo..hi],
                &s.bucket_hashes[lo..hi],
                &s.rows,
                &s.jhashes,
                cols,
            );
            if result.is_err() {
                break;
            }
            self.groups += (hi - lo) as u64;
        }
        self.scratch = s;
        result
    }

    /// Folds one partition's bucket of rows into its open map page with a
    /// grouped bulk upsert: table geometry is hoisted out of the row loop
    /// (inside `upsert_batch_by`), the map is `reserve`-pre-sized for the
    /// burst, and the `done` cursor makes the fold resumable — on
    /// `BlockFull` the full page stays in the chain (buckets may span
    /// pages) and the fold continues on a fresh page exactly where it
    /// stopped. Each group appends atomically: a fault mid-group rolls the
    /// bucket back before propagating, so no torn `arity`-frame survives.
    fn bulk_insert(
        &mut self,
        part: usize,
        order: &[u32],
        bhashes: &[u64],
        rows: &[u32],
        jhashes: &[u64],
        cols: &[&[AnyHandle]],
    ) -> PcResult<()> {
        // The chain's last page is the open one.
        let mut map = match self.parts[part].pages.last() {
            Some((_block, map)) => map.clone(),
            None => self.add_page(part, self.page_size)?,
        };
        // Inserts invalidate any probe-side filter built earlier.
        self.parts[part].tags = TagFilter::default();
        let mut done = 0usize;
        // Escalation is local to the faulting group: a fresh page that still
        // cannot hold one group doubles until it does, and the configured
        // size is restored as soon as the fold progresses — one oversized
        // group no longer inflates every subsequent table page.
        let mut page_size = self.page_size;
        let mut stall = 0u32;
        loop {
            let est = (map.len() * 2 + 16).min(bhashes.len() - done);
            match map.reserve(est) {
                Err(PcError::BlockFull { .. }) => {}
                r => r?,
            }
            let before = done;
            let r = map.upsert_batch_by(
                bhashes,
                &mut done,
                |j, b, slot| b.read::<u64>(slot) == jhashes[order[j] as usize],
                |j, _b| Ok(jhashes[order[j] as usize]),
                |j, b| {
                    // First group under this key on this page: materialize
                    // the bucket and append the group in place.
                    let bucket = b.make_object::<PcVec<Handle<AnyObj>>>()?;
                    let row = rows[order[j] as usize] as usize;
                    bucket.push_group(cols.iter().map(|c| &c[row]))?;
                    Ok(bucket)
                },
                |j, b, slot| {
                    let bucket: Bucket = pc_object::PcValue::load(b, slot);
                    let row = rows[order[j] as usize] as usize;
                    bucket.push_group(cols.iter().map(|c| &c[row]))
                },
            );
            match r {
                Ok(()) => return Ok(()),
                Err(PcError::BlockFull { .. }) => {
                    if done != before {
                        stall = 0;
                        page_size = self.page_size;
                    } else {
                        stall += 1;
                    }
                    if stall > 24 {
                        return Err(PcError::Catalog(
                            "join group exceeds the maximum page size".into(),
                        ));
                    }
                    if stall > 1 {
                        page_size = (page_size * 2).min(256 << 20);
                    }
                    map = self.add_page(part, page_size)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Transitions the table to the probe phase: builds each partition's
    /// 16-bit tag filter from the stored entry hashes of its map pages (no
    /// key is rehashed). Called once the build sink finishes — and by
    /// [`Self::from_shared_pages`] when a shipped table reopens — so miss
    /// probes are rejected before touching any map. Inserting again
    /// invalidates the affected partition's filter.
    pub fn finish_build(&mut self) {
        for part in self.parts.iter_mut() {
            let entries: usize = part.pages.iter().map(|(_b, m)| m.len()).sum();
            if entries == 0 {
                part.tags = TagFilter::default();
                continue;
            }
            let len = (entries * 2).next_power_of_two().max(16);
            let mut tags = vec![0u16; len];
            for (_block, map) in &part.pages {
                map.for_each_stored_hash(|h| {
                    let (i, bit) = Self::tag_pos(h, len);
                    tags[i] |= bit;
                });
            }
            part.tags = TagFilter::new(tags);
        }
    }

    // -------------------------------------------------------------- probing

    /// Routes a probe's slot hash to its owning partition, or `None` when
    /// the partition's tag filter rejects the key (one filter word read, no
    /// map touched). Shared by every routed probe path.
    #[inline]
    fn route(&self, shash: u64) -> Option<&Partition> {
        let part = &self.parts[self.part_of(shash)];
        if !part.tags.is_empty() {
            let (i, bit) = Self::tag_pos(shash, part.tags.len());
            if part.tags[i] & bit == 0 {
                self.tag_rejects.set(self.tag_rejects.get() + 1);
                return None;
            }
        }
        Some(part)
    }

    /// The pipeline's probe fast path: appends each match for `hash`
    /// directly into the caller's reusable buffers — `probe_row` once per
    /// match group into `idx` (the gather-index vector) and the group's
    /// handles into `built[k]` (one buffer per build-side object column) —
    /// with no per-group closure call or `Vec` allocation. The slot hash is
    /// computed once: its high bits route to the owning partition (only
    /// that partition's page chain is walked — never the whole table), the
    /// tag filter rejects misses before any map probe, and the maps probe
    /// by the precomputed hash. Returns the number of match groups.
    pub fn probe_into(
        &self,
        hash: u64,
        probe_row: u32,
        idx: &mut Vec<u32>,
        built: &mut [Vec<AnyHandle>],
    ) -> usize {
        debug_assert_eq!(built.len(), self.arity);
        let shash = PcKey::hash_val(&hash);
        let Some(part) = self.route(shash) else {
            return 0;
        };
        let mut matches = 0;
        for (_block, map) in &part.pages {
            if let Some(bucket) = map.get_hashed(shash, &hash) {
                matches += push_matches(&bucket, self.arity, probe_row, idx, built);
            }
        }
        matches
    }

    /// Number of probe keys the tag filters rejected without a map probe
    /// (diagnostics; reset never).
    pub fn tag_rejects(&self) -> u64 {
        self.tag_rejects.get()
    }

    /// Pages a probe for `hash` may touch: the size of its partition's
    /// chain. The routing guarantee tested by the multi-page routing test —
    /// strictly less than [`Self::page_count`] once other partitions hold
    /// pages.
    pub fn partition_page_count(&self, hash: u64) -> usize {
        self.parts[self.part_of(PcKey::hash_val(&hash))].pages.len()
    }

    /// Page capacities across all partitions (diagnostics; the escalation
    /// test asserts oversized groups don't inflate later pages).
    pub fn page_capacities(&self) -> Vec<usize> {
        self.parts
            .iter()
            .flat_map(|p| p.pages.iter().map(|(b, _)| b.capacity()))
            .collect()
    }

    // ------------------------------------------------------------- shipping

    /// Seals the table into shippable `(partition, page)` pairs (the
    /// broadcast/shuffle form of a build side — its maps travel as raw
    /// pages tagged with their radix partition, Appendix D.3), so receivers
    /// can reassemble the partition chains instead of concatenating pages
    /// into one flat scan list.
    pub fn into_pages(self) -> PcResult<Vec<(usize, SealedPage)>> {
        let mut out = Vec::new();
        for (part, p) in self.parts.into_iter().enumerate() {
            for (block, map) in p.pages {
                drop(map);
                out.push((part, block.try_seal()?));
            }
        }
        Ok(out)
    }

    /// Builds the per-partition tag filters of a sealed, shipped table
    /// **once** from the stored entry hashes. The broadcast path calls this
    /// at gather time and ships the `Arc`s alongside the pages, so every
    /// reopening pipelining thread shares the filters instead of rescanning
    /// all table entries per thread.
    pub fn build_shared_tag_filters(
        partitions: usize,
        pages: &[(usize, std::sync::Arc<SealedPage>)],
    ) -> PcResult<Vec<TagFilter>> {
        let partitions = Self::round_partitions(partitions);
        let mut opened: Vec<(usize, BlockRef, Handle<TableMap>)> = Vec::with_capacity(pages.len());
        for (part, p) in pages {
            let (block, root) = p.open_view()?;
            let map = root.downcast::<TableMap>()?;
            opened.push((*part, block, map));
        }
        let mut entries = vec![0usize; partitions];
        for (part, _block, map) in &opened {
            entries[*part] += map.len();
        }
        let mut filters: Vec<Vec<u16>> = entries
            .iter()
            .map(|&e| {
                if e == 0 {
                    Vec::new()
                } else {
                    vec![0u16; (e * 2).next_power_of_two().max(16)]
                }
            })
            .collect();
        for (part, _block, map) in &opened {
            let tags = &mut filters[*part];
            let len = tags.len();
            if len == 0 {
                continue;
            }
            map.for_each_stored_hash(|h| {
                let (i, bit) = Self::tag_pos(h, len);
                tags[i] |= bit;
            });
        }
        Ok(filters.into_iter().map(TagFilter::new).collect())
    }

    /// Opens a read-only table over shipped partition-tagged pages
    /// (zero-copy views). `filters` are the shared tag filters built once
    /// by [`Self::build_shared_tag_filters`]; when absent (one entry per
    /// partition is required) the table rebuilds them locally. Used by
    /// every worker after a broadcast; `insert` must not be called on it.
    pub fn from_shared_pages(
        arity: usize,
        page_size: usize,
        partitions: usize,
        pages: &[(usize, std::sync::Arc<SealedPage>)],
        filters: &[TagFilter],
    ) -> PcResult<Self> {
        let mut t = JoinTable::with_partitions(arity, page_size, partitions);
        for (part, p) in pages {
            let (block, root) = p.open_view()?;
            let map = root.downcast::<TableMap>()?;
            t.parts[*part].pages.push((block, map));
        }
        if filters.len() == t.partitions {
            for (part, f) in t.parts.iter_mut().zip(filters) {
                part.tags = f.clone();
            }
        } else {
            t.finish_build();
        }
        Ok(t)
    }

    pub fn page_count(&self) -> usize {
        self.parts.iter().map(|p| p.pages.len()).sum()
    }
}

/// Appends every `arity`-group of `bucket` into the caller's probe buffers.
#[inline]
fn push_matches(
    bucket: &Bucket,
    arity: usize,
    probe_row: u32,
    idx: &mut Vec<u32>,
    built: &mut [Vec<AnyHandle>],
) -> usize {
    let len = bucket.len();
    debug_assert_eq!(len % arity, 0);
    let mut matches = 0;
    let mut i = 0;
    while i < len {
        idx.push(probe_row);
        for (k, b) in built.iter_mut().enumerate() {
            b.push(bucket.get(i + k).erase());
        }
        i += arity;
        matches += 1;
    }
    matches
}

/// The row-at-a-time references the batch paths are tested against. Test
/// builds only: nothing in the engine calls them.
#[cfg(test)]
impl JoinTable {
    /// The pre-vectorization build path, kept verbatim as the reference for
    /// parity tests: one closure-driven `upsert_by`, a redundant `map.get`
    /// re-probe, and a per-element push loop per group. Routes through the
    /// same partitions so its tables probe identically.
    fn insert_rowwise(&mut self, hash: u64, objs: &[AnyHandle]) -> PcResult<()> {
        debug_assert_eq!(objs.len(), self.arity);
        let part = self.part_of(PcKey::hash_val(&hash));
        if self.parts[part].pages.is_empty() {
            self.add_page(part, self.page_size)?;
        }
        self.parts[part].tags = TagFilter::default();
        let mut on_fresh_page = false;
        // Escalate locally for the faulting group, leaving the configured
        // `self.page_size` untouched for later pages (see `bulk_insert`).
        let mut page_size = self.page_size;
        for _ in 0..24 {
            match self.try_insert_last(part, hash, objs) {
                Ok(()) => {
                    self.groups += 1;
                    return Ok(());
                }
                Err(PcError::BlockFull { .. }) => {
                    // Page full: start a new page in the partition's chain
                    // (buckets may span pages). A fault on a just-created
                    // page means the group itself exceeds the page size:
                    // escalate before retrying.
                    if on_fresh_page {
                        page_size = (page_size * 2).min(256 << 20);
                    }
                    self.add_page(part, page_size)?;
                    on_fresh_page = true;
                }
                Err(e) => return Err(e),
            }
        }
        Err(PcError::Catalog(
            "join group exceeds the maximum page size".into(),
        ))
    }

    fn try_insert_last(&mut self, part: usize, hash: u64, objs: &[AnyHandle]) -> PcResult<()> {
        let (block, map) = self.parts[part].pages.last().unwrap();
        // Probe with the key's canonical slot hash (PcKey::hash_val) so the
        // typed `get` path finds the same entry.
        map.upsert_by(
            PcKey::hash_val(&hash),
            |b, slot| b.read::<u64>(slot) == hash,
            |_b| Ok(hash),
            |_b| block.make_object::<PcVec<Handle<AnyObj>>>(),
            |_b, _slot| Ok(()),
        )?;
        // Fetch the bucket and append the group (deep copies objects from
        // the probe/input page onto the table page — §6.4's rule). The
        // append must be atomic per group: a BlockFull fault after a partial
        // push would tear the bucket's arity framing, so roll back before
        // propagating the fault.
        let bucket = map.get(&hash).expect("bucket just ensured");
        let before = bucket.len();
        for h in objs {
            if let Err(e) = bucket.push(h.downcast_unchecked::<AnyObj>()) {
                bucket.truncate(before);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Calls `f` with each match group for `hash` (partition-routed like
    /// [`Self::probe_into`]).
    fn probe(&self, hash: u64, mut f: impl FnMut(&[AnyHandle]) -> PcResult<()>) -> PcResult<()> {
        let shash = PcKey::hash_val(&hash);
        let Some(part) = self.route(shash) else {
            return Ok(());
        };
        for (_block, map) in &part.pages {
            if let Some(bucket) = map.get_hashed(shash, &hash) {
                let len = bucket.len();
                debug_assert_eq!(len % self.arity, 0);
                let mut group: Vec<AnyHandle> = Vec::with_capacity(self.arity);
                let mut i = 0;
                while i < len {
                    group.clear();
                    for k in 0..self.arity {
                        group.push(bucket.get(i + k).erase());
                    }
                    f(&group)?;
                    i += self.arity;
                }
            }
        }
        Ok(())
    }

    /// The retained pre-partitioning probe: walks **every** table page for
    /// each key with a fresh typed lookup, exactly as the engine did before
    /// probes were partition-routed. Kept only as the reference routed
    /// probes are tested against.
    fn probe_into_scan(
        &self,
        hash: u64,
        probe_row: u32,
        idx: &mut Vec<u32>,
        built: &mut [Vec<AnyHandle>],
    ) -> usize {
        debug_assert_eq!(built.len(), self.arity);
        let mut matches = 0;
        for part in &self.parts {
            for (_block, map) in &part.pages {
                if let Some(bucket) = map.get(&hash) {
                    matches += push_matches(&bucket, self.arity, probe_row, idx, built);
                }
            }
        }
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_object::{make_object, AllocScope};

    fn sources(n: i64) -> Vec<Handle<PcVec<i64>>> {
        (0..n)
            .map(|i| {
                let v = make_object::<PcVec<i64>>().unwrap();
                v.push(i).unwrap();
                v
            })
            .collect()
    }

    #[test]
    fn insert_and_probe_with_collisions_across_pages() {
        let _s = AllocScope::new(1 << 18);
        let mut t = JoinTable::new(1, 4096); // tiny pages force spanning
        let sources = sources(200);
        for (i, v) in sources.iter().enumerate() {
            // Two logical keys, heavy bucket fan-in.
            let hash = (i % 2) as u64 + 1;
            t.insert_rowwise(hash, &[v.erase()]).unwrap();
        }
        assert!(
            t.page_count() > 1,
            "tiny pages must span ({} page)",
            t.page_count()
        );
        let mut seen = 0;
        t.probe(1, |group| {
            let v: Handle<PcVec<i64>> = group[0].downcast_unchecked::<AnyObj>().assume();
            assert_eq!(v.get(0) % 2, 0);
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 100);
        let mut none = 0;
        t.probe(99, |_| {
            none += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(none, 0);
    }

    #[test]
    fn insert_batch_and_probe_agree_with_rowwise() {
        let _s = AllocScope::new(1 << 19);
        let srcs = sources(300);
        let objs: Vec<AnyHandle> = srcs.iter().map(|v| v.erase()).collect();
        let hashes: Vec<u64> = (0..300u64).map(|i| i % 7).collect();
        let mut vectorized = JoinTable::new(1, 4096);
        vectorized
            .insert_batch(&hashes, None, &[objs.as_slice()])
            .unwrap();
        vectorized.finish_build();
        let mut rowwise = JoinTable::new(1, 4096);
        for (h, o) in hashes.iter().zip(&objs) {
            rowwise.insert_rowwise(*h, std::slice::from_ref(o)).unwrap();
        }
        assert_eq!(vectorized.groups, 300);
        assert_eq!(rowwise.groups, 300);
        for key in 0..9u64 {
            let collect = |t: &JoinTable, scan: bool| {
                let mut idx = Vec::new();
                let mut built: Vec<Vec<AnyHandle>> = vec![Vec::new()];
                if scan {
                    t.probe_into_scan(key, 0, &mut idx, &mut built);
                } else {
                    t.probe_into(key, 0, &mut idx, &mut built);
                }
                let mut vals: Vec<i64> = built[0]
                    .iter()
                    .map(|h| {
                        h.downcast_unchecked::<AnyObj>()
                            .assume::<PcVec<i64>>()
                            .get(0)
                    })
                    .collect();
                vals.sort_unstable();
                vals
            };
            // The full reference pair: rowwise build probed by full scan.
            let want = collect(&rowwise, true);
            assert_eq!(collect(&vectorized, false), want, "key {key}");
            assert_eq!(collect(&vectorized, true), want, "key {key}: routing");
            assert_eq!(collect(&rowwise, false), want, "key {key}: rowwise");
        }
    }

    #[test]
    fn probe_into_fills_reusable_buffers_across_pages() {
        let _s = AllocScope::new(1 << 18);
        let mut t = JoinTable::new(1, 4096); // tiny pages force bucket spanning
        let sources = sources(200);
        for (i, v) in sources.iter().enumerate() {
            t.insert_rowwise((i % 2) as u64 + 1, &[v.erase()]).unwrap();
        }
        assert!(t.page_count() > 1, "bucket must span pages");
        // The closure-free path: one idx entry + one handle per match, all
        // appended into caller-owned buffers.
        let mut idx: Vec<u32> = Vec::new();
        let mut built: Vec<Vec<AnyHandle>> = vec![Vec::new()];
        let n = t.probe_into(1, 7, &mut idx, &mut built);
        assert_eq!(n, 100);
        assert_eq!(idx.len(), 100);
        assert!(idx.iter().all(|&r| r == 7), "idx carries the probe row");
        assert_eq!(built[0].len(), 100);
        for h in &built[0] {
            let v: Handle<PcVec<i64>> = h.downcast_unchecked::<AnyObj>().assume();
            assert_eq!(v.get(0) % 2, 0);
        }
        // A second probe appends after the first (buffer reuse contract).
        let n2 = t.probe_into(2, 9, &mut idx, &mut built);
        assert_eq!(n2, 100);
        assert_eq!(idx.len(), 200);
        assert_eq!(built[0].len(), 200);
        // Misses append nothing.
        assert_eq!(t.probe_into(99, 0, &mut idx, &mut built), 0);
        assert_eq!(idx.len(), 200);
        // probe_into agrees with the closure API group for group.
        let mut via_closure = 0;
        t.probe(1, |g| {
            assert_eq!(g.len(), 1);
            via_closure += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(via_closure, n);
    }

    #[test]
    fn probes_route_to_one_partition_and_tags_reject_misses() {
        let _s = AllocScope::new(1 << 20);
        // Many keys over few partitions with tiny pages: every partition
        // grows a multi-page chain.
        let mut t = JoinTable::with_partitions(1, 2048, 4);
        let srcs = sources(512);
        let objs: Vec<AnyHandle> = srcs.iter().map(|v| v.erase()).collect();
        let hashes: Vec<u64> = (0..512u64).collect();
        t.insert_batch(&hashes, None, &[objs.as_slice()]).unwrap();
        t.finish_build();
        assert!(
            t.page_count() > t.partitions(),
            "need multi-page chains ({} pages)",
            t.page_count()
        );
        // Routing: a probe may only touch its own partition's chain, which
        // is strictly smaller than the whole table.
        let mut idx = Vec::new();
        let mut built: Vec<Vec<AnyHandle>> = vec![Vec::new()];
        for key in 0..512u64 {
            assert!(
                t.partition_page_count(key) < t.page_count(),
                "probe for {key} would scan the whole table"
            );
            idx.clear();
            built[0].clear();
            assert_eq!(t.probe_into(key, 0, &mut idx, &mut built), 1);
            let v: Handle<PcVec<i64>> = built[0][0].downcast_unchecked::<AnyObj>().assume();
            assert_eq!(v.get(0), key as i64);
        }
        // Misses: the tag filter rejects (statistically almost) all of them
        // before any map probe, and none produce matches.
        let before = t.tag_rejects();
        for key in 10_000..11_000u64 {
            idx.clear();
            built[0].clear();
            assert_eq!(t.probe_into(key, 0, &mut idx, &mut built), 0);
        }
        assert!(
            t.tag_rejects() - before > 800,
            "tag filter rejected only {} of 1000 misses",
            t.tag_rejects() - before
        );
    }

    #[test]
    fn insert_escalates_for_the_faulting_group_only() {
        let _s = AllocScope::new(1 << 21);
        // Table pages start far smaller than one group's objects, so the
        // first insert faults on a fresh page and must escalate (doubling)
        // rather than spinning on same-size pages forever.
        let mut t = JoinTable::new(1, 512);
        let big = make_object::<PcVec<i64>>().unwrap();
        for i in 0..300i64 {
            big.push(i).unwrap();
        }
        t.insert_rowwise(42, &[big.erase()]).unwrap();
        assert_eq!(t.groups, 1);
        let mut idx: Vec<u32> = Vec::new();
        let mut built: Vec<Vec<AnyHandle>> = vec![Vec::new()];
        assert_eq!(t.probe_into(42, 0, &mut idx, &mut built), 1);
        let v: Handle<PcVec<i64>> = built[0][0].downcast_unchecked::<AnyObj>().assume();
        assert_eq!(v.len(), 300);
        assert_eq!(v.get(299), 299);
        // Escalation was local to the oversized group: later inserts (other
        // partitions / fresh pages) go back to the configured page size.
        for i in 0..40u64 {
            let small = make_object::<PcVec<i64>>().unwrap();
            small.push(i as i64).unwrap();
            t.insert_rowwise(100 + i, &[small.erase()]).unwrap();
        }
        assert_eq!(t.groups, 41);
        let caps = t.page_capacities();
        assert!(
            caps.iter().any(|&c| c > 512),
            "oversized group must escalate its own page"
        );
        assert!(
            caps.iter().filter(|&&c| c == 512).count() > 0,
            "configured page size must be restored after escalation: {caps:?}"
        );
        // Same contract on the vectorized path.
        let mut tv = JoinTable::new(1, 512);
        let big2 = make_object::<PcVec<i64>>().unwrap();
        for i in 0..300i64 {
            big2.push(i).unwrap();
        }
        let smalls = sources(40);
        let mut objs: Vec<AnyHandle> = vec![big2.erase()];
        objs.extend(smalls.iter().map(|v| v.erase()));
        let hashes: Vec<u64> = (0..41u64).map(|i| i * 13 + 7).collect();
        tv.insert_batch(&hashes, None, &[objs.as_slice()]).unwrap();
        let caps = tv.page_capacities();
        assert!(caps.iter().any(|&c| c > 512));
        assert!(
            caps.iter().filter(|&&c| c == 512).count() > 0,
            "vectorized escalation must also restore the configured size: {caps:?}"
        );
    }

    #[test]
    fn composite_arity_groups_probe_in_order() {
        let _s = AllocScope::new(1 << 18);
        let mut t = JoinTable::new(2, 1 << 16);
        let a = make_object::<PcVec<i64>>().unwrap();
        a.push(1).unwrap();
        let b = make_object::<PcVec<i64>>().unwrap();
        b.push(2).unwrap();
        t.insert_rowwise(7, &[a.erase(), b.erase()]).unwrap();
        t.probe(7, |group| {
            assert_eq!(group.len(), 2);
            let x: Handle<PcVec<i64>> = group[0].downcast_unchecked::<AnyObj>().assume();
            let y: Handle<PcVec<i64>> = group[1].downcast_unchecked::<AnyObj>().assume();
            assert_eq!((x.get(0), y.get(0)), (1, 2));
            Ok(())
        })
        .unwrap();
    }
}

#[cfg(test)]
mod join_vectorized {
    //! Differential property tests for the radix-partitioned vectorized join
    //! build: the batch path (batch hash → radix scatter → grouped bulk upsert)
    //! and the retained row-at-a-time reference must produce identical
    //! probe-result multisets across arities, selections, batch sizes, and
    //! page sizes — and a `BlockFull` fault mid-group must never leave a torn
    //! `arity`-frame in any bucket.

    use crate::JoinTable;
    use pc_object::{make_object, AllocScope, AnyHandle, AnyObj, Handle, PcVec};
    use proptest::prelude::*;

    /// Payload object `k`: a vector `[tag, k]` so probes can recover both the
    /// column index and the row identity.
    fn payload(col: i64, row: i64) -> Handle<PcVec<i64>> {
        let v = make_object::<PcVec<i64>>().unwrap();
        v.push(col).unwrap();
        v.push(row).unwrap();
        v
    }

    /// Probes `keys` against `t` and returns the sorted multiset of
    /// `(key, probe_row, col_tag, row_id)` over every match group and column.
    fn probe_all(t: &JoinTable, keys: &[u64]) -> Vec<(u64, u32, i64, i64)> {
        let mut out = Vec::new();
        let mut idx: Vec<u32> = Vec::new();
        let mut built: Vec<Vec<AnyHandle>> = (0..t.arity()).map(|_| Vec::new()).collect();
        for (p, &key) in keys.iter().enumerate() {
            idx.clear();
            for b in built.iter_mut() {
                b.clear();
            }
            let n = t.probe_into(key, p as u32, &mut idx, &mut built);
            assert_eq!(idx.len(), n, "one idx entry per match group");
            for b in &built {
                assert_eq!(b.len(), n, "every column buffer aligned to matches");
            }
            for m in 0..n {
                for b in &built {
                    let v: Handle<PcVec<i64>> = b[m].downcast_unchecked::<AnyObj>().assume();
                    assert_eq!(v.len(), 2, "payload framing intact");
                    out.push((key, idx[m], v.get(0), v.get(1)));
                }
            }
        }
        out.sort_unstable();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        #[test]
        fn vectorized_and_rowwise_builds_probe_identically(
            rows in proptest::collection::vec(0u64..24, 1..300),
            mask in proptest::collection::vec(any::<bool>(), 300..301),
            arity in 1usize..4,
            partitions in 1usize..9,
            page_size_exp in 12u32..17,
            batch_rows in 8usize..120,
        ) {
            let page_size = 1usize << page_size_exp; // 4 KiB .. 64 KiB: forces
                                                     // multi-page chains + faults
            let scope = AllocScope::new(1 << 22);
            let mut vectorized = JoinTable::with_partitions(arity, page_size, partitions);
            let mut rowwise = JoinTable::with_partitions(arity, page_size, partitions);

            // Absorb the same input through both paths, batch by batch, with a
            // selection vector derived from the mask.
            let mut group: Vec<AnyHandle> = Vec::with_capacity(arity);
            for (chunk_at, chunk) in rows.chunks(batch_rows).enumerate() {
                let cols: Vec<Vec<AnyHandle>> = (0..arity)
                    .map(|k| {
                        chunk
                            .iter()
                            .enumerate()
                            .map(|(i, _)| {
                                payload(k as i64, (chunk_at * batch_rows + i) as i64).erase()
                            })
                            .collect()
                    })
                    .collect();
                let hashes: Vec<u64> = chunk.to_vec();
                let sel: Vec<u32> = (0..chunk.len())
                    .filter(|i| mask[(chunk_at * batch_rows + i) % mask.len()])
                    .map(|i| i as u32)
                    .collect();
                let col_slices: Vec<&[AnyHandle]> = cols.iter().map(|c| c.as_slice()).collect();
                vectorized.insert_batch(&hashes, Some(&sel), &col_slices).unwrap();
                for &i in &sel {
                    group.clear();
                    group.extend(cols.iter().map(|c| c[i as usize].clone()));
                    rowwise.insert_rowwise(hashes[i as usize], &group).unwrap();
                }
            }
            drop(group);
            drop(scope);
            prop_assert_eq!(vectorized.groups, rowwise.groups, "group counts diverged");
            vectorized.finish_build();

            // Probe every possible key (hits and misses) through both tables.
            let keys: Vec<u64> = (0..30u64).collect();
            let got_vec = probe_all(&vectorized, &keys);
            let got_row = probe_all(&rowwise, &keys);
            prop_assert_eq!(got_vec, got_row, "probe multisets diverged");
        }
    }

    /// Torn-group regression: with `arity > 1` and pages so small that
    /// `BlockFull` faults land mid-group constantly, the rollback
    /// (`bucket.truncate(before)`) must keep every bucket's framing intact —
    /// each probed group carries exactly one payload per column, with matching
    /// row ids across the columns of a group.
    #[test]
    fn torn_groups_never_survive_block_full_faults() {
        let _s = AllocScope::new(1 << 22);
        for arity in [2usize, 3] {
            // 512-byte pages cannot hold many 2-element vectors: most groups
            // fault at least once, many mid-group.
            let mut t = JoinTable::with_partitions(arity, 512, 4);
            let n = 120usize;
            let cols: Vec<Vec<AnyHandle>> = (0..arity)
                .map(|k| {
                    (0..n)
                        .map(|i| payload(k as i64, i as i64).erase())
                        .collect()
                })
                .collect();
            let hashes: Vec<u64> = (0..n as u64).map(|i| i % 5).collect();
            let col_slices: Vec<&[AnyHandle]> = cols.iter().map(|c| c.as_slice()).collect();
            t.insert_batch(&hashes, None, &col_slices).unwrap();
            t.finish_build();
            assert!(t.page_count() > 4, "tiny pages must fault and chain");

            let mut idx: Vec<u32> = Vec::new();
            let mut built: Vec<Vec<AnyHandle>> = (0..arity).map(|_| Vec::new()).collect();
            let mut total = 0usize;
            for key in 0..5u64 {
                idx.clear();
                for b in built.iter_mut() {
                    b.clear();
                }
                let matches = t.probe_into(key, 0, &mut idx, &mut built);
                total += matches;
                for m in 0..matches {
                    let mut row_id = None;
                    for (k, b) in built.iter().enumerate() {
                        let v: Handle<PcVec<i64>> = b[m].downcast_unchecked::<AnyObj>().assume();
                        assert_eq!(v.len(), 2, "payload framing intact");
                        assert_eq!(v.get(0), k as i64, "column tag preserved in order");
                        match row_id {
                            None => row_id = Some(v.get(1)),
                            Some(r) => assert_eq!(
                                v.get(1),
                                r,
                                "group columns must come from the same build row"
                            ),
                        }
                    }
                }
            }
            assert_eq!(total, n, "every group probed exactly once (arity {arity})");
        }
    }

    /// The same rollback contract on the rowwise reference path.
    #[test]
    fn rowwise_rollback_matches_vectorized_under_faults() {
        let _s = AllocScope::new(1 << 22);
        let arity = 2usize;
        let mut vectorized = JoinTable::with_partitions(arity, 512, 2);
        let mut rowwise = JoinTable::with_partitions(arity, 512, 2);
        let n = 80usize;
        let cols: Vec<Vec<AnyHandle>> = (0..arity)
            .map(|k| {
                (0..n)
                    .map(|i| payload(k as i64, i as i64).erase())
                    .collect()
            })
            .collect();
        let hashes: Vec<u64> = (0..n as u64).map(|i| i % 3).collect();
        let col_slices: Vec<&[AnyHandle]> = cols.iter().map(|c| c.as_slice()).collect();
        vectorized.insert_batch(&hashes, None, &col_slices).unwrap();
        vectorized.finish_build();
        for i in 0..n {
            rowwise
                .insert_rowwise(hashes[i], &[cols[0][i].clone(), cols[1][i].clone()])
                .unwrap();
        }
        let keys: Vec<u64> = (0..4u64).collect();
        assert_eq!(probe_all(&vectorized, &keys), probe_all(&rowwise, &keys));
    }
}
