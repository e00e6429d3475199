//! Join hash tables (Appendix D.3): `Map<unsigned_t, Vector<Object>>`
//! objects living on pages — radix-partitioned and built batch-at-a-time.
//!
//! A join builds from one input (the compiler streams the first declared
//! input and builds from each later one), so a bucket stores one object
//! handle per build row. Inserting deep-copies the object onto the table's
//! page — the same movement the original system performs when repartition
//! sinks write `Map<unsigned_t, Vector<Object>>` pages. Probing returns
//! every object in the key's bucket; hash collisions are resolved by the
//! residual predicate the compiler re-emits post-join.
//!
//! The table mirrors the vectorized aggregation sink's layout: the key's
//! slot hash is computed once per row, its **high** bits select one of a
//! power-of-two set of partitions (a shift and mask — disjoint from the low
//! bits the partition maps consume for masked probing), and each partition
//! owns its own chain of map pages.
//!
//! A table has one lifecycle. A build sink folds batches in
//! ([`JoinTable::insert_batch`]: radix-partition a whole selection-filtered
//! batch, then one bulk upsert per partition) and seals its pages
//! ([`JoinTable::into_pages`]). Where the build's pages are gathered, each
//! partition's compact 16-bit tag filter is built once from the stored
//! hashes ([`JoinTable::build_shared_tag_filters`]), and every probing
//! thread reopens a zero-copy view over the pages with those filters
//! ([`JoinTable::from_shared_pages`]). A probe routes its key to the owning
//! partition's chain only — never a full table scan — after the tag filter
//! has rejected misses without touching any map. The pre-vectorization
//! row-at-a-time build and the unrouted full-scan probe survive, compiled
//! for this crate's tests only, as `insert_rowwise` and `probe_into_scan`:
//! the references the differential tests here compare the batch paths
//! against.

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
/// blocks, sized from the partition's entry count. Shared (`Arc`) so a
/// broadcast table's filters are built once and reopened by every
/// pipelining thread without rescanning the maps. Empty = none (probes go
/// straight to the maps): a table that is still building has none.
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
    page_size: usize,
    partitions: usize,
    parts: Vec<Partition>,
    scratch: BuildScratch,
    /// Total build rows inserted.
    pub groups: u64,
    /// Probe keys the tag filters rejected without a map probe.
    tag_rejects: Cell<u64>,
}

impl JoinTable {
    pub fn new(page_size: usize) -> Self {
        Self::with_partitions(page_size, DEFAULT_JOIN_PARTITIONS)
    }

    /// The partition-count rounding every table applies: at least one, and
    /// a power of two so partition selection is a shift and mask. The one
    /// source of truth for builders, reopeners, and the broadcast store.
    pub fn round_partitions(partitions: usize) -> usize {
        partitions.max(1).next_power_of_two()
    }

    /// A table with an explicit hash-partition count (rounded by
    /// [`Self::round_partitions`]).
    pub fn with_partitions(page_size: usize, partitions: usize) -> Self {
        let partitions = Self::round_partitions(partitions);
        JoinTable {
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
    /// hash's high bits, (3) one bulk upsert per non-empty partition, so
    /// consecutive probes stay on that partition's hot table. `objs[row]`
    /// is the build-side object of base row `row`.
    pub fn insert_batch(
        &mut self,
        hashes: &[u64],
        sel: Option<&[u32]>,
        objs: &[AnyHandle],
    ) -> PcResult<()> {
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

        // Phase 3: bulk insert, one partition at a time. `groups` counts
        // per completed partition, so it stays consistent with the
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
                objs,
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
    /// bulk upsert: table geometry is hoisted out of the row loop (inside
    /// `upsert_batch_by`), the map is `reserve`-pre-sized for the burst,
    /// and the `done` cursor makes the fold resumable — on `BlockFull` the
    /// full page stays in the chain (buckets may span pages) and the fold
    /// continues on a fresh page exactly where it stopped. A row's append
    /// is one `push`, which changes nothing when it faults.
    fn bulk_insert(
        &mut self,
        part: usize,
        order: &[u32],
        bhashes: &[u64],
        rows: &[u32],
        jhashes: &[u64],
        objs: &[AnyHandle],
    ) -> PcResult<()> {
        // The chain's last page is the open one.
        let mut map = match self.parts[part].pages.last() {
            Some((_block, map)) => map.clone(),
            None => self.add_page(part, self.page_size)?,
        };
        let obj = |j: usize| {
            objs[rows[order[j] as usize] as usize]
                .typed_ref::<AnyObj>()
                .clone()
        };
        let mut done = 0usize;
        // Escalation is local to the faulting row: a fresh page that still
        // cannot hold one row doubles until it does, and the configured
        // size is restored as soon as the fold progresses — one oversized
        // object does not inflate every later table page.
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
                    // First row under this key on this page: materialize
                    // the bucket and append the row's object in place.
                    let bucket = b.make_object::<PcVec<Handle<AnyObj>>>()?;
                    bucket.push(obj(j))?;
                    Ok(bucket)
                },
                |j, b, slot| {
                    let bucket: Bucket = pc_object::PcValue::load(b, slot);
                    bucket.push(obj(j))
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
    /// match into `idx` (the gather-index vector) and the matched build
    /// object into `built` — with no per-match closure call or allocation.
    /// The slot hash is computed once: its high bits route to the owning
    /// partition (only that partition's page chain is walked — never the
    /// whole table), the tag filter rejects misses before any map probe,
    /// and the maps probe by the precomputed hash. Returns the number of
    /// matches.
    pub fn probe_into(
        &self,
        hash: u64,
        probe_row: u32,
        idx: &mut Vec<u32>,
        built: &mut Vec<AnyHandle>,
    ) -> usize {
        let shash = PcKey::hash_val(&hash);
        let Some(part) = self.route(shash) else {
            return 0;
        };
        let mut matches = 0;
        for (_block, map) in &part.pages {
            if let Some(bucket) = map.get_hashed(shash, &hash) {
                matches += push_matches(&bucket, probe_row, idx, built);
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
    /// test asserts oversized objects don't inflate later pages).
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

    /// Builds the per-partition tag filters of a sealed, gathered table
    /// **once** from the stored entry hashes (no key is rehashed). The
    /// broadcast path calls this at gather time and ships the `Arc`s
    /// alongside the pages, so every reopening pipelining thread shares
    /// the filters instead of rescanning all table entries per thread.
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

    /// Opens a read-only table over gathered partition-tagged pages
    /// (zero-copy views) with the tag filters built once over them by
    /// [`Self::build_shared_tag_filters`], one per partition. Used by every
    /// probing thread; `insert_batch` must not be called on it.
    pub fn from_shared_pages(
        page_size: usize,
        partitions: usize,
        pages: &[(usize, std::sync::Arc<SealedPage>)],
        filters: &[TagFilter],
    ) -> PcResult<Self> {
        let mut t = JoinTable::with_partitions(page_size, partitions);
        debug_assert_eq!(filters.len(), t.partitions, "one tag filter per partition");
        for (part, p) in pages {
            let (block, root) = p.open_view()?;
            let map = root.downcast::<TableMap>()?;
            t.parts[*part].pages.push((block, map));
        }
        for (part, f) in t.parts.iter_mut().zip(filters) {
            part.tags = f.clone();
        }
        Ok(t)
    }

    pub fn page_count(&self) -> usize {
        self.parts.iter().map(|p| p.pages.len()).sum()
    }
}

/// Appends every object of `bucket` into the caller's probe buffers.
#[inline]
fn push_matches(
    bucket: &Bucket,
    probe_row: u32,
    idx: &mut Vec<u32>,
    built: &mut Vec<AnyHandle>,
) -> usize {
    let len = bucket.len();
    for i in 0..len {
        idx.push(probe_row);
        built.push(bucket.get(i).erase());
    }
    len
}

/// The row-at-a-time references the batch paths are tested against. Test
/// builds only: nothing in the engine calls them.
#[cfg(test)]
impl JoinTable {
    /// The pre-vectorization build path, kept as the reference for parity
    /// tests: one closure-driven `upsert_by`, a redundant `map.get`
    /// re-probe, and a push per row. Routes through the same partitions so
    /// its tables probe identically.
    fn insert_rowwise(&mut self, hash: u64, obj: &AnyHandle) -> PcResult<()> {
        let part = self.part_of(PcKey::hash_val(&hash));
        if self.parts[part].pages.is_empty() {
            self.add_page(part, self.page_size)?;
        }
        let mut on_fresh_page = false;
        // Escalate locally for the faulting row, leaving the configured
        // `self.page_size` untouched for later pages (see `bulk_insert`).
        let mut page_size = self.page_size;
        for _ in 0..24 {
            match self.try_insert_last(part, hash, obj) {
                Ok(()) => {
                    self.groups += 1;
                    return Ok(());
                }
                Err(PcError::BlockFull { .. }) => {
                    // Page full: start a new page in the partition's chain
                    // (buckets may span pages). A fault on a just-created
                    // page means the object itself exceeds the page size:
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

    fn try_insert_last(&mut self, part: usize, hash: u64, obj: &AnyHandle) -> PcResult<()> {
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
        // Fetch the bucket and append the object (deep copies it from the
        // probe/input page onto the table page — §6.4's rule).
        let bucket = map.get(&hash).expect("bucket just ensured");
        bucket.push(obj.downcast_unchecked::<AnyObj>())
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
        built: &mut Vec<AnyHandle>,
    ) -> usize {
        let mut matches = 0;
        for part in &self.parts {
            for (_block, map) in &part.pages {
                if let Some(bucket) = map.get(&hash) {
                    matches += push_matches(&bucket, probe_row, idx, built);
                }
            }
        }
        matches
    }
}

/// Seals a built table and reopens it the way the engine does: sealed
/// pages, tag filters built once over them, a zero-copy probe view.
#[cfg(test)]
fn reopen(t: JoinTable) -> JoinTable {
    let (page_size, partitions) = (t.page_size, t.partitions);
    let pages: Vec<(usize, std::sync::Arc<SealedPage>)> = t
        .into_pages()
        .unwrap()
        .into_iter()
        .map(|(part, page)| (part, std::sync::Arc::new(page)))
        .collect();
    let filters = JoinTable::build_shared_tag_filters(partitions, &pages).unwrap();
    JoinTable::from_shared_pages(page_size, partitions, &pages, &filters).unwrap()
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

    /// First element of each probed object.
    fn firsts(built: &[AnyHandle]) -> Vec<i64> {
        built
            .iter()
            .map(|h| {
                h.downcast_unchecked::<AnyObj>()
                    .assume::<PcVec<i64>>()
                    .get(0)
            })
            .collect()
    }

    #[test]
    fn insert_and_probe_with_collisions_across_pages() {
        let _s = AllocScope::new(1 << 18);
        let mut t = JoinTable::new(4096); // tiny pages force spanning
        let sources = sources(200);
        for (i, v) in sources.iter().enumerate() {
            // Two logical keys, heavy bucket fan-in.
            let hash = (i % 2) as u64 + 1;
            t.insert_rowwise(hash, &v.erase()).unwrap();
        }
        assert!(
            t.page_count() > 1,
            "tiny pages must span ({} page)",
            t.page_count()
        );
        let t = reopen(t);
        let (mut idx, mut built) = (Vec::new(), Vec::new());
        assert_eq!(t.probe_into(1, 0, &mut idx, &mut built), 100);
        assert!(firsts(&built).iter().all(|v| v % 2 == 0));
        assert_eq!(t.probe_into(99, 0, &mut idx, &mut built), 0);
    }

    #[test]
    fn insert_batch_and_probe_agree_with_rowwise() {
        let _s = AllocScope::new(1 << 19);
        let srcs = sources(300);
        let objs: Vec<AnyHandle> = srcs.iter().map(|v| v.erase()).collect();
        let hashes: Vec<u64> = (0..300u64).map(|i| i % 7).collect();
        let mut vectorized = JoinTable::new(4096);
        vectorized.insert_batch(&hashes, None, &objs).unwrap();
        let mut rowwise = JoinTable::new(4096);
        for (h, o) in hashes.iter().zip(&objs) {
            rowwise.insert_rowwise(*h, o).unwrap();
        }
        assert_eq!(vectorized.groups, 300);
        assert_eq!(rowwise.groups, 300);
        let (vectorized, rowwise) = (reopen(vectorized), reopen(rowwise));
        for key in 0..9u64 {
            let collect = |t: &JoinTable, scan: bool| {
                let (mut idx, mut built) = (Vec::new(), Vec::new());
                if scan {
                    t.probe_into_scan(key, 0, &mut idx, &mut built);
                } else {
                    t.probe_into(key, 0, &mut idx, &mut built);
                }
                let mut vals = firsts(&built);
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
        let mut t = JoinTable::new(4096); // tiny pages force bucket spanning
        let sources = sources(200);
        for (i, v) in sources.iter().enumerate() {
            t.insert_rowwise((i % 2) as u64 + 1, &v.erase()).unwrap();
        }
        assert!(t.page_count() > 1, "bucket must span pages");
        let t = reopen(t);
        // The closure-free path: one idx entry + one handle per match, all
        // appended into caller-owned buffers.
        let mut idx: Vec<u32> = Vec::new();
        let mut built: Vec<AnyHandle> = Vec::new();
        let n = t.probe_into(1, 7, &mut idx, &mut built);
        assert_eq!(n, 100);
        assert_eq!(idx.len(), 100);
        assert!(idx.iter().all(|&r| r == 7), "idx carries the probe row");
        assert_eq!(built.len(), 100);
        assert!(firsts(&built).iter().all(|v| v % 2 == 0));
        // A second probe appends after the first (buffer reuse contract).
        let n2 = t.probe_into(2, 9, &mut idx, &mut built);
        assert_eq!(n2, 100);
        assert_eq!(idx.len(), 200);
        assert_eq!(built.len(), 200);
        // Misses append nothing.
        assert_eq!(t.probe_into(99, 0, &mut idx, &mut built), 0);
        assert_eq!(idx.len(), 200);
    }

    #[test]
    fn probes_route_to_one_partition_and_tags_reject_misses() {
        let _s = AllocScope::new(1 << 20);
        // Many keys over few partitions with tiny pages: every partition
        // grows a multi-page chain.
        let mut t = JoinTable::with_partitions(2048, 4);
        let srcs = sources(512);
        let objs: Vec<AnyHandle> = srcs.iter().map(|v| v.erase()).collect();
        let hashes: Vec<u64> = (0..512u64).collect();
        t.insert_batch(&hashes, None, &objs).unwrap();
        let t = reopen(t);
        assert!(
            t.page_count() > t.partitions,
            "need multi-page chains ({} pages)",
            t.page_count()
        );
        // Routing: a probe may only touch its own partition's chain, which
        // is strictly smaller than the whole table.
        let mut idx = Vec::new();
        let mut built: Vec<AnyHandle> = Vec::new();
        for key in 0..512u64 {
            assert!(
                t.partition_page_count(key) < t.page_count(),
                "probe for {key} would scan the whole table"
            );
            idx.clear();
            built.clear();
            assert_eq!(t.probe_into(key, 0, &mut idx, &mut built), 1);
            assert_eq!(firsts(&built), vec![key as i64]);
        }
        // Misses: the tag filter rejects (statistically almost) all of them
        // before any map probe, and none produce matches.
        let before = t.tag_rejects();
        for key in 10_000..11_000u64 {
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
        // Table pages start far smaller than one object, so the first
        // insert faults on a fresh page and must escalate (doubling) rather
        // than spinning on same-size pages forever.
        let mut t = JoinTable::new(512);
        let big = make_object::<PcVec<i64>>().unwrap();
        for i in 0..300i64 {
            big.push(i).unwrap();
        }
        t.insert_rowwise(42, &big.erase()).unwrap();
        assert_eq!(t.groups, 1);
        // Escalation was local to the oversized object: later inserts
        // (other partitions / fresh pages) go back to the configured size.
        for i in 0..40u64 {
            let small = make_object::<PcVec<i64>>().unwrap();
            small.push(i as i64).unwrap();
            t.insert_rowwise(100 + i, &small.erase()).unwrap();
        }
        assert_eq!(t.groups, 41);
        let caps = t.page_capacities();
        assert!(
            caps.iter().any(|&c| c > 512),
            "oversized object must escalate its own page"
        );
        assert!(
            caps.iter().filter(|&&c| c == 512).count() > 0,
            "configured page size must be restored after escalation: {caps:?}"
        );
        let t = reopen(t);
        let (mut idx, mut built) = (Vec::new(), Vec::new());
        assert_eq!(t.probe_into(42, 0, &mut idx, &mut built), 1);
        let v: Handle<PcVec<i64>> = built[0].downcast_unchecked::<AnyObj>().assume();
        assert_eq!(v.len(), 300);
        assert_eq!(v.get(299), 299);
        // Same contract on the vectorized path.
        let mut tv = JoinTable::new(512);
        let big2 = make_object::<PcVec<i64>>().unwrap();
        for i in 0..300i64 {
            big2.push(i).unwrap();
        }
        let smalls = sources(40);
        let mut objs: Vec<AnyHandle> = vec![big2.erase()];
        objs.extend(smalls.iter().map(|v| v.erase()));
        let hashes: Vec<u64> = (0..41u64).map(|i| i * 13 + 7).collect();
        tv.insert_batch(&hashes, None, &objs).unwrap();
        let caps = tv.page_capacities();
        assert!(caps.iter().any(|&c| c > 512));
        assert!(
            caps.iter().filter(|&&c| c == 512).count() > 0,
            "vectorized escalation must also restore the configured size: {caps:?}"
        );
    }
}

#[cfg(test)]
mod join_vectorized {
    //! Differential property tests for the radix-partitioned vectorized join
    //! build: the batch path (batch hash → radix scatter → bulk upsert) and
    //! the retained row-at-a-time reference must produce identical
    //! probe-result multisets across selections, batch sizes, and page
    //! sizes — and `BlockFull` faults mid-fold must leave every inserted
    //! row visible to probes exactly once.

    use super::reopen;
    use crate::JoinTable;
    use pc_object::{make_object, AllocScope, AnyHandle, AnyObj, Handle, PcVec};
    use proptest::prelude::*;

    /// Payload object for build row `row`: a vector `[row, row * 7]` so
    /// probes can recover the row identity and check the framing.
    fn payload(row: i64) -> Handle<PcVec<i64>> {
        let v = make_object::<PcVec<i64>>().unwrap();
        v.push(row).unwrap();
        v.push(row * 7).unwrap();
        v
    }

    /// Probes `keys` against `t` and returns the sorted multiset of
    /// `(key, probe_row, row_id)` over every match.
    fn probe_all(t: &JoinTable, keys: &[u64]) -> Vec<(u64, u32, i64)> {
        let mut out = Vec::new();
        let mut idx: Vec<u32> = Vec::new();
        let mut built: Vec<AnyHandle> = Vec::new();
        for (p, &key) in keys.iter().enumerate() {
            idx.clear();
            built.clear();
            let n = t.probe_into(key, p as u32, &mut idx, &mut built);
            assert_eq!(idx.len(), n, "one idx entry per match");
            assert_eq!(built.len(), n, "object buffer aligned to matches");
            for (&row, h) in idx.iter().zip(&built) {
                let v: Handle<PcVec<i64>> = h.downcast_unchecked::<AnyObj>().assume();
                assert_eq!(v.len(), 2, "payload framing intact");
                assert_eq!(v.get(1), v.get(0) * 7, "payload framing intact");
                out.push((key, row, v.get(0)));
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
            partitions in 1usize..9,
            page_size_exp in 12u32..17,
            batch_rows in 8usize..120,
        ) {
            let page_size = 1usize << page_size_exp; // 4 KiB .. 64 KiB: forces
                                                     // multi-page chains + faults
            let scope = AllocScope::new(1 << 22);
            let mut vectorized = JoinTable::with_partitions(page_size, partitions);
            let mut rowwise = JoinTable::with_partitions(page_size, partitions);

            // Absorb the same input through both paths, batch by batch, with a
            // selection vector derived from the mask.
            for (chunk_at, chunk) in rows.chunks(batch_rows).enumerate() {
                let objs: Vec<AnyHandle> = (0..chunk.len())
                    .map(|i| payload((chunk_at * batch_rows + i) as i64).erase())
                    .collect();
                let sel: Vec<u32> = (0..chunk.len())
                    .filter(|i| mask[(chunk_at * batch_rows + i) % mask.len()])
                    .map(|i| i as u32)
                    .collect();
                vectorized.insert_batch(chunk, Some(&sel), &objs).unwrap();
                for &i in &sel {
                    rowwise.insert_rowwise(chunk[i as usize], &objs[i as usize]).unwrap();
                }
            }
            drop(scope);
            prop_assert_eq!(vectorized.groups, rowwise.groups, "row counts diverged");
            let (vectorized, rowwise) = (reopen(vectorized), reopen(rowwise));

            // Probe every possible key (hits and misses) through both tables.
            let keys: Vec<u64> = (0..30u64).collect();
            let got_vec = probe_all(&vectorized, &keys);
            let got_row = probe_all(&rowwise, &keys);
            prop_assert_eq!(got_vec, got_row, "probe multisets diverged");
        }
    }

    /// `BlockFull` resumption: with pages so small that most rows fault at
    /// least once, the vectorized fold resumes on a fresh page exactly
    /// where it stopped — every inserted row is visible to probes exactly
    /// once, none lost and none duplicated.
    #[test]
    fn torn_groups_never_survive_block_full_faults() {
        let _s = AllocScope::new(1 << 22);
        let mut t = JoinTable::with_partitions(512, 4);
        let n = 120usize;
        let objs: Vec<AnyHandle> = (0..n).map(|i| payload(i as i64).erase()).collect();
        let hashes: Vec<u64> = (0..n as u64).map(|i| i % 5).collect();
        t.insert_batch(&hashes, None, &objs).unwrap();
        assert_eq!(t.groups, n as u64);
        let t = reopen(t);
        assert!(t.page_count() > 4, "tiny pages must fault and chain");

        let got = probe_all(&t, &(0..5u64).collect::<Vec<_>>());
        let mut rows: Vec<i64> = got.iter().map(|&(_, _, row)| row).collect();
        rows.sort_unstable();
        assert_eq!(
            rows,
            (0..n as i64).collect::<Vec<_>>(),
            "every row probed exactly once"
        );
        for &(key, _, row) in &got {
            assert_eq!(key, row as u64 % 5, "row {row} probed under the wrong key");
        }
    }

    /// The same resumption contract against the rowwise reference.
    #[test]
    fn rowwise_rollback_matches_vectorized_under_faults() {
        let _s = AllocScope::new(1 << 22);
        let mut vectorized = JoinTable::with_partitions(512, 2);
        let mut rowwise = JoinTable::with_partitions(512, 2);
        let n = 80usize;
        let objs: Vec<AnyHandle> = (0..n).map(|i| payload(i as i64).erase()).collect();
        let hashes: Vec<u64> = (0..n as u64).map(|i| i % 3).collect();
        vectorized.insert_batch(&hashes, None, &objs).unwrap();
        for (h, o) in hashes.iter().zip(&objs) {
            rowwise.insert_rowwise(*h, o).unwrap();
        }
        let (vectorized, rowwise) = (reopen(vectorized), reopen(rowwise));
        assert!(
            vectorized.page_count() > 2,
            "tiny pages must fault and chain"
        );
        let keys: Vec<u64> = (0..4u64).collect();
        let got = probe_all(&vectorized, &keys);
        assert_eq!(got.len(), n, "every row probed exactly once");
        assert_eq!(got, probe_all(&rowwise, &keys));
    }
}
