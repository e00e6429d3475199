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
//! A table has one lifecycle. The build sink, [`JoinBuilder`], is the
//! aggregation sink's [`MapPageBuilder`] with a bucket push as its fold:
//! the builder scatters each selection-filtered batch by the slot hash's
//! high bits, bulk-folds every partition's bucket into that partition's
//! open page, and seals pages as they fill ([`JoinBuilder::into_pages`]
//! seals the rest). Where the build's pages are gathered, each
//! partition's compact 16-bit tag filter is built once from the stored
//! hashes ([`JoinTable::build_shared_tag_filters`]), and every probing
//! thread reopens a zero-copy [`JoinTable`] view over the pages with those
//! filters ([`JoinTable::from_shared_pages`]). A probe routes its key to
//! the owning partition's chain only — never a full table scan — after the
//! tag filter has rejected misses without touching any map. The
//! pre-vectorization row-at-a-time build and the unrouted full-scan probe
//! survive, compiled for this crate's tests only, as `insert_rowwise` and
//! `probe_into_scan`: the references the differential tests here compare
//! the batch paths against.

use pc_object::containers::{partition_of, round_partitions};
use pc_object::{
    AnyHandle, AnyObj, BlockRef, Handle, MapPageBuilder, PcKey, PcMap, PcResult, PcValue, PcVec,
    SealedPage,
};

type Bucket = Handle<PcVec<Handle<AnyObj>>>;
type TableMap = PcMap<u64, Bucket>;

/// A partition's probe-side tag filter: a blocked Bloom filter with 16-bit
/// blocks, sized from the partition's entry count. Shared (`Arc`) so a
/// broadcast table's filters are built once and reopened by every
/// pipelining thread without rescanning the maps. Empty = none (probes go
/// straight to the maps).
pub type TagFilter = std::sync::Arc<Vec<u16>>;

/// The join build sink: folds batches of build rows into a
/// [`MapPageBuilder`]'s partition maps, one bucket push per row, and
/// collects the pages as they fill.
pub struct JoinBuilder {
    maps: MapPageBuilder<u64, Bucket>,
    /// Retired `(partition, page)` pairs, in the order they filled.
    pages: Vec<(usize, SealedPage)>,
    // Per-batch scratch, cleared (not freed) at every batch boundary.
    /// Join hash of each selected row.
    keys: Vec<u64>,
    /// Base row of each selected row.
    rows: Vec<u32>,
}

impl JoinBuilder {
    /// A build sink with `partitions` radix partitions (rounded to a power
    /// of two) whose pages start at `page_size` bytes.
    pub fn new(partitions: usize, page_size: usize) -> Self {
        JoinBuilder {
            maps: MapPageBuilder::new(partitions, page_size),
            pages: Vec::new(),
            keys: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Build rows inserted so far, counted per completed partition.
    pub fn groups(&self) -> u64 {
        self.maps.rows_folded
    }

    /// Inserts every selection-live row of a batch: `hashes[row]` is base
    /// row `row`'s join hash and `objs[row]` its build-side object. The
    /// builder scatters the rows by partition and bulk-folds each bucket;
    /// a row's insert is one `push` onto its key's bucket, which changes
    /// nothing when it faults.
    pub fn push_batch(
        &mut self,
        hashes: &[u64],
        sel: Option<&[u32]>,
        objs: &[AnyHandle],
    ) -> PcResult<()> {
        let JoinBuilder {
            maps,
            pages,
            keys,
            rows,
        } = self;
        let slot_hashes = maps.batch();
        keys.clear();
        rows.clear();
        let mut select = |row: u32| {
            let key = hashes[row as usize];
            rows.push(row);
            keys.push(key);
            slot_hashes.push(PcKey::hash_val(&key));
        };
        match sel {
            None => (0..hashes.len() as u32).for_each(&mut select),
            Some(s) => s.iter().copied().for_each(&mut select),
        }
        let obj = |i: usize| objs[rows[i] as usize].typed_ref::<AnyObj>().clone();
        maps.fold(
            |i, b, slot| b.read::<u64>(slot) == keys[i],
            |i, _b| Ok(keys[i]),
            |i, b| {
                // First row under this key on this page: materialize the
                // bucket and append the row's object in place.
                let bucket = b.make_object::<PcVec<Handle<AnyObj>>>()?;
                bucket.push(obj(i))?;
                Ok(bucket)
            },
            |i, b, slot| {
                let bucket: Bucket = PcValue::load(b, slot);
                bucket.push(obj(i))
            },
            |part, page| {
                pages.push((part, page));
                Ok(())
            },
        )
    }

    /// Seals the table into shippable `(partition, page)` pairs (the
    /// broadcast/shuffle form of a build side — its maps travel as raw
    /// pages tagged with their radix partition, Appendix D.3), ordered by
    /// partition and, within one, by chain order, so receivers reassemble
    /// the partition chains.
    pub fn into_pages(mut self) -> PcResult<Vec<(usize, SealedPage)>> {
        let pages = &mut self.pages;
        self.maps.finish(|part, page| {
            pages.push((part, page));
            Ok(())
        })?;
        // Partition-major, however the partitions' faults interleaved; the
        // sort is stable, so each chain keeps the order its pages filled in.
        self.pages.sort_by_key(|&(part, _)| part);
        Ok(self.pages)
    }
}

/// One radix partition of a probe view: its chain of map pages and its
/// tag filter.
struct Partition {
    pages: Vec<(BlockRef, Handle<TableMap>)>,
    tags: TagFilter,
}

/// The probe side of one join input's hash table: zero-copy views over a
/// built table's sealed pages, a power-of-two set of radix partitions,
/// each a chain of map pages behind a tag filter.
pub struct JoinTable {
    partitions: usize,
    parts: Vec<Partition>,
}

impl JoinTable {
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

    // -------------------------------------------------------------- probing

    /// Routes a probe's slot hash to its owning partition, or `None` when
    /// the partition's tag filter rejects the key (one filter word read, no
    /// map touched). Shared by every routed probe path.
    #[inline]
    fn route(&self, shash: u64) -> Option<&Partition> {
        let part = &self.parts[partition_of(shash, self.partitions)];
        if !part.tags.is_empty() {
            let (i, bit) = Self::tag_pos(shash, part.tags.len());
            if part.tags[i] & bit == 0 {
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

    // ------------------------------------------------------------ reopening

    /// Builds the per-partition tag filters of a sealed, gathered table
    /// **once** from the stored entry hashes (no key is rehashed). The
    /// broadcast path calls this at gather time and ships the `Arc`s
    /// alongside the pages, so every reopening pipelining thread shares
    /// the filters instead of rescanning all table entries per thread.
    pub fn build_shared_tag_filters(
        partitions: usize,
        pages: &[(usize, std::sync::Arc<SealedPage>)],
    ) -> PcResult<Vec<TagFilter>> {
        let partitions = round_partitions(partitions);
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
    /// probing thread.
    pub fn from_shared_pages(
        partitions: usize,
        pages: &[(usize, std::sync::Arc<SealedPage>)],
        filters: &[TagFilter],
    ) -> PcResult<Self> {
        let partitions = round_partitions(partitions);
        debug_assert_eq!(filters.len(), partitions, "one tag filter per partition");
        let mut parts: Vec<Partition> = (0..partitions)
            .map(|_| Partition {
                pages: Vec::new(),
                tags: TagFilter::default(),
            })
            .collect();
        for (part, p) in pages {
            let (block, root) = p.open_view()?;
            let map = root.downcast::<TableMap>()?;
            parts[*part].pages.push((block, map));
        }
        for (part, f) in parts.iter_mut().zip(filters) {
            part.tags = f.clone();
        }
        Ok(JoinTable { partitions, parts })
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

/// The row-at-a-time build reference the batch path is tested against.
/// Test builds only: nothing in the engine calls it.
#[cfg(test)]
impl JoinBuilder {
    /// The pre-vectorization build path, kept as the reference for parity
    /// tests: one closure-driven `upsert_by`, a redundant `map.get`
    /// re-probe, and a push per row, with its own retry loop over the
    /// builder's open page. Routes through the same partitions so its
    /// tables probe identically.
    fn insert_rowwise(&mut self, hash: u64, obj: &AnyHandle) -> PcResult<()> {
        use pc_object::PcError;
        let shash = PcKey::hash_val(&hash);
        let part = partition_of(shash, self.maps.partitions());
        let mut on_fresh_page = false;
        let mut page_size = self.maps.page_size();
        for _ in 0..24 {
            let page = self.maps.open_page(part)?;
            let r = page
                .map
                .upsert_by(
                    shash,
                    |b, slot| b.read::<u64>(slot) == hash,
                    |_b| Ok(hash),
                    |_b| page.block.make_object::<PcVec<Handle<AnyObj>>>(),
                    |_b, _slot| Ok(()),
                )
                .and_then(|()| {
                    // Fetch the bucket and append the object (deep copies
                    // it onto the table page — §6.4's rule).
                    let bucket = page.map.get(&hash).expect("bucket just ensured");
                    bucket.push(obj.downcast_unchecked::<AnyObj>())
                });
            match r {
                Ok(()) => {
                    self.maps.rows_folded += 1;
                    return Ok(());
                }
                Err(PcError::BlockFull { .. }) => {
                    // A fault on a just-created page means the object
                    // itself exceeds the page size: escalate first.
                    if on_fresh_page {
                        page_size = (page_size * 2).min(256 << 20);
                    }
                    let pages = &mut self.pages;
                    self.maps.roll(part, page_size, |p, sealed| {
                        pages.push((p, sealed));
                        Ok(())
                    })?;
                    on_fresh_page = true;
                }
                Err(e) => return Err(e),
            }
        }
        Err(PcError::Catalog(
            "join group exceeds the maximum page size".into(),
        ))
    }
}

/// The unrouted probe reference and the chain diagnostics the tests read.
#[cfg(test)]
impl JoinTable {
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

    fn page_count(&self) -> usize {
        self.parts.iter().map(|p| p.pages.len()).sum()
    }

    /// Pages a probe for `hash` may touch: the size of its partition's
    /// chain.
    fn partition_page_count(&self, hash: u64) -> usize {
        let part = partition_of(PcKey::hash_val(&hash), self.partitions);
        self.parts[part].pages.len()
    }

    /// `(capacity, entries)` of every page, partition by partition.
    fn page_capacities(&self) -> Vec<(usize, usize)> {
        self.parts
            .iter()
            .flat_map(|p| p.pages.iter().map(|(b, map)| (b.capacity(), map.len())))
            .collect()
    }
}

/// Seals a built table and reopens it the way the engine does: sealed
/// pages, tag filters built once over them, a zero-copy probe view.
#[cfg(test)]
fn reopen(t: JoinBuilder) -> JoinTable {
    let partitions = t.maps.partitions();
    let pages: Vec<(usize, std::sync::Arc<SealedPage>)> = t
        .into_pages()
        .unwrap()
        .into_iter()
        .map(|(part, page)| (part, std::sync::Arc::new(page)))
        .collect();
    let filters = JoinTable::build_shared_tag_filters(partitions, &pages).unwrap();
    JoinTable::from_shared_pages(partitions, &pages, &filters).unwrap()
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
        let mut t = JoinBuilder::new(8, 4096); // tiny pages force spanning
        let sources = sources(200);
        for (i, v) in sources.iter().enumerate() {
            // Two logical keys, heavy bucket fan-in.
            let hash = (i % 2) as u64 + 1;
            t.insert_rowwise(hash, &v.erase()).unwrap();
        }
        let t = reopen(t);
        assert!(
            t.page_count() > 1,
            "tiny pages must span ({} page)",
            t.page_count()
        );
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
        let mut vectorized = JoinBuilder::new(8, 4096);
        vectorized.push_batch(&hashes, None, &objs).unwrap();
        let mut rowwise = JoinBuilder::new(8, 4096);
        for (h, o) in hashes.iter().zip(&objs) {
            rowwise.insert_rowwise(*h, o).unwrap();
        }
        assert_eq!(vectorized.groups(), 300);
        assert_eq!(rowwise.groups(), 300);
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
        let mut t = JoinBuilder::new(8, 4096); // tiny pages force bucket spanning
        let sources = sources(200);
        for (i, v) in sources.iter().enumerate() {
            t.insert_rowwise((i % 2) as u64 + 1, &v.erase()).unwrap();
        }
        let t = reopen(t);
        assert!(t.page_count() > 1, "bucket must span pages");
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
        let mut t = JoinBuilder::new(4, 2048);
        let srcs = sources(512);
        let objs: Vec<AnyHandle> = srcs.iter().map(|v| v.erase()).collect();
        let hashes: Vec<u64> = (0..512u64).collect();
        t.push_batch(&hashes, None, &objs).unwrap();
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
        let mut rejected = 0;
        for key in 10_000..11_000u64 {
            assert_eq!(t.probe_into(key, 0, &mut idx, &mut built), 0);
            rejected += usize::from(t.route(PcKey::hash_val(&key)).is_none());
        }
        assert!(
            rejected > 800,
            "tag filter rejected only {rejected} of 1000 misses"
        );
    }

    /// A 300-element vector: far bigger than a 512-byte page.
    fn oversized() -> Handle<PcVec<i64>> {
        let big = make_object::<PcVec<i64>>().unwrap();
        for i in 0..300i64 {
            big.push(i).unwrap();
        }
        big
    }

    #[test]
    fn insert_escalates_for_the_faulting_group_only() {
        let _s = AllocScope::new(1 << 21);
        // Table pages start far smaller than one object, so the first
        // insert faults on a fresh page and must escalate (doubling) rather
        // than spinning on same-size pages forever.
        let mut t = JoinBuilder::new(8, 512);
        t.insert_rowwise(42, &oversized().erase()).unwrap();
        assert_eq!(t.groups(), 1);
        // Escalation was local to the oversized object: later inserts
        // (other partitions / fresh pages) go back to the configured size.
        for i in 0..40u64 {
            let small = make_object::<PcVec<i64>>().unwrap();
            small.push(i as i64).unwrap();
            t.insert_rowwise(100 + i, &small.erase()).unwrap();
        }
        assert_eq!(t.groups(), 41);
        let t = reopen(t);
        let caps = t.page_capacities();
        assert!(
            caps.iter().any(|&(c, n)| c > 512 && n > 0),
            "oversized object must escalate its own page: {caps:?}"
        );
        assert!(
            caps.iter().any(|&(c, n)| c == 512 && n > 0),
            "configured page size must be restored after escalation: {caps:?}"
        );
        let (mut idx, mut built) = (Vec::new(), Vec::new());
        assert_eq!(t.probe_into(42, 0, &mut idx, &mut built), 1);
        let v: Handle<PcVec<i64>> = built[0].downcast_unchecked::<AnyObj>().assume();
        assert_eq!(v.len(), 300);
        assert_eq!(v.get(299), 299);
        // Same contract on the vectorized path.
        let mut tv = JoinBuilder::new(8, 512);
        let smalls = sources(40);
        let mut objs: Vec<AnyHandle> = vec![oversized().erase()];
        objs.extend(smalls.iter().map(|v| v.erase()));
        let hashes: Vec<u64> = (0..41u64).map(|i| i * 13 + 7).collect();
        tv.push_batch(&hashes, None, &objs).unwrap();
        let caps = reopen(tv).page_capacities();
        assert!(caps.iter().any(|&(c, n)| c > 512 && n > 0), "{caps:?}");
        assert!(
            caps.iter().any(|&(c, n)| c == 512 && n > 0),
            "vectorized escalation must also restore the configured size: {caps:?}"
        );
    }

    #[test]
    fn a_first_object_too_big_for_its_page_seals_no_empty_page() {
        let _s = AllocScope::new(1 << 21);
        // The engine's build path, one partition: the object faults its
        // page twice before the page escalates to fit it. Neither faulted
        // page held an entry, so neither may be sealed, counted or shipped.
        let mut t = JoinBuilder::new(1, 512);
        t.push_batch(&[42], None, &[oversized().erase()]).unwrap();
        let pages = t.into_pages().unwrap();
        let entries: Vec<(usize, usize)> = pages
            .iter()
            .map(|(_, page)| {
                let (block, root) = page.open_view().unwrap();
                (block.capacity(), root.downcast::<TableMap>().unwrap().len())
            })
            .collect();
        assert_eq!(entries, vec![(4096, 1)], "(capacity, entries) per page");
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
    use crate::{JoinBuilder, JoinTable};
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
            let mut vectorized = JoinBuilder::new(partitions, page_size);
            let mut rowwise = JoinBuilder::new(partitions, page_size);

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
                vectorized.push_batch(chunk, Some(&sel), &objs).unwrap();
                for &i in &sel {
                    rowwise.insert_rowwise(chunk[i as usize], &objs[i as usize]).unwrap();
                }
            }
            drop(scope);
            prop_assert_eq!(vectorized.groups(), rowwise.groups(), "row counts diverged");
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
        let mut t = JoinBuilder::new(4, 512);
        let n = 120usize;
        let objs: Vec<AnyHandle> = (0..n).map(|i| payload(i as i64).erase()).collect();
        let hashes: Vec<u64> = (0..n as u64).map(|i| i % 5).collect();
        t.push_batch(&hashes, None, &objs).unwrap();
        assert_eq!(t.groups(), n as u64);
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
        let mut vectorized = JoinBuilder::new(2, 512);
        let mut rowwise = JoinBuilder::new(2, 512);
        let n = 80usize;
        let objs: Vec<AnyHandle> = (0..n).map(|i| payload(i as i64).erase()).collect();
        let hashes: Vec<u64> = (0..n as u64).map(|i| i % 3).collect();
        vectorized.push_batch(&hashes, None, &objs).unwrap();
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
