//! Radix-partitioned map pages, and the partition rule, scatter and page
//! escalation both hash sinks share (the escalation serves object-producing
//! kernels too).
//!
//! Pre-aggregation (Appendix D.2) and the join build (Appendix D.3) both
//! hash a batch of rows into hash-partitioned objects living on pages,
//! sealing each page when it fills. What they share lives here:
//! [`round_partitions`] and [`partition_of`] (the stored hash's top bits —
//! disjoint from the low bits maps and join directories index with, and
//! ordered like the hash, so partition-major order is stored-hash order), the
//! counting [`Scatter`] that orders a batch by partition, and the one
//! page-[`Escalation`] rule. What they store differs: pre-aggregation
//! folds rows into [`PcMap`] values, built here by [`MapPageBuilder`];
//! the join build only appends, onto write-once
//! [`JoinPage`](super::JoinPage)s.
//!
//! [`MapPageBuilder`] takes a batch in two phases: the scatter, then one
//! resumable [`upsert_batch_by`] per non-empty bucket into its partition's
//! open page, so consecutive probes stay on one hot table. On `BlockFull`
//! the full page leaves the builder and the fold resumes on a fresh page
//! exactly where it stopped. A faulted page with no entries is discarded,
//! never sealed.
//!
//! [`upsert_batch_by`]: Handle::upsert_batch_by

use super::PcMap;
use crate::block::{AllocPolicy, BlockRef};
use crate::error::{PcError, PcResult};
use crate::handle::Handle;
use crate::page::SealedPage;
use crate::traits::{PcKey, PcValue};

/// The largest page an escalating fold opens.
const MAX_PAGE: usize = 256 << 20;

/// Consecutive no-progress faults after which a fold gives up.
const MAX_STALLS: u32 = 24;

/// The partition-count rounding every partitioned map set applies: at least
/// one, and a power of two so [`partition_of`] is a shift and mask. The
/// one source of truth for builders, probe views and the broadcast store.
pub fn round_partitions(partitions: usize) -> usize {
    partitions.max(1).next_power_of_two()
}

/// Partition of a slot hash among `partitions` (a power of two): the top
/// `log2(partitions)` bits of the hash a map stores. A map keeps 63 bits of
/// a slot hash (bit 63 is its occupied flag), so the partition is bits 62
/// and down, and partition-major order is stored-hash order: partition `p`
/// holds one contiguous range of stored hashes, below partition `p + 1`'s.
/// Map probes and join directories consume the low 32 bits, so the two
/// stay independent (the same bits for both would leave every map only
/// `cap / partitions` home slots and degrade probing into long runs).
#[inline]
pub fn partition_of(hash: u64, partitions: usize) -> usize {
    if partitions == 1 {
        return 0;
    }
    ((hash << 1) >> (64 - partitions.trailing_zeros())) as usize
}

/// One map on its own page: the map is the page's root object.
pub struct MapPage<K: PcKey, V: PcValue> {
    pub block: BlockRef,
    pub map: Handle<PcMap<K, V>>,
}

impl<K: PcKey, V: PcValue> MapPage<K, V> {
    /// A fresh page of `page_size` bytes holding an empty map.
    pub fn new(page_size: usize) -> PcResult<Self> {
        let block = BlockRef::new(page_size, AllocPolicy::LightweightReuse);
        let map = block.make_object::<PcMap<K, V>>()?;
        block.set_root(&map);
        Ok(MapPage { block, map })
    }

    /// Seals the page for shipping.
    pub fn seal(self) -> PcResult<SealedPage> {
        drop(self.map);
        self.block.try_seal()
    }
}

/// A batch's rows in partition order: a counting scatter by
/// [`partition_of`], with no per-row `%` and no allocation past the first
/// batch. Both hash sinks scatter through it.
#[derive(Default)]
pub struct Scatter {
    /// Bucket boundaries: partition `p` owns `starts[p]..starts[p+1]`.
    starts: Vec<u32>,
    /// Scatter cursors, one per partition.
    cursors: Vec<u32>,
    /// Row indices in bucket order.
    order: Vec<u32>,
    /// Slot hashes in bucket order.
    hashes: Vec<u64>,
}

impl Scatter {
    /// Orders the rows of a batch, named by their index into `hashes` (one
    /// slot hash per row), by partition among `partitions` (a power of
    /// two); rows of one partition keep their batch order.
    pub fn scatter(&mut self, hashes: &[u64], partitions: usize) {
        let Scatter {
            starts,
            cursors,
            order,
            hashes: bucket_hashes,
        } = self;
        let (p, n) = (partitions, hashes.len());
        starts.clear();
        starts.resize(p + 1, 0);
        for &h in hashes {
            starts[partition_of(h, p) + 1] += 1;
        }
        for i in 0..p {
            starts[i + 1] += starts[i];
        }
        cursors.clear();
        cursors.extend_from_slice(&starts[..p]);
        order.clear();
        order.resize(n, 0);
        bucket_hashes.clear();
        bucket_hashes.resize(n, 0);
        for (i, &h) in hashes.iter().enumerate() {
            let part = partition_of(h, p);
            let at = cursors[part] as usize;
            cursors[part] += 1;
            order[at] = i as u32;
            bucket_hashes[at] = h;
        }
    }

    /// Partition `part`'s bucket of the last scatter: its rows' batch
    /// indices and their slot hashes, in batch order.
    pub fn bucket(&self, part: usize) -> (&[u32], &[u64]) {
        let (lo, hi) = (self.starts[part] as usize, self.starts[part + 1] as usize);
        (&self.order[lo..hi], &self.hashes[lo..hi])
    }
}

/// The one page-escalation rule, kept per bucket fold (and per
/// object-producing kernel call, by `pc_lambda::ExecCtx`): the fold starts
/// at the configured page size; the second consecutive `BlockFull` without
/// progress (a value that does not fit even a fresh page) doubles it,
/// capped at 256 MiB, and the larger size holds for the rest of the fold.
pub struct Escalation {
    size: usize,
    stall: u32,
}

impl Escalation {
    /// A fold starting at `page_size`.
    pub fn new(page_size: usize) -> Self {
        Escalation {
            size: page_size,
            stall: 0,
        }
    }

    /// The size the fold opens pages at.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Records a `BlockFull` fault, `progressed` telling whether the fold
    /// stored a row since its previous fault (or its start). Returns the
    /// size the fold's next page opens at, or an error once the fold has
    /// stalled more than `MAX_STALLS` times in a row.
    pub fn fault(&mut self, progressed: bool) -> PcResult<usize> {
        self.stall = if progressed { 0 } else { self.stall + 1 };
        if self.stall > MAX_STALLS {
            return Err(PcError::Catalog(
                "a value exceeds the maximum page size".into(),
            ));
        }
        if self.stall > 1 {
            self.size = (self.size * 2).min(MAX_PAGE);
        }
        Ok(self.size)
    }
}

/// Builds batches of rows into a power-of-two set of partitions, each with
/// one open map page. Full pages leave through the caller's `retire`
/// callback, tagged with their partition, in the order they filled; pages
/// of one partition therefore leave in insertion order.
pub struct MapPageBuilder<K: PcKey, V: PcValue> {
    /// Partition count, always a power of two.
    partitions: usize,
    /// The configured page size every bucket fold starts at.
    page_size: usize,
    /// The open page of each partition.
    open: Vec<Option<MapPage<K, V>>>,
    /// Rows folded so far, counted per completed partition bucket (so the
    /// count matches what the retired and open pages hold even when a
    /// later bucket errors out).
    pub rows_folded: u64,
    // Per-batch scratch, cleared (not freed) at every batch boundary.
    /// Slot hash of each row of the batch, filled through [`Self::batch`].
    hashes: Vec<u64>,
    /// The batch in partition order.
    scatter: Scatter,
}

impl<K: PcKey, V: PcValue> MapPageBuilder<K, V> {
    /// A builder with `partitions` partitions (rounded by
    /// [`round_partitions`]) whose pages start at `page_size` bytes.
    pub fn new(partitions: usize, page_size: usize) -> Self {
        let partitions = round_partitions(partitions);
        MapPageBuilder {
            partitions,
            page_size,
            open: (0..partitions).map(|_| None).collect(),
            rows_folded: 0,
            hashes: Vec::new(),
            scatter: Scatter::default(),
        }
    }

    /// The partition count (a power of two).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Starts a batch: the cleared hash vector the caller fills with one
    /// slot hash per row. [`Self::fold`] then names each row by its index
    /// here.
    pub fn batch(&mut self) -> &mut Vec<u64> {
        self.hashes.clear();
        &mut self.hashes
    }

    /// Folds the batch into the partition maps. Each per-row callback gets
    /// the row's index into the batch: `matches` compares the row's key
    /// with the stored key at a slot, `make_key` stores it on a page's
    /// block, `init` builds the first value for a fresh key, and `combine`
    /// folds the row into the value at a slot. `retire` receives every
    /// page that fills, with its partition.
    pub fn fold(
        &mut self,
        mut matches: impl FnMut(usize, &BlockRef, u32) -> bool,
        mut make_key: impl FnMut(usize, &BlockRef) -> PcResult<K>,
        mut init: impl FnMut(usize, &BlockRef) -> PcResult<V>,
        mut combine: impl FnMut(usize, &BlockRef, u32) -> PcResult<()>,
        mut retire: impl FnMut(usize, SealedPage) -> PcResult<()>,
    ) -> PcResult<()> {
        let MapPageBuilder {
            partitions,
            page_size,
            open,
            rows_folded,
            hashes,
            scatter,
        } = self;
        if hashes.is_empty() {
            return Ok(());
        }
        scatter.scatter(hashes, *partitions);

        // One resumable bulk upsert per non-empty bucket.
        for (part, slot) in open.iter_mut().enumerate() {
            let (order, bhashes) = scatter.bucket(part);
            if order.is_empty() {
                continue;
            }
            let mut done = 0usize;
            let mut esc = Escalation::new(*page_size);
            loop {
                let map = &open_page(slot, esc.size())?.map;
                // Pre-size for the burst. The estimate follows the map's own
                // history (a low-cardinality map stays tiny; a
                // high-cardinality one doubles ahead of the rows), and
                // quietly falls back to on-demand growth when the page
                // cannot hold the bigger table.
                let est = (map.len() * 2 + 16).min(bhashes.len() - done);
                match map.reserve(est) {
                    Err(PcError::BlockFull { .. }) => {}
                    r => r?,
                }
                let before = done;
                let r = map.upsert_batch_by(
                    bhashes,
                    &mut done,
                    |j, b, slot| matches(order[j] as usize, b, slot),
                    |j, b| make_key(order[j] as usize, b),
                    |j, b| init(order[j] as usize, b),
                    |j, b, slot| combine(order[j] as usize, b, slot),
                );
                match r {
                    Ok(()) => break,
                    Err(PcError::BlockFull { .. }) => {
                        // The page is full: it leaves, and the fold resumes
                        // on a fresh one (the out-of-memory fault of §6.1).
                        let size = esc.fault(done != before)?;
                        roll_page(part, slot, size, &mut retire)?;
                    }
                    Err(e) => return Err(e),
                }
            }
            *rows_folded += order.len() as u64;
        }
        Ok(())
    }

    /// The open page of `part`, opened at the configured size if there is
    /// none. With [`Self::roll`], the primitive row-at-a-time reference
    /// paths drive their own retry loops with.
    pub fn open_page(&mut self, part: usize) -> PcResult<&MapPage<K, V>> {
        open_page(&mut self.open[part], self.page_size)
    }

    /// Retires `part`'s open page (if it holds entries) through `retire`
    /// and opens a fresh one of `page_size` bytes.
    pub fn roll(
        &mut self,
        part: usize,
        page_size: usize,
        mut retire: impl FnMut(usize, SealedPage) -> PcResult<()>,
    ) -> PcResult<()> {
        roll_page(part, &mut self.open[part], page_size, &mut retire)
    }

    /// Retires every open page that holds entries, partition by partition.
    pub fn finish(
        &mut self,
        mut retire: impl FnMut(usize, SealedPage) -> PcResult<()>,
    ) -> PcResult<()> {
        for part in 0..self.partitions {
            if let Some(page) = self.open[part].take() {
                retire_page(part, page, &mut retire)?;
            }
        }
        Ok(())
    }
}

/// The open page in `slot`, opened at `page_size` if there is none.
fn open_page<K: PcKey, V: PcValue>(
    slot: &mut Option<MapPage<K, V>>,
    page_size: usize,
) -> PcResult<&MapPage<K, V>> {
    Ok(match slot {
        Some(page) => page,
        None => slot.insert(MapPage::new(page_size)?),
    })
}

/// Retires the page in `slot` and opens a fresh one of `page_size` bytes.
fn roll_page<K: PcKey, V: PcValue>(
    part: usize,
    slot: &mut Option<MapPage<K, V>>,
    page_size: usize,
    retire: &mut impl FnMut(usize, SealedPage) -> PcResult<()>,
) -> PcResult<()> {
    if let Some(page) = slot.take() {
        retire_page(part, page, retire)?;
    }
    *slot = Some(MapPage::new(page_size)?);
    Ok(())
}

/// The one path a page leaves a builder by: sealed and handed to `retire`
/// if it holds entries, dropped otherwise.
fn retire_page<K: PcKey, V: PcValue>(
    part: usize,
    page: MapPage<K, V>,
    retire: &mut impl FnMut(usize, SealedPage) -> PcResult<()>,
) -> PcResult<()> {
    if page.map.is_empty() {
        return Ok(());
    }
    retire(part, page.seal()?)
}

#[cfg(test)]
mod tests {
    use super::partition_of;
    use proptest::prelude::*;

    proptest! {
        /// Partition-major order is stored-hash order: sorting by
        /// `(partition, stored hash)` is sorting by stored hash, at every
        /// partition count. That is what lets an owner finalize its
        /// partitions apart and still emit one global stored-hash order.
        #[test]
        fn partition_major_order_is_stored_hash_order(
            hashes in proptest::collection::vec(any::<u64>(), 0..400),
        ) {
            // What a map stores of a slot hash: bit 63 is its occupied flag.
            let stored = |h: u64| h & !(1 << 63);
            let mut by_hash: Vec<u64> = hashes.iter().map(|&h| stored(h)).collect();
            by_hash.sort_unstable();
            for p in [1usize, 2, 4, 8, 16] {
                let mut by_part = hashes.clone();
                by_part.sort_unstable_by_key(|&h| (partition_of(h, p), stored(h)));
                let by_part: Vec<u64> = by_part.into_iter().map(stored).collect();
                prop_assert_eq!(&by_part, &by_hash, "{} partitions", p);
                for &h in &hashes {
                    prop_assert!(partition_of(h, p) < p);
                    prop_assert_eq!(partition_of(h, p), partition_of(stored(h), p));
                }
            }
            prop_assert!(hashes.iter().all(|&h| partition_of(h, 1) == 0));
        }
    }
}
