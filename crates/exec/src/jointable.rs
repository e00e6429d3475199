//! Join hash tables (Appendix D.3): the build side's objects on pages,
//! radix-partitioned, each page indexed once, when it seals.
//!
//! A join builds from one input (the compiler streams the first declared
//! input and builds from each later one). Inserting a build row
//! deep-copies its object onto its partition's open page — the movement
//! the original system performs when repartition sinks write join pages —
//! and records the row's join hash off-page. When the page fills (or at
//! [`JoinBuilder::into_pages`]) it seals as a [`JoinPage`](pc_object::JoinPage): one contiguous
//! handle array in key-group order and one directory sized exactly for
//! the page's distinct keys, mapping each key to its group's
//! `(start, count)`. No per-key vector exists and no table ever regrows,
//! so a page's bytes are its objects plus 8 bytes per row and about 22 per
//! key; those bytes are also what a broadcast ships and a spill writes.
//! Probing returns every object under the key; hash collisions are
//! resolved by the residual predicate the compiler re-emits post-join.
//!
//! The aggregation's [`MapPageBuilder`](pc_object::MapPageBuilder) builds
//! hash maps that later rows fold into; a join page only ever appends.
//! What the two sinks share is the rest of the shape: the partition rule
//! ([`round_partitions`], [`partition_of`]), the counting [`Scatter`] that
//! orders each batch by partition, and the one page-[`Escalation`] rule.
//!
//! A table has one lifecycle. The build sink, [`JoinBuilder`], scatters
//! each selection-filtered batch by the slot hash's high bits, appends
//! every partition's rows to that partition's open page, and seals pages
//! as they fill. Every probing thread reopens a zero-copy [`JoinTable`]
//! view over the sealed pages ([`JoinTable::from_shared_pages`]). A probe
//! routes its key to the owning partition's chain only — never a full
//! table scan — and looks it up in each page's directory.
//!
//! A key's matches come from its partition's chain in morsel order, then
//! in fill order, then in push order within a page, so probes emit them in
//! build-insertion order whatever the partition count: join output does
//! not depend on it when nothing spills.

use pc_object::containers::{partition_of, round_partitions, Escalation, Scatter};
use pc_object::{AnyHandle, JoinPageWriter, OpenJoinPage, PcError, PcKey, PcResult, SealedPage};

/// The join build sink: appends batches of build rows to one
/// [`JoinPageWriter`] per partition and collects the pages as they fill.
pub struct JoinBuilder {
    /// The configured page size every bucket's rows start at.
    page_size: usize,
    /// One writer per partition; the count is a power of two.
    parts: Vec<JoinPageWriter>,
    /// Retired `(partition, page)` pairs, in the order they filled.
    pages: Vec<(usize, SealedPage)>,
    /// Build rows inserted so far.
    rows_built: u64,
    // Per-batch scratch, cleared (not freed) at every batch boundary.
    /// Base row of each selected row.
    rows: Vec<u32>,
    /// Slot hash of each selected row.
    slot_hashes: Vec<u64>,
    /// The selected rows in partition order.
    scatter: Scatter,
}

impl JoinBuilder {
    /// A build sink with `partitions` radix partitions (rounded to a power
    /// of two) whose pages start at `page_size` bytes.
    pub fn new(partitions: usize, page_size: usize) -> Self {
        JoinBuilder {
            page_size,
            parts: (0..round_partitions(partitions))
                .map(|_| JoinPageWriter::new())
                .collect(),
            pages: Vec::new(),
            rows_built: 0,
            rows: Vec::new(),
            slot_hashes: Vec::new(),
            scatter: Scatter::default(),
        }
    }

    /// Build rows inserted so far.
    pub fn rows(&self) -> u64 {
        self.rows_built
    }

    /// Inserts every selection-live row of a batch: `hashes[row]` is base
    /// row `row`'s join hash and `objs[row]` its build-side object. The
    /// builder scatters the rows by partition and appends each partition's
    /// rows to its open page in batch order; a row that does not fit seals
    /// the page and lands on a fresh one, escalated by [`Escalation`]'s rule
    /// when the row does not fit a fresh page either.
    pub fn push_batch(
        &mut self,
        hashes: &[u64],
        sel: Option<&[u32]>,
        objs: &[AnyHandle],
    ) -> PcResult<()> {
        let JoinBuilder {
            page_size,
            parts,
            pages,
            rows_built,
            rows,
            slot_hashes,
            scatter,
        } = self;
        rows.clear();
        slot_hashes.clear();
        let mut select = |row: u32| {
            rows.push(row);
            slot_hashes.push(PcKey::hash_val(&hashes[row as usize]));
        };
        match sel {
            None => (0..hashes.len() as u32).for_each(&mut select),
            Some(s) => s.iter().copied().for_each(&mut select),
        }
        if rows.is_empty() {
            return Ok(());
        }
        scatter.scatter(slot_hashes, parts.len());
        for (part, writer) in parts.iter_mut().enumerate() {
            let (order, shashes) = scatter.bucket(part);
            let mut done = 0usize;
            let mut esc = Escalation::new(*page_size);
            while done < order.len() {
                writer.open(esc.size())?;
                let before = done;
                let r = order[done..]
                    .iter()
                    .zip(&shashes[done..])
                    .try_for_each(|(&i, &sh)| {
                        let row = rows[i as usize] as usize;
                        writer.push(hashes[row], sh, &objs[row])?;
                        done += 1;
                        Ok(())
                    });
                match r {
                    Ok(()) => {}
                    // The page is full: it seals, and the rows resume on a
                    // fresh one (the out-of-memory fault of §6.1).
                    Err(PcError::BlockFull { .. }) => {
                        let size = esc.fault(done != before)?;
                        if let Some(page) = writer.seal()? {
                            pages.push((part, page));
                        }
                        writer.open(size)?;
                    }
                    Err(e) => return Err(e),
                }
            }
            *rows_built += order.len() as u64;
        }
        Ok(())
    }

    /// Seals the table into shippable `(partition, page)` pairs (the
    /// broadcast/shuffle form of a build side — its pages travel raw,
    /// tagged with their radix partition, Appendix D.3), ordered by
    /// partition and, within one, by chain order, so receivers reassemble
    /// the partition chains.
    pub fn into_pages(mut self) -> PcResult<Vec<(usize, SealedPage)>> {
        for (part, writer) in self.parts.iter_mut().enumerate() {
            if let Some(page) = writer.seal()? {
                self.pages.push((part, page));
            }
        }
        // Partition-major, however the partitions' faults interleaved; the
        // sort is stable, so each chain keeps the order its pages filled in.
        self.pages.sort_by_key(|&(part, _)| part);
        Ok(self.pages)
    }
}

/// The probe side of one join input's hash table: zero-copy views over a
/// built table's sealed [`JoinPage`](pc_object::JoinPage)s, a power-of-two set of radix
/// partitions, each a chain of pages.
pub struct JoinTable {
    parts: Vec<Vec<OpenJoinPage>>,
}

impl JoinTable {
    /// The pipeline's probe fast path: appends each match for `hash`
    /// directly into the caller's reusable buffers — `probe_row` once per
    /// match into `idx` (the gather-index vector) and the matched build
    /// object into `built` — with no per-match closure call or allocation.
    /// The slot hash is computed once: its high bits route to the owning
    /// partition (only that partition's page chain is walked — never the
    /// whole table), and its low bits pick each page's directory bucket.
    /// Returns the number of matches.
    pub fn probe_into(
        &self,
        hash: u64,
        probe_row: u32,
        idx: &mut Vec<u32>,
        built: &mut Vec<AnyHandle>,
    ) -> usize {
        let shash = PcKey::hash_val(&hash);
        let mut matches = 0;
        for page in &self.parts[partition_of(shash, self.parts.len())] {
            let rows = page.lookup(hash, shash);
            matches += rows.len();
            for i in rows {
                idx.push(probe_row);
                built.push(page.row(i));
            }
        }
        matches
    }

    /// Opens a read-only table over gathered partition-tagged pages
    /// (zero-copy views), one chain per partition in page order. Used by
    /// every probing thread. `partitions` is the table's partition count,
    /// already rounded to a power of two (`SharedTable` rounds it once).
    pub fn from_shared_pages(
        partitions: usize,
        pages: &[(usize, std::sync::Arc<SealedPage>)],
    ) -> PcResult<Self> {
        debug_assert!(partitions.is_power_of_two(), "unrounded partition count");
        let mut parts: Vec<Vec<OpenJoinPage>> = (0..partitions).map(|_| Vec::new()).collect();
        for (part, p) in pages {
            parts[*part].push(OpenJoinPage::open(p)?);
        }
        Ok(JoinTable { parts })
    }
}

/// The chain diagnostics the tests read.
#[cfg(test)]
impl JoinTable {
    fn page_count(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// Pages a probe for `hash` may touch: the size of its partition's
    /// chain.
    fn partition_page_count(&self, hash: u64) -> usize {
        let part = partition_of(PcKey::hash_val(&hash), self.parts.len());
        self.parts[part].len()
    }

    /// `(capacity, rows)` of every page, partition by partition.
    fn page_capacities(&self) -> Vec<(usize, usize)> {
        self.parts
            .iter()
            .flatten()
            .map(|p| (p.block().capacity(), p.rows()))
            .collect()
    }
}

/// Seals a built table and reopens it the way the engine does: sealed
/// pages under a zero-copy probe view.
#[cfg(test)]
fn reopen(t: JoinBuilder) -> JoinTable {
    let partitions = t.parts.len();
    let pages: Vec<(usize, std::sync::Arc<SealedPage>)> = t
        .into_pages()
        .unwrap()
        .into_iter()
        .map(|(part, page)| (part, std::sync::Arc::new(page)))
        .collect();
    JoinTable::from_shared_pages(partitions, &pages).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_object::{make_object, pc_object, AllocScope, AnyObj, Handle, PcVec};

    fn sources(n: i64) -> Vec<Handle<PcVec<i64>>> {
        (0..n)
            .map(|i| {
                let v = make_object::<PcVec<i64>>().unwrap();
                v.push(i).unwrap();
                v
            })
            .collect()
    }

    fn erased(srcs: &[Handle<PcVec<i64>>]) -> Vec<AnyHandle> {
        srcs.iter().map(|v| v.erase()).collect()
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

    /// What a probe for `key` returns: the first element of every match.
    fn probe(t: &JoinTable, key: u64) -> Vec<i64> {
        let (mut idx, mut built) = (Vec::new(), Vec::new());
        t.probe_into(key, 0, &mut idx, &mut built);
        firsts(&built)
    }

    #[test]
    fn insert_and_probe_with_collisions_across_pages() {
        let _s = AllocScope::new(1 << 18);
        let mut t = JoinBuilder::new(8, 4096); // tiny pages force spanning
        let srcs = sources(200);
        // Two logical keys, heavy fan-in, one row per batch.
        for (i, v) in erased(&srcs).iter().enumerate() {
            t.push_batch(&[(i % 2) as u64 + 1], None, std::slice::from_ref(v))
                .unwrap();
        }
        assert_eq!(t.rows(), 200);
        let t = reopen(t);
        assert!(
            t.page_count() > 1,
            "tiny pages must span ({} page)",
            t.page_count()
        );
        // Every match, in insertion order, across the chain's pages.
        assert_eq!(probe(&t, 1), (0..200).step_by(2).collect::<Vec<i64>>());
        assert_eq!(probe(&t, 2), (1..200).step_by(2).collect::<Vec<i64>>());
        assert!(probe(&t, 99).is_empty());
    }

    #[test]
    fn probe_into_fills_reusable_buffers_across_pages() {
        let _s = AllocScope::new(1 << 18);
        let mut t = JoinBuilder::new(8, 4096); // tiny pages force key spanning
        let srcs = sources(200);
        let hashes: Vec<u64> = (0..200u64).map(|i| i % 2 + 1).collect();
        t.push_batch(&hashes, None, &erased(&srcs)).unwrap();
        let t = reopen(t);
        assert!(t.page_count() > 1, "a key must span pages");
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
    fn probes_route_to_one_partition_and_misses_match_nothing() {
        let _s = AllocScope::new(1 << 20);
        // Many keys over few partitions with tiny pages: every partition
        // grows a multi-page chain.
        let mut t = JoinBuilder::new(4, 2048);
        let srcs = sources(512);
        let hashes: Vec<u64> = (0..512u64).collect();
        t.push_batch(&hashes, None, &erased(&srcs)).unwrap();
        let t = reopen(t);
        assert!(
            t.page_count() > t.parts.len(),
            "need multi-page chains ({} pages)",
            t.page_count()
        );
        // Routing: a probe may only touch its own partition's chain, which
        // is strictly smaller than the whole table.
        for key in 0..512u64 {
            assert!(
                t.partition_page_count(key) < t.page_count(),
                "probe for {key} would scan the whole table"
            );
            assert_eq!(probe(&t, key), vec![key as i64]);
        }
        // Misses probe their partition's chain and produce no matches.
        let (mut idx, mut built) = (Vec::new(), Vec::new());
        for key in 10_000..11_000u64 {
            assert_eq!(t.probe_into(key, 0, &mut idx, &mut built), 0);
        }
        assert!(idx.is_empty() && built.is_empty());
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
        // Table pages start far smaller than one object, so its insert
        // faults on a fresh page and must escalate (doubling) rather than
        // spin on same-size pages forever.
        let mut t = JoinBuilder::new(8, 512);
        let smalls = sources(40);
        let mut objs: Vec<AnyHandle> = vec![oversized().erase()];
        objs.extend(erased(&smalls));
        let hashes: Vec<u64> = (0..41u64).map(|i| i * 13 + 7).collect();
        t.push_batch(&hashes, None, &objs).unwrap();
        assert_eq!(t.rows(), 41);
        // Escalation was local to the oversized object's partition: every
        // other partition's pages keep the configured size.
        let t = reopen(t);
        let caps = t.page_capacities();
        assert!(
            caps.iter().any(|&(c, n)| c > 512 && n > 0),
            "oversized object must escalate its own page: {caps:?}"
        );
        assert!(
            caps.iter().any(|&(c, n)| c == 512 && n > 0),
            "configured page size must be kept elsewhere: {caps:?}"
        );
        let (mut idx, mut built) = (Vec::new(), Vec::new());
        assert_eq!(t.probe_into(7, 0, &mut idx, &mut built), 1);
        let v: Handle<PcVec<i64>> = built[0].downcast_unchecked::<AnyObj>().assume();
        assert_eq!(v.len(), 300);
        assert_eq!(v.get(299), 299);
        for (i, h) in hashes.iter().enumerate().skip(1) {
            assert_eq!(probe(&t, *h), vec![i as i64 - 1], "key {h}");
        }
    }

    #[test]
    fn a_first_object_too_big_for_its_page_seals_no_empty_page() {
        let _s = AllocScope::new(1 << 21);
        // One partition: the object faults its page twice before the page
        // escalates to fit it. Neither faulted page held a row, so neither
        // may be sealed, counted or shipped.
        let mut t = JoinBuilder::new(1, 512);
        t.push_batch(&[42], None, &[oversized().erase()]).unwrap();
        let pages = t.into_pages().unwrap();
        let rows: Vec<(usize, usize)> = pages
            .iter()
            .map(|(_, page)| {
                let page = OpenJoinPage::open(page).unwrap();
                (page.block().capacity(), page.rows())
            })
            .collect();
        assert_eq!(rows, vec![(4096, 1)], "(capacity, rows) per page");
    }

    pc_object! {
        /// A two-`i64` build row, the shape of the relational workloads'.
        pub struct Row / RowView {
            (key, set_key): i64,
            (val, set_val): i64,
        }
    }

    /// Table bytes per build row for 30 000 unique two-`i64` rows built by
    /// two morsels (two input pages' worth) into 4 partitions of 1 MiB
    /// pages, batch by batch as the pipeline does: the page bytes a
    /// broadcast ships and a spill writes.
    #[test]
    fn join_table_bytes_per_row_stay_compact() {
        const ROWS: usize = 30_000;
        const BATCH: usize = 1024;
        let _s = AllocScope::new(8 << 20);
        let objs: Vec<AnyHandle> = (0..ROWS as i64)
            .map(|k| {
                let r = make_object::<Row>().unwrap();
                r.v().set_key(k).unwrap();
                r.v().set_val(k * 3).unwrap();
                r.erase()
            })
            .collect();
        let hashes: Vec<u64> = (0..ROWS as u64).map(pc_object::hash::mix64).collect();
        let mut bytes = 0usize;
        for morsel in 0..2 {
            let (lo, hi) = (morsel * ROWS / 2, (morsel + 1) * ROWS / 2);
            let mut t = JoinBuilder::new(4, 1 << 20);
            for at in (lo..hi).step_by(BATCH) {
                let end = (at + BATCH).min(hi);
                t.push_batch(&hashes[at..end], None, &objs[at..end])
                    .unwrap();
            }
            bytes += t
                .into_pages()
                .unwrap()
                .iter()
                .map(|(_, p)| p.used())
                .sum::<usize>();
        }
        let per_row = bytes as f64 / ROWS as f64;
        assert!(per_row <= 100.0, "{per_row:.1} table bytes per row");
    }
}

#[cfg(test)]
mod join_vectorized {
    //! Property tests for the radix-partitioned batch build against a
    //! `HashMap<u64, Vec<row>>` model: every probe must return exactly the
    //! model's rows for its key, in the model's (insertion) order, across
    //! selections, batch sizes, partition counts and page sizes — and
    //! `BlockFull` faults mid-batch must leave every inserted row visible
    //! to probes exactly once, in order.

    use super::reopen;
    use crate::{JoinBuilder, JoinTable};
    use pc_object::{make_object, AllocScope, AnyHandle, AnyObj, Handle, PcVec};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Payload object for build row `row`: a vector `[row, row * 7]` so
    /// probes can recover the row identity and check the framing.
    fn payload(row: i64) -> Handle<PcVec<i64>> {
        let v = make_object::<PcVec<i64>>().unwrap();
        v.push(row).unwrap();
        v.push(row * 7).unwrap();
        v
    }

    /// Probes `keys` against `t` and returns, per key, the row ids of its
    /// matches in the order the probe emitted them.
    fn probe_all(t: &JoinTable, keys: &[u64]) -> HashMap<u64, Vec<i64>> {
        let mut out = HashMap::new();
        let mut idx: Vec<u32> = Vec::new();
        let mut built: Vec<AnyHandle> = Vec::new();
        for (p, &key) in keys.iter().enumerate() {
            idx.clear();
            built.clear();
            let n = t.probe_into(key, p as u32, &mut idx, &mut built);
            assert_eq!(idx.len(), n, "one idx entry per match");
            assert_eq!(built.len(), n, "object buffer aligned to matches");
            assert!(
                idx.iter().all(|&r| r == p as u32),
                "idx carries the probe row"
            );
            let rows: Vec<i64> = built
                .iter()
                .map(|h| {
                    let v: Handle<PcVec<i64>> = h.downcast_unchecked::<AnyObj>().assume();
                    assert_eq!(v.len(), 2, "payload framing intact");
                    assert_eq!(v.get(1), v.get(0) * 7, "payload framing intact");
                    v.get(0)
                })
                .collect();
            if !rows.is_empty() {
                out.insert(key, rows);
            }
        }
        out
    }

    /// Builds `rows` (one join hash per row, row id = position) batch by
    /// batch under `mask`'s selection into both the table and the model.
    fn build(
        rows: &[u64],
        mask: &[bool],
        batch_rows: usize,
        partitions: usize,
        page_size: usize,
    ) -> (JoinTable, HashMap<u64, Vec<i64>>) {
        let scope = AllocScope::new(1 << 22);
        let mut t = JoinBuilder::new(partitions, page_size);
        let mut model: HashMap<u64, Vec<i64>> = HashMap::new();
        for (chunk_at, chunk) in rows.chunks(batch_rows).enumerate() {
            let base = chunk_at * batch_rows;
            let objs: Vec<AnyHandle> = (0..chunk.len())
                .map(|i| payload((base + i) as i64).erase())
                .collect();
            let sel: Vec<u32> = (0..chunk.len())
                .filter(|i| mask[(base + i) % mask.len()])
                .map(|i| i as u32)
                .collect();
            t.push_batch(chunk, Some(&sel), &objs).unwrap();
            for &i in &sel {
                model
                    .entry(chunk[i as usize])
                    .or_default()
                    .push((base + i as usize) as i64);
            }
        }
        drop(scope);
        let built: usize = model.values().map(Vec::len).sum();
        assert_eq!(t.rows(), built as u64, "row count diverged");
        (reopen(t), model)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        #[test]
        fn batch_builds_probe_in_model_order(
            rows in proptest::collection::vec(0u64..24, 1..300),
            mask in proptest::collection::vec(any::<bool>(), 300..301),
            partitions in 1usize..9,
            page_size_exp in 9u32..17,
            batch_rows in 8usize..120,
        ) {
            // 512 B .. 64 KiB: multi-page chains, faults mid-batch, and
            // escalations.
            let page_size = 1usize << page_size_exp;
            let (t, model) = build(&rows, &mask, batch_rows, partitions, page_size);
            // Every possible key, hits and misses.
            let keys: Vec<u64> = (0..30u64).collect();
            prop_assert_eq!(probe_all(&t, &keys), model);
        }
    }

    /// `BlockFull` resumption: with pages so small that most rows fault at
    /// least once, the build resumes on a fresh page exactly where it
    /// stopped — every inserted row is visible to probes exactly once,
    /// under its key, in insertion order.
    #[test]
    fn torn_groups_never_survive_block_full_faults() {
        for (partitions, keys) in [(4, 5u64), (2, 3)] {
            let n = 120;
            let rows: Vec<u64> = (0..n).map(|i| i % keys).collect();
            let (t, model) = build(&rows, &[true], n as usize, partitions, 512);
            assert!(
                t.page_count() > partitions,
                "tiny pages must fault and chain"
            );
            assert_eq!(model.values().map(Vec::len).sum::<usize>(), n as usize);
            assert_eq!(probe_all(&t, &(0..keys + 1).collect::<Vec<_>>()), model);
        }
    }
}
