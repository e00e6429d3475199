//! Write-once join-table pages (Appendix D.3).
//!
//! A join table page holds the build side's objects and, written once when
//! the page is sealed, one index over them: a contiguous array of stored
//! handles in key-group order, and a directory sized exactly for the
//! page's distinct keys that maps each key to its group's `(start, count)`
//! in that array. Nothing on the page ever grows, so it carries no per-key
//! vector, no spare table capacity and no array a regrowth left behind.
//!
//! [`JoinPageWriter`] builds a page: [`JoinPageWriter::push`] deep-copies a
//! row's object onto the open page and records `(key, offset)` off-page;
//! [`JoinPageWriter::seal`] writes the index. The writer holds back (see
//! [`BlockRef::hold_back`]) the bytes the index will need for every row
//! accepted so far plus the next one, so an object that does not fit
//! faults on its own copy and sealing never faults. [`OpenJoinPage`] reads
//! a sealed page in place.
//!
//! The directory is bucketed by the slot hash's low bits (the partition
//! rule takes the high bits): `buckets[b]..buckets[b + 1]` are the entries
//! of bucket `b`, each `{key: u64, start: u32, count: u32}`, with
//! `next_power_of_two(keys)` buckets — one to two entries per bucket on
//! average, so a lookup reads one bucket pair and about one entry.

use super::{alloc_array, array_bytes, free_array};
use crate::anyobj::AnyObj;
use crate::block::{AllocPolicy, BlockRef};
use crate::error::{PcError, PcResult};
use crate::handle::{AnyHandle, Handle};
use crate::page::SealedPage;
use crate::traits::{PcObjType, PcValue};
use std::ops::Range;

/// The root object of a join table page.
///
/// Payload layout: `{ rows: u32, handles: u32, keys: u32, dir: u32,
/// mask: u32, buckets: u32 }` — the row count and the offset of its array
/// of stored handles, the key count and the offset of the directory, and
/// the bucket mask and the offset of the `mask + 2` bucket boundaries.
pub struct JoinPage(());

const OFF_ROWS: u32 = 0;
const OFF_HANDLES: u32 = 4;
const OFF_KEYS: u32 = 8;
const OFF_DIR: u32 = 12;
const OFF_MASK: u32 = 16;
const OFF_BUCKETS: u32 = 20;
const ROOT_SIZE: u32 = 24;

/// A stored handle: `{offset, type_code}`.
const HANDLE: u32 = 8;
/// A directory entry: `{key: u64, start: u32, count: u32}`.
const ENTRY: u32 = 16;

/// Buckets of a directory over `keys` keys.
fn bucket_count(keys: usize) -> usize {
    keys.max(1).next_power_of_two()
}

/// Bytes the index of a page with `rows` rows under `keys` keys takes.
fn index_bytes(rows: usize, keys: usize) -> usize {
    array_bytes(rows * HANDLE as usize)
        + array_bytes(keys * ENTRY as usize)
        + array_bytes((bucket_count(keys) + 1) * 4)
}

impl PcObjType for JoinPage {
    type View<'a> = &'a Handle<JoinPage>;

    fn type_name() -> String {
        "JoinPage".to_string()
    }

    fn init_size() -> u32 {
        ROOT_SIZE
    }

    fn init_at(b: &BlockRef, off: u32) -> PcResult<()> {
        b.zero_range(off, ROOT_SIZE as usize);
        Ok(())
    }

    fn deep_copy_obj(src: &BlockRef, soff: u32, dst: &BlockRef) -> PcResult<u32> {
        let doff = dst.alloc(ROOT_SIZE, Self::type_code(), 0)?;
        Self::init_at(dst, doff)?;
        let rows = src.read_u32(soff + OFF_ROWS);
        if rows == 0 {
            return Ok(doff);
        }
        // The index arrays are position-independent: byte copies. Every
        // stored handle deep-copies its object.
        let copy = |at: u32, bytes: u32| -> PcResult<u32> {
            let to = alloc_array(dst, bytes)?;
            dst.write_bytes(to, src.bytes(src.read_u32(soff + at), bytes as usize));
            Ok(to)
        };
        let keys = src.read_u32(soff + OFF_KEYS);
        let mask = src.read_u32(soff + OFF_MASK);
        let dir = copy(OFF_DIR, keys * ENTRY)?;
        let buckets = copy(OFF_BUCKETS, (mask + 2) * 4)?;
        let (shandles, handles) = (
            src.read_u32(soff + OFF_HANDLES),
            alloc_array(dst, rows * HANDLE)?,
        );
        for at in (0..rows).map(|i| i * HANDLE) {
            Handle::<AnyObj>::deep_copy_stored(src, shandles + at, dst, handles + at)?;
        }
        for (at, v) in [
            (OFF_ROWS, rows),
            (OFF_HANDLES, handles),
            (OFF_KEYS, keys),
            (OFF_DIR, dir),
            (OFF_MASK, mask),
            (OFF_BUCKETS, buckets),
        ] {
            dst.write_u32(doff + at, v);
        }
        Ok(doff)
    }

    fn drop_obj(b: &BlockRef, off: u32) {
        let handles = b.read_u32(off + OFF_HANDLES);
        if handles == 0 {
            return;
        }
        for i in 0..b.read_u32(off + OFF_ROWS) {
            Handle::<AnyObj>::drop_stored(b, handles + i * HANDLE);
        }
        free_array(b, handles);
        free_array(b, b.read_u32(off + OFF_DIR));
        free_array(b, b.read_u32(off + OFF_BUCKETS));
    }

    fn make_view(h: &Handle<Self>) -> Self::View<'_> {
        h
    }
}

/// One key's rows on the open page.
struct Group {
    key: u64,
    slot_hash: u64,
    rows: u32,
}

/// Builds join table pages one at a time: objects as rows arrive, the
/// index when the page seals. Its scratch is reused from page to page.
#[derive(Default)]
pub struct JoinPageWriter {
    /// The open page, if any.
    block: Option<BlockRef>,
    /// `(group, object offset)` of each row on the open page, in arrival
    /// order.
    rows: Vec<(u32, u32)>,
    /// The open page's keys, in first-arrival order.
    groups: Vec<Group>,
    /// Key → group: `group + 1` per slot (0 is empty), linear probing on
    /// the slot hash, at most half full.
    index: Vec<u32>,
    // Seal scratch.
    /// Bucket boundaries, then each bucket's next directory position.
    starts: Vec<u32>,
    /// Directory position → group.
    dir: Vec<u32>,
    /// Each group's next position in the handle array.
    at: Vec<u32>,
}

impl JoinPageWriter {
    /// A writer with no open page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows on the open page.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Opens a page of `page_size` bytes unless one is open.
    pub fn open(&mut self, page_size: usize) -> PcResult<()> {
        if self.block.is_none() {
            let block = BlockRef::new(page_size, AllocPolicy::NoReuse);
            let root = block.make_object::<JoinPage>()?;
            block.set_root(&root);
            self.block = Some(block);
        }
        Ok(())
    }

    /// Adds one row under join key `key` (whose slot hash is `slot_hash`):
    /// deep-copies `obj` onto the open page ([`Self::open`] first). On
    /// `BlockFull` nothing is recorded: the row does not fit the page
    /// beside the index its rows so far need.
    pub fn push(&mut self, key: u64, slot_hash: u64, obj: &AnyHandle) -> PcResult<()> {
        let (slot, group) = self.find(key, slot_hash);
        let block = self
            .block
            .as_ref()
            .ok_or_else(|| PcError::Catalog("join page push before open".into()))?;
        let keys = self.groups.len() + usize::from(group.is_none());
        block.hold_back(index_bytes(self.rows.len() + 1, keys));
        let off = AnyObj::deep_copy_obj(obj.block(), obj.offset(), block)?;
        block.note_deep_copy();
        // The page's handle array owns the copy.
        block.inc_ref(off);
        let group = match group {
            Some(g) => g,
            None => {
                let g = self.groups.len() as u32;
                self.groups.push(Group {
                    key,
                    slot_hash,
                    rows: 0,
                });
                self.index[slot] = g + 1;
                if self.groups.len() * 2 > self.index.len() {
                    self.grow_index();
                }
                g
            }
        };
        self.groups[group as usize].rows += 1;
        self.rows.push((group, off));
        Ok(())
    }

    /// `key`'s index slot and group, or the vacant slot it would take.
    fn find(&mut self, key: u64, slot_hash: u64) -> (usize, Option<u32>) {
        if self.index.is_empty() {
            self.index.resize(64, 0);
        }
        let mask = self.index.len() - 1;
        let mut i = slot_hash as usize & mask;
        loop {
            match self.index[i] {
                0 => return (i, None),
                g if self.groups[g as usize - 1].key == key => return (i, Some(g - 1)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles the key index and reinserts every group.
    fn grow_index(&mut self) {
        let len = self.index.len() * 2;
        self.index.clear();
        self.index.resize(len, 0);
        let mask = len - 1;
        for (g, group) in self.groups.iter().enumerate() {
            let mut i = group.slot_hash as usize & mask;
            while self.index[i] != 0 {
                i = (i + 1) & mask;
            }
            self.index[i] = g as u32 + 1;
        }
    }

    /// Writes the open page's index and seals it. Returns `None` — and
    /// drops the page — if no row landed on it. Either way the writer is
    /// left with no open page.
    pub fn seal(&mut self) -> PcResult<Option<SealedPage>> {
        let Some(block) = self.block.take() else {
            return Ok(None);
        };
        let written = if self.rows.is_empty() {
            Ok(false)
        } else {
            self.write_index(&block).map(|()| true)
        };
        // Scratch goes back cleared, not freed.
        self.rows.clear();
        self.groups.clear();
        self.index.fill(0);
        if written? {
            block.try_seal().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Writes the handle array, the directory and its buckets onto `block`
    /// and fills in the root.
    fn write_index(&mut self, block: &BlockRef) -> PcResult<()> {
        let JoinPageWriter {
            rows,
            groups,
            starts,
            dir,
            at,
            ..
        } = self;
        block.hold_back(0);
        let (nrows, nkeys) = (rows.len() as u32, groups.len() as u32);
        let nbuckets = bucket_count(groups.len());
        let mask = nbuckets as u32 - 1;
        let handles = alloc_array(block, nrows * HANDLE)?;
        let entries = alloc_array(block, nkeys * ENTRY)?;
        let buckets = alloc_array(block, (nbuckets as u32 + 1) * 4)?;

        // Bucket boundaries: a counting sort of the keys by bucket.
        starts.clear();
        starts.resize(nbuckets + 1, 0);
        for g in groups.iter() {
            starts[(g.slot_hash as u32 & mask) as usize + 1] += 1;
        }
        for b in 0..nbuckets {
            starts[b + 1] += starts[b];
        }
        for (b, &s) in starts.iter().enumerate() {
            block.write_u32(buckets + b as u32 * 4, s);
        }
        // Directory order: by bucket, keys of one bucket in first-arrival
        // order.
        dir.clear();
        dir.resize(groups.len(), 0);
        for (g, group) in groups.iter().enumerate() {
            let cursor = &mut starts[(group.slot_hash as u32 & mask) as usize];
            dir[*cursor as usize] = g as u32;
            *cursor += 1;
        }
        // Entries in directory order; each key's rows start where the
        // previous entry's end, so the handle array is in key-group order.
        at.clear();
        at.resize(groups.len(), 0);
        let mut start = 0u32;
        for (pos, &g) in dir.iter().enumerate() {
            let group = &groups[g as usize];
            let e = entries + pos as u32 * ENTRY;
            block.write::<u64>(e, group.key);
            block.write_u32(e + 8, start);
            block.write_u32(e + 12, group.rows);
            at[g as usize] = start;
            start += group.rows;
        }
        // Handles, arrival order within a key.
        for &(g, off) in rows.iter() {
            let slot = &mut at[g as usize];
            block.write::<(u32, u32)>(handles + *slot * HANDLE, (off, block.obj_code(off).0));
            *slot += 1;
        }
        let root = block.root_offset();
        for (field, v) in [
            (OFF_ROWS, nrows),
            (OFF_HANDLES, handles),
            (OFF_KEYS, nkeys),
            (OFF_DIR, entries),
            (OFF_MASK, mask),
            (OFF_BUCKETS, buckets),
        ] {
            block.write_u32(root + field, v);
        }
        Ok(())
    }
}

/// A sealed join page opened for probing, in place: the root's fields are
/// read once, and a lookup reads the bucket boundaries, the bucket's
/// entries and the matching group's handles.
pub struct OpenJoinPage {
    block: BlockRef,
    rows: u32,
    handles: u32,
    dir: u32,
    mask: u32,
    buckets: u32,
}

impl OpenJoinPage {
    /// A zero-copy view of `page`, whose root must be a [`JoinPage`].
    pub fn open(page: &SealedPage) -> PcResult<Self> {
        let (block, root) = page.open_view()?;
        let root = root.downcast::<JoinPage>()?.offset();
        let field = |at: u32| block.read_u32(root + at);
        Ok(OpenJoinPage {
            rows: field(OFF_ROWS),
            handles: field(OFF_HANDLES),
            dir: field(OFF_DIR),
            mask: field(OFF_MASK),
            buckets: field(OFF_BUCKETS),
            block,
        })
    }

    /// The page's block.
    pub fn block(&self) -> &BlockRef {
        &self.block
    }

    /// Rows on the page.
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Positions in the handle array of `key`'s rows (empty if the page has
    /// none), in the order they were pushed; `slot_hash` is the key's slot
    /// hash.
    #[inline]
    pub fn lookup(&self, key: u64, slot_hash: u64) -> Range<u32> {
        if self.rows == 0 {
            return 0..0;
        }
        let b = self.buckets + (slot_hash as u32 & self.mask) * 4;
        let (lo, hi) = (self.block.read_u32(b), self.block.read_u32(b + 4));
        for e in lo..hi {
            let e = self.dir + e * ENTRY;
            if self.block.read::<u64>(e) == key {
                let start = self.block.read_u32(e + 8);
                return start..start + self.block.read_u32(e + 12);
            }
        }
        0..0
    }

    /// The object at position `i` of the handle array.
    #[inline]
    pub fn row(&self, i: u32) -> AnyHandle {
        AnyHandle::new(
            self.block.clone(),
            self.block.read_u32(self.handles + i * HANDLE),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{make_object, AllocScope, PcError, PcVec};

    fn row(v: i64) -> AnyHandle {
        let h = make_object::<PcVec<i64>>().unwrap();
        h.push(v).unwrap();
        h.erase()
    }

    fn values(page: &OpenJoinPage, key: u64) -> Vec<i64> {
        page.lookup(key, crate::hash::mix64(key))
            .map(|i| page.row(i).downcast::<PcVec<i64>>().unwrap().get(0))
            .collect()
    }

    /// Pushes `(key, value)` rows onto a fresh writer's page and seals it.
    fn sealed(rows: &[(u64, i64)], page_size: usize) -> SealedPage {
        let _s = AllocScope::new(1 << 20);
        let mut w = JoinPageWriter::new();
        w.open(page_size).unwrap();
        for &(k, v) in rows {
            w.push(k, crate::hash::mix64(k), &row(v)).unwrap();
        }
        w.seal().unwrap().expect("rows were pushed")
    }

    #[test]
    fn a_sealed_page_returns_each_keys_rows_in_push_order() {
        let rows: Vec<(u64, i64)> = (0..500).map(|i| ((i * 7) % 61, i as i64)).collect();
        let page = OpenJoinPage::open(&sealed(&rows, 1 << 16)).unwrap();
        assert_eq!(page.rows(), 500);
        for key in 0..70u64 {
            let want: Vec<i64> = rows.iter().filter(|r| r.0 == key).map(|r| r.1).collect();
            assert_eq!(values(&page, key), want, "key {key}");
        }
    }

    #[test]
    fn a_deep_copied_root_indexes_its_copied_rows() {
        let rows: Vec<(u64, i64)> = (0..40).map(|i| (i % 9, i as i64)).collect();
        let page = sealed(&rows, 1 << 14);
        let (_src, root) = page.open_view().unwrap();
        let dst = BlockRef::new(1 << 14, AllocPolicy::LightweightReuse);
        let copy = root.deep_copy_to(&dst).unwrap();
        dst.set_root(&copy.downcast::<JoinPage>().unwrap());
        drop(copy);
        let copied = OpenJoinPage::open(&dst.try_seal().unwrap()).unwrap();
        let page = OpenJoinPage::open(&page).unwrap();
        for key in 0..10u64 {
            assert_eq!(values(&copied, key), values(&page, key), "key {key}");
        }
    }

    #[test]
    fn a_full_page_still_seals_its_index() {
        let _s = AllocScope::new(1 << 20);
        let mut w = JoinPageWriter::new();
        w.open(4096).unwrap();
        let mut pushed = 0u64;
        loop {
            match w.push(pushed, crate::hash::mix64(pushed), &row(pushed as i64)) {
                Ok(()) => pushed += 1,
                Err(PcError::BlockFull { .. }) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(pushed > 10, "only {pushed} rows fit");
        let page = w.seal().unwrap().expect("rows were pushed");
        assert!(page.used() <= 4096);
        let page = OpenJoinPage::open(&page).unwrap();
        assert_eq!(page.rows() as u64, pushed);
        assert_eq!(values(&page, pushed - 1), vec![pushed as i64 - 1]);
        assert!(
            values(&page, pushed).is_empty(),
            "the faulted row left no trace"
        );
        // The writer starts over with no page; an empty page seals to nothing.
        w.open(4096).unwrap();
        assert_eq!(w.rows(), 0);
        assert!(w.seal().unwrap().is_none());
    }
}
