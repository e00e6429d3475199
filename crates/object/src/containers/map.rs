//! `PcMap<K, V>`: the page-resident hash map (PC's `Map`).
//!
//! This is the container at the heart of PC's distributed aggregation
//! (§3, Appendix D.2): each worker thread pre-aggregates into `Map` objects
//! allocated on output pages, the pages are shuffled wholesale, and the
//! receiving side merges the maps — with zero serialization at any point.

use super::{alloc_array, free_array};
use crate::block::BlockRef;
use crate::error::PcResult;
use crate::handle::Handle;
use crate::traits::{stored_footprint, PcKey, PcObjType, PcValue};
use std::marker::PhantomData;

/// Open-addressing hash map stored on a page.
///
/// Payload layout: `{ len: u32, cap: u32, table: u32 }`; the table is a raw
/// array of `cap` entries, each `{ hash: u64 (MSB = occupied), key slot,
/// value slot }`, linear probed, grown at 70% load. Capacities are always
/// powers of two, so every probe step is a mask (`h & (cap - 1)`) — no
/// integer division anywhere on the probe path.
///
/// ```
/// use pc_object::{AllocScope, PcMap, make_object};
/// let _s = AllocScope::new(1 << 16);
/// let m = make_object::<PcMap<i64, f64>>().unwrap();
/// m.insert(3, 1.5).unwrap();
/// m.insert(3, 2.5).unwrap();
/// assert_eq!(m.get(&3), Some(2.5));
/// assert_eq!(m.len(), 1);
/// ```
pub struct PcMap<K: PcKey, V: PcValue>(PhantomData<fn() -> (K, V)>);

const OFF_LEN: u32 = 0;
const OFF_CAP: u32 = 4;
const OFF_TABLE: u32 = 8;

const OCCUPIED: u64 = 1 << 63;

#[inline]
fn entry_stride<K: PcKey, V: PcValue>() -> u32 {
    8 + stored_footprint::<K>() + stored_footprint::<V>()
}

impl<K: PcKey, V: PcValue> PcObjType for PcMap<K, V> {
    type View<'a>
        = &'a Handle<PcMap<K, V>>
    where
        K: 'a,
        V: 'a;

    fn type_name() -> String {
        format!("PcMap<{},{}>", K::value_tag(), V::value_tag())
    }

    fn init_size() -> u32 {
        12
    }

    fn init_at(b: &BlockRef, off: u32) -> PcResult<()> {
        b.zero_range(off, 12);
        Ok(())
    }

    fn deep_copy_obj(src: &BlockRef, soff: u32, dst: &BlockRef) -> PcResult<u32> {
        let cap = src.read_u32(soff + OFF_CAP);
        let stable = src.read_u32(soff + OFF_TABLE);
        let stride = entry_stride::<K, V>();
        let doff = dst.alloc(12, Self::type_code(), 0)?;
        Self::init_at(dst, doff)?;
        if cap == 0 {
            return Ok(doff);
        }
        let dtable = alloc_array(dst, cap * stride)?;
        for i in 0..cap {
            let se = stable + i * stride;
            let h = src.read::<u64>(se);
            if h & OCCUPIED != 0 {
                let de = dtable + i * stride;
                dst.write::<u64>(de, h);
                K::deep_copy_stored(src, se + 8, dst, de + 8)?;
                V::deep_copy_stored(
                    src,
                    se + 8 + stored_footprint::<K>(),
                    dst,
                    de + 8 + stored_footprint::<K>(),
                )?;
            }
        }
        dst.write_u32(doff + OFF_LEN, src.read_u32(soff + OFF_LEN));
        dst.write_u32(doff + OFF_CAP, cap);
        dst.write_u32(doff + OFF_TABLE, dtable);
        Ok(doff)
    }

    fn drop_obj(b: &BlockRef, off: u32) {
        let cap = b.read_u32(off + OFF_CAP);
        let table = b.read_u32(off + OFF_TABLE);
        if table == 0 {
            return;
        }
        let stride = entry_stride::<K, V>();
        if K::CONTAINS_HANDLES || V::CONTAINS_HANDLES {
            for i in 0..cap {
                let e = table + i * stride;
                if b.read::<u64>(e) & OCCUPIED != 0 {
                    K::drop_stored(b, e + 8);
                    V::drop_stored(b, e + 8 + stored_footprint::<K>());
                }
            }
        }
        free_array(b, table);
    }

    fn make_view(h: &Handle<Self>) -> Self::View<'_> {
        h
    }
}

impl<K: PcKey, V: PcValue> Handle<PcMap<K, V>> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.block().read_u32(self.offset() + OFF_LEN) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Table capacity in entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.block().read_u32(self.offset() + OFF_CAP) as usize
    }

    #[inline]
    fn table(&self) -> u32 {
        self.block().read_u32(self.offset() + OFF_TABLE)
    }

    #[inline]
    fn entry(&self, i: u32) -> u32 {
        self.table() + i * entry_stride::<K, V>()
    }

    /// Byte offset of an entry's key slot.
    #[inline]
    fn key_slot(e: u32) -> u32 {
        e + 8
    }

    /// Byte offset of an entry's value slot.
    #[inline]
    fn val_slot(e: u32) -> u32 {
        e + 8 + stored_footprint::<K>()
    }

    /// Finds the entry for `key`: returns `(entry_offset, occupied)`. The
    /// returned offset is the match when occupied, or the insertion point.
    fn probe(&self, h: u64, key: &K) -> (u32, bool) {
        let cap = self.capacity() as u32;
        debug_assert!(cap > 0 && cap.is_power_of_two());
        let mask = cap - 1;
        let marked = h | OCCUPIED;
        let b = self.block();
        let mut i = h as u32 & mask;
        loop {
            let e = self.entry(i);
            let stored = b.read::<u64>(e);
            if stored == 0 {
                return (e, false);
            }
            if stored == marked && key.eq_stored(b, Self::key_slot(e)) {
                return (e, true);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&self, want_entries: usize) -> PcResult<()> {
        let old_cap = self.capacity() as u32;
        let new_cap = (want_entries * 2).next_power_of_two().max(8) as u32;
        if new_cap <= old_cap {
            return Ok(());
        }
        let stride = entry_stride::<K, V>();
        let b = self.block();
        let new_table = alloc_array(b, new_cap * stride)?;
        let old_table = self.table();
        // Rehash by stored hash: whole entries move by byte copy — handle
        // slots hold page-relative offsets, so no refcount churn is needed.
        let new_mask = new_cap - 1;
        for i in 0..old_cap {
            let e = old_table + i * stride;
            let h = b.read::<u64>(e);
            if h & OCCUPIED == 0 {
                continue;
            }
            let mut j = (h & !OCCUPIED) as u32 & new_mask;
            loop {
                let ne = new_table + j * stride;
                if b.read::<u64>(ne) == 0 {
                    b.copy_within(e, ne, stride as usize);
                    break;
                }
                j = (j + 1) & new_mask;
            }
        }
        if old_table != 0 {
            free_array(b, old_table);
        }
        b.write_u32(self.offset() + OFF_CAP, new_cap);
        b.write_u32(self.offset() + OFF_TABLE, new_table);
        Ok(())
    }

    fn ensure_room(&self) -> PcResult<()> {
        let len = self.len();
        let cap = self.capacity();
        if cap == 0 || (len + 1) * 10 > cap * 7 {
            self.grow(len + 1)?;
        }
        Ok(())
    }

    /// Pre-sizes the table so `additional` further inserts cannot trigger a
    /// growth/rehash mid-burst — the bulk entry point the aggregation sink
    /// calls before absorbing a partition's rows. A `BlockFull` error means
    /// the page cannot hold a table that large; callers may fall back to
    /// on-demand growth (distinct keys are often far fewer than rows).
    pub fn reserve(&self, additional: usize) -> PcResult<()> {
        let want = self.len() + additional;
        if self.capacity() * 7 < want.saturating_add(1) * 10 {
            self.grow(want)?;
        }
        Ok(())
    }

    /// Inserts or replaces; the old value's references are released.
    pub fn insert(&self, key: K, value: V) -> PcResult<()> {
        self.ensure_room()?;
        let h = key.hash_val() & !OCCUPIED;
        let (e, found) = self.probe(h, &key);
        let b = self.block();
        if found {
            V::drop_stored(b, Self::val_slot(e));
            value.store(b, Self::val_slot(e))?;
        } else {
            // Store key and value BEFORE publishing the slot: a BlockFull
            // fault mid-store must leave the map consistent (a torn entry
            // with garbage slot offsets would read out of bounds later).
            key.store(b, Self::key_slot(e))?;
            value.store(b, Self::val_slot(e))?;
            b.write::<u64>(e, h | OCCUPIED);
            b.write_u32(self.offset() + OFF_LEN, self.len() as u32 + 1);
        }
        Ok(())
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &K) -> Option<V> {
        if self.capacity() == 0 {
            return None;
        }
        let h = key.hash_val() & !OCCUPIED;
        let (e, found) = self.probe(h, key);
        if found {
            Some(V::load(self.block(), Self::val_slot(e)))
        } else {
            None
        }
    }

    /// Looks up a value by a caller-computed `hash` (the probe path of the
    /// partitioned join table, which derives the slot hash once per probe
    /// and routes it through partition selection, the tag filter, and the
    /// map probe without rehashing). `hash` must equal `key.hash_val()`.
    pub fn get_hashed(&self, hash: u64, key: &K) -> Option<V> {
        if self.capacity() == 0 {
            return None;
        }
        debug_assert_eq!(hash & !OCCUPIED, key.hash_val() & !OCCUPIED);
        let (e, found) = self.probe(hash & !OCCUPIED, key);
        if found {
            Some(V::load(self.block(), Self::val_slot(e)))
        } else {
            None
        }
    }

    /// Calls `f` with the stored slot hash of every occupied entry (the
    /// OCCUPIED marker bit is stripped). This is how probe-side tag filters
    /// are built at seal time: the hashes are read back verbatim from the
    /// table, so no key is ever rehashed or materialized.
    pub fn for_each_stored_hash(&self, mut f: impl FnMut(u64)) {
        let cap = self.capacity() as u32;
        let b = self.block();
        for i in 0..cap {
            let h = b.read::<u64>(self.entry(i));
            if h & OCCUPIED != 0 {
                f(h & !OCCUPIED);
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        if self.capacity() == 0 {
            return false;
        }
        let h = key.hash_val() & !OCCUPIED;
        self.probe(h, key).1
    }

    /// The aggregation primitive: if `key` is absent, store `init()`;
    /// otherwise call `combine` with the block and the value-slot offset so
    /// the caller can fold in place (this is how PC's `AggregateComp`
    /// accumulates partial aggregates into per-partition maps).
    pub fn upsert(
        &self,
        key: K,
        init: impl FnOnce() -> PcResult<V>,
        combine: impl FnOnce(&BlockRef, u32) -> PcResult<()>,
    ) -> PcResult<()> {
        self.ensure_room()?;
        let h = key.hash_val() & !OCCUPIED;
        let (e, found) = self.probe(h, &key);
        let b = self.block();
        if found {
            combine(b, Self::val_slot(e))
        } else {
            // Publish only after key and value are fully stored (see
            // `insert` for why).
            key.store(b, Self::key_slot(e))?;
            init()?.store(b, Self::val_slot(e))?;
            b.write::<u64>(e, h | OCCUPIED);
            b.write_u32(self.offset() + OFF_LEN, self.len() as u32 + 1);
            Ok(())
        }
    }

    /// Hash-first upsert used by the aggregation engine: probes by a
    /// caller-computed `hash`, comparing stored keys with `matches`; on a
    /// miss the key is materialized by `make_key` (allocating on the map's
    /// own block) and the value by `init`. The slot is only marked occupied
    /// *after* key and value are fully stored, so a `BlockFull` fault in the
    /// middle leaves the map consistent and the operation retryable on a
    /// fresh page.
    pub fn upsert_by(
        &self,
        hash: u64,
        matches: impl Fn(&BlockRef, u32) -> bool,
        make_key: impl FnOnce(&BlockRef) -> PcResult<K>,
        init: impl FnOnce(&BlockRef) -> PcResult<V>,
        combine: impl FnOnce(&BlockRef, u32) -> PcResult<()>,
    ) -> PcResult<()> {
        self.ensure_room()?;
        let h = hash & !OCCUPIED;
        let b = self.block();
        let cap = self.capacity() as u32;
        let mask = cap - 1;
        let marked = h | OCCUPIED;
        let mut i = h as u32 & mask;
        loop {
            let e = self.entry(i);
            let stored = b.read::<u64>(e);
            if stored == 0 {
                // Miss: store key then value, then publish the slot.
                let key = make_key(b)?;
                key.store(b, Self::key_slot(e))?;
                let val = init(b)?;
                val.store(b, Self::val_slot(e))?;
                b.write::<u64>(e, marked);
                b.write_u32(self.offset() + OFF_LEN, self.len() as u32 + 1);
                return Ok(());
            }
            if stored == marked && matches(b, Self::key_slot(e)) {
                return combine(b, Self::val_slot(e));
            }
            i = (i + 1) & mask;
        }
    }

    /// Pre-masking reference implementation of [`upsert_by`]: identical
    /// semantics, but the probe start is computed with an integer division
    /// (`hash % cap`) the way the row-at-a-time engine did before probing
    /// went mask-based. Kept only as the reference differential tests
    /// (here and in `pc-lambda`) compare against; not a public API surface.
    ///
    /// [`upsert_by`]: Self::upsert_by
    #[doc(hidden)]
    pub fn upsert_by_modref(
        &self,
        hash: u64,
        matches: impl Fn(&BlockRef, u32) -> bool,
        make_key: impl FnOnce(&BlockRef) -> PcResult<K>,
        init: impl FnOnce(&BlockRef) -> PcResult<V>,
        combine: impl FnOnce(&BlockRef, u32) -> PcResult<()>,
    ) -> PcResult<()> {
        self.ensure_room()?;
        let h = hash & !OCCUPIED;
        let b = self.block();
        let cap = self.capacity() as u32;
        let marked = h | OCCUPIED;
        let mut i = (h % cap as u64) as u32;
        loop {
            let e = self.entry(i);
            let stored = b.read::<u64>(e);
            if stored == 0 {
                let key = make_key(b)?;
                key.store(b, Self::key_slot(e))?;
                let val = init(b)?;
                val.store(b, Self::val_slot(e))?;
                b.write::<u64>(e, marked);
                b.write_u32(self.offset() + OFF_LEN, self.len() as u32 + 1);
                return Ok(());
            }
            if stored == marked && matches(b, Self::key_slot(e)) {
                return combine(b, Self::val_slot(e));
            }
            i += 1;
            if i == cap {
                i = 0;
            }
        }
    }

    /// Grouped bulk upsert: folds a whole partition bucket of rows into the
    /// map in one call, so consecutive probes stay on this map's (hot) table
    /// instead of ping-ponging between partitions. `hashes[done..]` are the
    /// rows still to absorb; every per-row closure receives the row's index
    /// into `hashes` so callers can look up keys/records in their own
    /// scratch buffers.
    ///
    /// The capacity, mask, and block are hoisted out of the row loop — a row
    /// re-derives them only after a growth. `done` advances past each row as
    /// it completes, which makes the operation resumable: on `BlockFull` the
    /// caller seals the page, starts a fresh one, and calls again; completed
    /// rows are never re-applied. Slots publish only after key and value are
    /// fully stored (see [`upsert_by`]), so a mid-row fault leaves the map
    /// consistent.
    ///
    /// [`upsert_by`]: Self::upsert_by
    pub fn upsert_batch_by(
        &self,
        hashes: &[u64],
        done: &mut usize,
        mut matches: impl FnMut(usize, &BlockRef, u32) -> bool,
        mut make_key: impl FnMut(usize, &BlockRef) -> PcResult<K>,
        mut init: impl FnMut(usize, &BlockRef) -> PcResult<V>,
        mut combine: impl FnMut(usize, &BlockRef, u32) -> PcResult<()>,
    ) -> PcResult<()> {
        let b = self.block();
        let stride = entry_stride::<K, V>();
        let kfoot = stored_footprint::<K>();
        let n = hashes.len();
        // The table geometry (capacity, mask, table base, length) is hoisted
        // out of the row loop and re-derived only after a growth — the hot
        // hit path is: load hash, mask, read entry, compare, combine.
        'table: loop {
            let cap = self.capacity() as u32;
            if cap == 0 {
                if *done == n {
                    return Ok(());
                }
                self.grow(1)?;
                continue 'table;
            }
            let mask = cap - 1;
            let table = self.table();
            let mut len = self.len();
            while *done < n {
                let i = *done;
                let h = hashes[i] & !OCCUPIED;
                let marked = h | OCCUPIED;
                let mut idx = h as u32 & mask;
                loop {
                    let e = table + idx * stride;
                    let stored = b.read::<u64>(e);
                    // Hit first: pre-aggregation is combine-dominated.
                    if stored == marked && matches(i, b, e + 8) {
                        combine(i, b, e + 8 + kfoot)?;
                        break;
                    }
                    if stored == 0 {
                        // Miss: make room first (a growth rehashes and moves
                        // the insertion point), then re-probe and insert.
                        if (len + 1) * 10 > cap as usize * 7 {
                            self.grow(len + 1)?;
                            continue 'table;
                        }
                        let key = make_key(i, b)?;
                        key.store(b, e + 8)?;
                        let val = init(i, b)?;
                        val.store(b, e + 8 + kfoot)?;
                        b.write::<u64>(e, marked);
                        len += 1;
                        b.write_u32(self.offset() + OFF_LEN, len as u32);
                        break;
                    }
                    idx = (idx + 1) & mask;
                }
                *done = i + 1;
            }
            return Ok(());
        }
    }

    /// Page-at-a-time merge: folds every entry of `src` (a map of the same
    /// type, typically opened from a shuffled page) into this map. Stored
    /// entry hashes are reused verbatim (no per-entry rehash), keys are
    /// compared stored-to-stored, and a first-sighted key is adopted by deep
    /// copy of its key and value slots; `combine(dst_block, dst_val_slot,
    /// src_block, src_val_slot)` folds entries whose key already exists.
    ///
    /// `cursor` is the `src` slot index to resume from: on `BlockFull` the
    /// caller grows its block (or rolls to a bigger page) and calls again —
    /// entries before the cursor are never re-merged.
    pub fn merge_from(
        &self,
        src: &Handle<PcMap<K, V>>,
        cursor: &mut u32,
        mut combine: impl FnMut(&BlockRef, u32, &BlockRef, u32) -> PcResult<()>,
    ) -> PcResult<()> {
        let sb = src.block();
        let db = self.block();
        let scap = src.capacity() as u32;
        // One growth for the whole page where it fits; otherwise grow on
        // demand (the overlap between src and dst keys may be large).
        if *cursor == 0 && !src.is_empty() {
            match self.reserve(src.len()) {
                Err(crate::error::PcError::BlockFull { .. }) => {}
                r => r?,
            }
        }
        'entries: while *cursor < scap {
            let se = src.entry(*cursor);
            let stored = sb.read::<u64>(se);
            if stored & OCCUPIED == 0 {
                *cursor += 1;
                continue;
            }
            let h = stored & !OCCUPIED;
            'probe: loop {
                let cap = self.capacity() as u32;
                if cap == 0 {
                    self.grow(1)?;
                    continue 'probe;
                }
                let mask = cap - 1;
                let mut idx = h as u32 & mask;
                loop {
                    let e = self.entry(idx);
                    let dstored = db.read::<u64>(e);
                    if dstored == 0 {
                        let len = self.len();
                        if (len + 1) * 10 > cap as usize * 7 {
                            self.grow(len + 1)?;
                            continue 'probe;
                        }
                        // First sighting: adopt key and partial value by
                        // deep copy (crossing blocks per §6.4), then publish.
                        K::deep_copy_stored(sb, Self::key_slot(se), db, Self::key_slot(e))?;
                        V::deep_copy_stored(sb, Self::val_slot(se), db, Self::val_slot(e))?;
                        db.write::<u64>(e, stored);
                        db.write_u32(self.offset() + OFF_LEN, len as u32 + 1);
                        *cursor += 1;
                        continue 'entries;
                    }
                    if dstored == stored
                        && K::stored_eq(db, Self::key_slot(e), sb, Self::key_slot(se))
                    {
                        combine(db, Self::val_slot(e), sb, Self::val_slot(se))?;
                        *cursor += 1;
                        continue 'entries;
                    }
                    idx = (idx + 1) & mask;
                }
            }
        }
        Ok(())
    }

    /// Raw slot access for merge loops: calls `f(block, key_slot, val_slot)`
    /// for every occupied entry.
    pub fn for_each_slot(
        &self,
        mut f: impl FnMut(&BlockRef, u32, u32) -> PcResult<()>,
    ) -> PcResult<()> {
        let cap = self.capacity() as u32;
        let b = self.block();
        for i in 0..cap {
            let e = self.entry(i);
            if b.read::<u64>(e) & OCCUPIED != 0 {
                f(b, Self::key_slot(e), Self::val_slot(e))?;
            }
        }
        Ok(())
    }

    /// Like [`for_each_slot`], but also passes each entry's stored hash
    /// (OCCUPIED bit stripped). The aggregation finalizer uses the hash to
    /// emit groups in a canonical order independent of insertion history —
    /// out-of-core runs absorb rows wave by wave, so slot order alone would
    /// leak the spill schedule into the output bytes.
    ///
    /// [`for_each_slot`]: Self::for_each_slot
    pub fn for_each_slot_hashed(
        &self,
        mut f: impl FnMut(u64, &BlockRef, u32, u32) -> PcResult<()>,
    ) -> PcResult<()> {
        let cap = self.capacity() as u32;
        let b = self.block();
        for i in 0..cap {
            let e = self.entry(i);
            let h = b.read::<u64>(e);
            if h & OCCUPIED != 0 {
                f(h & !OCCUPIED, b, Self::key_slot(e), Self::val_slot(e))?;
            }
        }
        Ok(())
    }

    /// Calls `f(key, value)` for every entry (slot order).
    pub fn for_each(&self, mut f: impl FnMut(K, V)) {
        let cap = self.capacity() as u32;
        let b = self.block();
        for i in 0..cap {
            let e = self.entry(i);
            if b.read::<u64>(e) & OCCUPIED != 0 {
                f(K::load(b, Self::key_slot(e)), V::load(b, Self::val_slot(e)));
            }
        }
    }

    /// Iterator over `(key, value)` pairs.
    pub fn iter(&self) -> PcMapIter<'_, K, V> {
        PcMapIter { map: self, i: 0 }
    }

    /// Removes a key, releasing its references. Returns whether it existed.
    ///
    /// Uses backward-shift deletion to keep probe chains intact.
    pub fn remove(&self, key: &K) -> bool {
        if self.capacity() == 0 {
            return false;
        }
        let h = key.hash_val() & !OCCUPIED;
        let (e, found) = self.probe(h, key);
        if !found {
            return false;
        }
        let b = self.block();
        K::drop_stored(b, Self::key_slot(e));
        V::drop_stored(b, Self::val_slot(e));
        let cap = self.capacity() as u32;
        let mask = cap - 1;
        let stride = entry_stride::<K, V>();
        let table = self.table();
        let mut hole = (e - table) / stride;
        let mut i = (hole + 1) & mask;
        loop {
            let ie = table + i * stride;
            let ih = b.read::<u64>(ie);
            if ih & OCCUPIED == 0 {
                break;
            }
            let home = (ih & !OCCUPIED) as u32 & mask;
            // Shift back if the element's home position lies outside
            // (hole, i] in circular order.
            let dist_home = (i + cap - home) & mask;
            let dist_hole = (i + cap - hole) & mask;
            if dist_home >= dist_hole {
                b.copy_within(ie, table + hole * stride, stride as usize);
                hole = i;
            }
            i = (i + 1) & mask;
        }
        b.write::<u64>(table + hole * stride, 0);
        b.write_u32(self.offset() + OFF_LEN, self.len() as u32 - 1);
        true
    }
}

/// Iterator over map entries.
pub struct PcMapIter<'a, K: PcKey, V: PcValue> {
    map: &'a Handle<PcMap<K, V>>,
    i: u32,
}

impl<K: PcKey, V: PcValue> Iterator for PcMapIter<'_, K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        let cap = self.map.capacity() as u32;
        let b = self.map.block();
        while self.i < cap {
            let e = self.map.entry(self.i);
            self.i += 1;
            if b.read::<u64>(e) & OCCUPIED != 0 {
                return Some((
                    K::load(b, Handle::<PcMap<K, V>>::key_slot(e)),
                    V::load(b, Handle::<PcMap<K, V>>::val_slot(e)),
                ));
            }
        }
        None
    }
}
