//! The buffer pool (§2, Appendix D.1).
//!
//! Pages live in RAM as shared [`SealedPage`]s; under memory pressure,
//! unpinned pages are evicted to the user-level file store (one file per
//! page) and faulted back on access. Eviction and reload move raw page
//! bytes — never a serializer. A page is *pinned* while anyone outside the
//! pool holds its `Arc`; pinned pages are never evicted (the paper's rule
//! that input pages stay buffered while vector lists built from them are in
//! flight).
//!
//! The pool also arbitrates *operator* working memory: its capacity backs a
//! shared [`MemoryBudget`] that join builds and aggregation sinks reserve
//! against, and operators that lose a reservation spill page chains through
//! a [`SpillSet`] — a pool-managed spill namespace whose files are tracked
//! internally, so an early abort can never leak them.

use pc_object::{sync, MemoryBudget, PageSpiller, PcError, PcResult, PressureSpec, SealedPage};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Identifies one page of one set.
pub type PageKey = (u64, usize); // (set id, page number)

/// Set ids at or above this base are operator spill sets (see
/// [`BufferPool::spill_set`]); the storage manager's catalog ids stay far
/// below it, so spill files are recognizable by name alone.
const SPILL_SET_BASE: u64 = 1 << 32;

/// Buffer pool statistics (exposed for the hot/cold storage experiments and
/// the out-of-core workload tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Operator pages spilled through a [`SpillSet`] (grace-style spilling),
    /// as distinct from LRU `evictions` of stored-set pages.
    pub spills: u64,
    /// Total bytes written by operator spills.
    pub bytes_spilled: u64,
    pub resident_bytes: usize,
    pub resident_pages: usize,
}

/// A resident page plus its recency stamp.
struct Resident {
    page: Arc<SealedPage>,
    /// Generation stamp: monotonically increasing, bumped on every touch.
    /// The LRU victim is simply the unpinned page with the smallest stamp —
    /// hits are O(1) (one counter bump), and only eviction scans.
    stamp: u64,
}

struct PoolInner {
    resident: HashMap<PageKey, Resident>,
    /// Every page number ever materialized per set (resident or on disk).
    /// `drop_set` walks this — never a caller-supplied count — so no spill
    /// or eviction file can outlive its set.
    set_keys: HashMap<u64, HashSet<usize>>,
    /// Next generation stamp to hand out.
    tick: u64,
    used_bytes: usize,
    stats: PoolStats,
}

impl PoolInner {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn track(&mut self, key: PageKey) {
        self.set_keys.entry(key.0).or_default().insert(key.1);
    }
}

struct PoolShared {
    capacity: usize,
    dir: PathBuf,
    budget: MemoryBudget,
    next_spill_set: AtomicU64,
    inner: Mutex<PoolInner>,
}

/// A capacity-bounded page cache with spill-to-file eviction. Cloning is
/// cheap and shares the pool.
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` bytes of resident pages,
    /// spilling into `dir`. The same `capacity` backs the pool's operator
    /// [`MemoryBudget`]: reserved operator bytes displace cached pages.
    pub fn new(capacity: usize, dir: PathBuf) -> PcResult<Self> {
        Self::with_pressure(capacity, dir, None)
    }

    /// Like [`new`](Self::new), with seeded memory-pressure injection armed
    /// on the operator budget (chaos testing).
    pub fn with_pressure(
        capacity: usize,
        dir: PathBuf,
        pressure: Option<PressureSpec>,
    ) -> PcResult<Self> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| PcError::Catalog(format!("cannot create pool dir: {e}")))?;
        Ok(BufferPool {
            shared: Arc::new(PoolShared {
                capacity,
                dir,
                budget: MemoryBudget::with_pressure(capacity, pressure),
                next_spill_set: AtomicU64::new(SPILL_SET_BASE),
                inner: Mutex::new(PoolInner {
                    resident: HashMap::new(),
                    set_keys: HashMap::new(),
                    tick: 0,
                    used_bytes: 0,
                    stats: PoolStats::default(),
                }),
            }),
        })
    }

    /// The pool's byte capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// The operator memory budget backed by this pool's capacity. Cloning
    /// the returned handle shares the ledger.
    pub fn budget(&self) -> MemoryBudget {
        self.shared.budget.clone()
    }

    fn file_for(&self, key: PageKey) -> PathBuf {
        self.shared
            .dir
            .join(format!("set{}_page{}.pcpage", key.0, key.1))
    }

    /// Inserts a freshly produced page, evicting cold pages if needed.
    pub fn put(&self, key: PageKey, page: SealedPage) -> PcResult<Arc<SealedPage>> {
        let page = Arc::new(page);
        let mut inner = sync::lock(&self.shared.inner);
        inner.track(key);
        inner.used_bytes += page.used();
        let stamp = inner.touch();
        let replaced = inner.resident.insert(
            key,
            Resident {
                page: page.clone(),
                stamp,
            },
        );
        if let Some(old) = replaced {
            // Re-inserting an already-resident key (or losing a concurrent
            // fault race) must not leak phantom bytes into the accounting.
            inner.used_bytes -= old.page.used();
        }
        self.evict_if_needed(&mut inner)?;
        Ok(page)
    }

    /// Fetches a page, faulting it from the file store if evicted. A hit is
    /// O(1): one hash lookup plus a generation-stamp bump.
    pub fn get(&self, key: PageKey) -> PcResult<Arc<SealedPage>> {
        {
            let mut inner = sync::lock(&self.shared.inner);
            let stamp = inner.touch();
            if let Some(r) = inner.resident.get_mut(&key) {
                r.stamp = stamp;
                let page = r.page.clone();
                inner.stats.hits += 1;
                return Ok(page);
            }
            inner.stats.misses += 1;
        }
        // Fault from file: one read into the page's own buffer, no decode.
        let page = Arc::new(self.read_file(key, "page")?);
        let mut inner = sync::lock(&self.shared.inner);
        inner.track(key);
        inner.used_bytes += page.used();
        let stamp = inner.touch();
        let replaced = inner.resident.insert(
            key,
            Resident {
                page: page.clone(),
                stamp,
            },
        );
        if let Some(old) = replaced {
            // Two threads can race the same fault; only one copy stays
            // resident, so only one copy's bytes may count.
            inner.used_bytes -= old.page.used();
        }
        self.evict_if_needed(&mut inner)?;
        Ok(page)
    }

    /// Drops all pages of a set (and their spill files). The page list is
    /// the pool's own key tracking — callers cannot under-report a count and
    /// strand files on disk.
    pub fn drop_set(&self, set_id: u64) {
        let mut inner = sync::lock(&self.shared.inner);
        let Some(pages) = inner.set_keys.remove(&set_id) else {
            return;
        };
        for n in pages {
            let key = (set_id, n);
            if let Some(r) = inner.resident.remove(&key) {
                inner.used_bytes -= r.page.used();
            }
            let _ = std::fs::remove_file(self.file_for(key));
        }
    }

    /// Forces every unpinned page out to files (cold-storage experiments),
    /// oldest first.
    pub fn flush_all(&self) -> PcResult<()> {
        let mut inner = sync::lock(&self.shared.inner);
        let mut keys: Vec<(u64, PageKey)> =
            inner.resident.iter().map(|(k, r)| (r.stamp, *k)).collect();
        keys.sort_unstable();
        for (_, key) in keys {
            self.evict_one(&mut inner, key)?;
        }
        Ok(())
    }

    fn evict_if_needed(&self, inner: &mut PoolInner) -> PcResult<()> {
        // Operator reservations displace cached pages: the cache may only
        // keep what the budget has not granted away.
        let target = self
            .shared
            .capacity
            .saturating_sub(self.shared.budget.reserved());
        while inner.used_bytes > target {
            // The LRU victim: smallest stamp among unpinned pages. Only the
            // eviction path scans; hits never do.
            let victim = inner
                .resident
                .iter()
                .filter(|(_, r)| Arc::strong_count(&r.page) == 1)
                .min_by_key(|(_, r)| r.stamp)
                .map(|(k, _)| *k);
            match victim {
                Some(key) => self.evict_one(inner, key)?,
                None => break, // everything pinned; allow temporary overshoot
            }
        }
        Ok(())
    }

    fn evict_one(&self, inner: &mut PoolInner, key: PageKey) -> PcResult<()> {
        let Some(r) = inner.resident.get(&key) else {
            return Ok(());
        };
        if Arc::strong_count(&r.page) > 1 {
            return Ok(()); // pinned
        }
        let path = self.file_for(key);
        if !path.exists() {
            std::fs::write(&path, r.page.payload())
                .map_err(|e| PcError::Catalog(format!("evict write failed: {e}")))?;
        }
        if let Some(r) = inner.resident.remove(&key) {
            inner.used_bytes -= r.page.used();
            inner.stats.evictions += 1;
        }
        Ok(())
    }

    /// Reads `key`'s file (written from [`SealedPage::payload`]) straight
    /// into a page buffer; `what` names the page in a missing-file error. A
    /// damaged file (truncated, or a header claiming more bytes than it
    /// holds) is a [`PcError::InvalidPage`].
    fn read_file(&self, key: PageKey, what: &str) -> PcResult<SealedPage> {
        let open = || -> std::io::Result<(std::fs::File, u64)> {
            let file = std::fs::File::open(self.file_for(key))?;
            let len = file.metadata()?.len();
            Ok((file, len))
        };
        let (mut file, len) =
            open().map_err(|e| PcError::Catalog(format!("{what} {key:?} not on disk: {e}")))?;
        // An oversized length is refused by `read_from` before it allocates.
        SealedPage::read_from(&mut file, usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// Writes a page straight to the file store without caching it
    /// (initial bulk loads in cold-storage experiments).
    pub fn write_through(&self, key: PageKey, page: &SealedPage) -> PcResult<()> {
        sync::lock(&self.shared.inner).track(key);
        std::fs::write(self.file_for(key), page.payload())
            .map_err(|e| PcError::Catalog(format!("write-through failed: {e}")))
    }

    /// Opens a fresh spill namespace: operators hand the returned
    /// [`SpillSet`] around as `Arc<dyn PageSpiller>`. Every spilled page is
    /// key-tracked by the pool, and the whole namespace is reclaimed when
    /// the `SpillSet` drops — including on an abort partway through a stage.
    pub fn spill_set(&self) -> SpillSet {
        SpillSet {
            pool: self.clone(),
            set_id: self.shared.next_spill_set.fetch_add(1, Ordering::Relaxed),
            next_page: AtomicUsize::new(0),
        }
    }

    /// Number of spill-set files currently on disk (zero after every clean
    /// run — the leak gate for the out-of-core workload and chaos tests).
    pub fn leaked_spill_files(&self) -> usize {
        let Ok(entries) = std::fs::read_dir(&self.shared.dir) else {
            return 0;
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.strip_prefix("set")
                    .and_then(|rest| rest.split('_').next())
                    .and_then(|id| id.parse::<u64>().ok())
                    .is_some_and(|id| id >= SPILL_SET_BASE)
            })
            .count()
    }

    pub fn stats(&self) -> PoolStats {
        let inner = sync::lock(&self.shared.inner);
        PoolStats {
            resident_bytes: inner.used_bytes,
            resident_pages: inner.resident.len(),
            ..inner.stats
        }
    }
}

/// A pool-backed spill target for out-of-core operators. Pages written here
/// bypass the resident cache (a spilled chain is cold by definition); they
/// are reloaded page-at-a-time on the second pass and the whole namespace
/// is deleted when the set drops.
pub struct SpillSet {
    pool: BufferPool,
    set_id: u64,
    next_page: AtomicUsize,
}

impl SpillSet {
    /// The spill namespace's set id (useful in tests and diagnostics).
    pub fn set_id(&self) -> u64 {
        self.set_id
    }
}

impl PageSpiller for SpillSet {
    fn spill(&self, page: &SealedPage) -> PcResult<u64> {
        let n = self.next_page.fetch_add(1, Ordering::Relaxed);
        let key = (self.set_id, n);
        self.pool.write_through(key, page)?;
        let mut inner = sync::lock(&self.pool.shared.inner);
        inner.stats.spills += 1;
        inner.stats.bytes_spilled += page.used() as u64;
        Ok(n as u64)
    }

    fn reload(&self, token: u64) -> PcResult<SealedPage> {
        let key = (self.set_id, token as usize);
        self.pool.read_file(key, "spilled page")
    }

    fn discard(&self, token: u64) {
        let key = (self.set_id, token as usize);
        let _ = std::fs::remove_file(self.pool.file_for(key));
        // The key stays tracked; a tracked-but-deleted file makes drop_set's
        // remove_file a no-op, which is fine.
    }
}

impl Drop for SpillSet {
    fn drop(&mut self) {
        self.pool.drop_set(self.set_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_object::{make_object, AllocScope, PcVec};

    fn page_of(vals: &[f64]) -> SealedPage {
        let scope = AllocScope::new(1 << 14);
        let v = make_object::<PcVec<f64>>().unwrap();
        v.extend_from_slice(vals).unwrap();
        scope.block().set_root(&v);
        drop(v);
        let b = scope.block().clone();
        drop(scope);
        b.try_seal().unwrap()
    }

    #[test]
    fn eviction_and_refault_roundtrip() {
        let dir = std::env::temp_dir().join(format!("pcpool_test_{}", std::process::id()));
        let pool = BufferPool::new(8 * 1024, dir.clone()).unwrap();
        // Insert pages well beyond capacity.
        for i in 0..20 {
            pool.put((1, i), page_of(&[i as f64; 256])).unwrap();
        }
        let s = pool.stats();
        assert!(s.evictions > 0, "pool must evict beyond capacity");
        // Every page must still be readable (faulted from files).
        for i in 0..20 {
            let p = pool.get((1, i)).unwrap();
            let (_b, root) = SealedPage::from_bytes(&p.to_bytes())
                .unwrap()
                .open()
                .unwrap();
            let v = root.downcast::<PcVec<f64>>().unwrap();
            assert_eq!(v.get(0), i as f64);
        }
        pool.drop_set(1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reinserting_a_resident_key_does_not_leak_accounting() {
        let dir = std::env::temp_dir().join(format!("pcpool_reins_{}", std::process::id()));
        let pool = BufferPool::new(1 << 20, dir.clone()).unwrap();
        let once = pool.put((5, 0), page_of(&[1.0; 64])).unwrap();
        let used_once = pool.stats().resident_bytes;
        drop(once);
        // Re-inserting the same key (the shape of a lost fault race) must
        // replace the resident page, not double-count its bytes.
        let _again = pool.put((5, 0), page_of(&[2.0; 64])).unwrap();
        assert_eq!(pool.stats().resident_bytes, used_once);
        assert_eq!(pool.stats().resident_pages, 1);
        pool.drop_set(5);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn hits_refresh_recency_and_eviction_follows_lru_order() {
        let dir = std::env::temp_dir().join(format!("pcpool_lru_{}", std::process::id()));
        // Size the pool to hold exactly three of our test pages, so the
        // fourth put evicts exactly one victim.
        let probe = page_of(&[0.0; 128]);
        let sz = probe.used();
        let pool = BufferPool::new(3 * sz + sz / 2, dir.clone()).unwrap();
        for i in 0..3 {
            // Drop the returned Arc immediately: pages are unpinned.
            pool.put((9, i), page_of(&[i as f64; 128])).unwrap();
        }
        // Touch page 0 on the hit path: it must become the most recent.
        let _ = pool.get((9, 0)).unwrap();
        // Pressure: page 1 is now the least recently used and must go.
        pool.put((9, 3), page_of(&[3.0; 128])).unwrap();
        let s = pool.stats();
        assert_eq!(s.evictions, 1, "exactly one page over capacity");
        let hits_before = s.hits;
        let _ = pool.get((9, 0)).unwrap(); // refreshed → still resident
        let _ = pool.get((9, 2)).unwrap(); // newer than 1 → still resident
        assert_eq!(pool.stats().hits, hits_before + 2);
        let misses_before = pool.stats().misses;
        let _ = pool.get((9, 1)).unwrap(); // the LRU victim → faulted back
        assert_eq!(pool.stats().misses, misses_before + 1);
        pool.drop_set(9);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let dir = std::env::temp_dir().join(format!("pcpool_pin_{}", std::process::id()));
        let pool = BufferPool::new(4 * 1024, dir.clone()).unwrap();
        let pinned = pool.put((2, 0), page_of(&[7.0; 128])).unwrap();
        for i in 1..10 {
            pool.put((2, i), page_of(&[i as f64; 128])).unwrap();
        }
        // The pinned page must still be resident (we hold its Arc).
        let again = pool.get((2, 0)).unwrap();
        assert!(
            Arc::ptr_eq(&pinned, &again),
            "pinned page must not be evicted"
        );
        pool.drop_set(2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn operator_reservations_displace_cached_pages() {
        let dir = std::env::temp_dir().join(format!("pcpool_budget_{}", std::process::id()));
        let probe = page_of(&[0.0; 128]);
        let sz = probe.used();
        let pool = BufferPool::new(4 * sz, dir.clone()).unwrap();
        for i in 0..3 {
            pool.put((3, i), page_of(&[i as f64; 128])).unwrap();
        }
        assert_eq!(pool.stats().evictions, 0);
        // Reserving half the capacity squeezes the cache on the next touch.
        let g = pool.budget().reserve(2 * sz).unwrap();
        pool.put((3, 3), page_of(&[3.0; 128])).unwrap();
        let s = pool.stats();
        assert!(
            s.evictions >= 2,
            "grant must displace cached pages, evictions = {}",
            s.evictions
        );
        assert!(s.resident_bytes + pool.budget().reserved() <= pool.capacity());
        drop(g);
        pool.drop_set(3);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn spill_set_tracks_and_reclaims_its_files() {
        let dir = std::env::temp_dir().join(format!("pcpool_spill_{}", std::process::id()));
        let pool = BufferPool::new(1 << 20, dir.clone()).unwrap();
        let spiller = pool.spill_set();
        let page = page_of(&[42.0; 64]);
        let want = page.to_bytes();
        let t0 = spiller.spill(&page).unwrap();
        let t1 = spiller.spill(&page_of(&[7.0; 64])).unwrap();
        assert_ne!(t0, t1);
        assert_eq!(pool.leaked_spill_files(), 2);
        let back = spiller.reload(t0).unwrap();
        assert_eq!(back.to_bytes(), want);
        let s = pool.stats();
        assert_eq!(s.spills, 2);
        assert!(s.bytes_spilled > 0);
        // Dropping the namespace reclaims every file — even ones never
        // reloaded (the early-abort shape).
        drop(spiller);
        assert_eq!(pool.leaked_spill_files(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn damaged_page_files_are_errors_not_panics() {
        let dir = std::env::temp_dir().join(format!("pcpool_damaged_{}", std::process::id()));
        let pool = BufferPool::new(1 << 20, dir.clone()).unwrap();
        let spiller = pool.spill_set();
        let page = page_of(&[5.0; 64]);
        let want = page.payload().to_vec();
        let good = spiller.spill(&page).unwrap();
        assert_eq!(spiller.reload(good).unwrap().payload(), &want[..]);
        pool.write_through((4, 0), &page).unwrap();
        assert_eq!(pool.get((4, 0)).unwrap().payload(), &want[..]);

        let mut overclaims = want.clone();
        overclaims[4..8].copy_from_slice(&(want.len() as u32 + 1).to_le_bytes());
        let damaged = [
            want[..want.len() / 2].to_vec(), // truncated mid-page
            want[..10].to_vec(),             // truncated inside the header
            overclaims,                      // header `used` exceeds the length
        ];
        for (i, bytes) in damaged.iter().enumerate() {
            let token = spiller.spill(&page).unwrap();
            std::fs::write(pool.file_for((spiller.set_id(), token as usize)), bytes).unwrap();
            let reloaded = spiller.reload(token);
            assert!(
                matches!(reloaded, Err(PcError::InvalidPage(_))),
                "reload of damaged file {i}: {reloaded:?}"
            );
            let key = (4, i + 1);
            pool.write_through(key, &page).unwrap();
            std::fs::write(pool.file_for(key), bytes).unwrap();
            let faulted = pool.get(key);
            assert!(
                matches!(faulted, Err(PcError::InvalidPage(_))),
                "get of damaged file {i}: {faulted:?}"
            );
        }
        pool.drop_set(4);
        drop(spiller);
        let _ = std::fs::remove_dir_all(dir);
    }
}
