//! The storage manager: named sets of pages, backed by the buffer pool.

use crate::catalog::Catalog;
use crate::pool::BufferPool;
use pc_object::{sync, PcError, PcResult, SealedPage};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Numeric identity of a set inside one storage manager.
pub type SetId = u64;

/// One node's storage service: a catalog of sets plus a buffer pool of
/// their pages. Cloning shares the underlying storage.
#[derive(Clone)]
pub struct StorageManager {
    inner: Arc<StorageInner>,
}

struct StorageInner {
    catalog: Arc<Catalog>,
    pool: BufferPool,
    ids: RwLock<HashMap<(String, String), SetId>>,
    pages: RwLock<HashMap<SetId, usize>>,
    next_id: AtomicU64,
    /// The directory [`StorageManager::in_temp`] made, removed when the
    /// storage drops. Last, so it drops after the pool's spill files.
    temp: Option<TempDir>,
}

/// A directory removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes the `<prefix>…_<pid>_<n>` directories under `tmp` whose process
/// no longer exists: a killed process never drops what it made there. The
/// pid is the second `_`-separated field from the right, so whatever sits
/// between `prefix` and it (a label, which may itself contain `_`) does not
/// matter; a name whose last two fields are not numbers is left alone. Only
/// where `/proc` lists processes; elsewhere every directory is left alone.
pub fn reclaim_orphaned_dirs(tmp: &Path, prefix: &str) {
    let proc = Path::new("/proc");
    if !proc.join("self").exists() {
        return;
    }
    let Ok(entries) = std::fs::read_dir(tmp) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix(prefix)) else {
            continue;
        };
        let mut fields = rest.rsplit('_');
        let (Some(n), Some(pid)) = (fields.next(), fields.next()) else {
            continue;
        };
        if n.parse::<u64>().is_err() {
            continue;
        }
        if let Ok(pid) = pid.parse::<u32>() {
            if !proc.join(pid.to_string()).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

impl StorageManager {
    /// Creates a storage manager with `pool_capacity` bytes of page cache,
    /// spilling under `dir`.
    pub fn new(catalog: Arc<Catalog>, pool_capacity: usize, dir: PathBuf) -> PcResult<Self> {
        Self::with_pressure(catalog, pool_capacity, dir, None)
    }

    /// Like [`Self::new`], with a seeded memory-pressure injection schedule
    /// armed on the pool's budget (chaos testing).
    pub fn with_pressure(
        catalog: Arc<Catalog>,
        pool_capacity: usize,
        dir: PathBuf,
        pressure: Option<pc_object::PressureSpec>,
    ) -> PcResult<Self> {
        Ok(StorageManager {
            inner: Arc::new(StorageInner {
                catalog,
                pool: BufferPool::with_pressure(pool_capacity, dir, pressure)?,
                ids: RwLock::new(HashMap::new()),
                pages: RwLock::new(HashMap::new()),
                next_id: AtomicU64::new(1),
                temp: None,
            }),
        })
    }

    /// Convenience constructor with a large cache spilling under a fresh
    /// `$TMPDIR/pcstore_<label>_<pid>_<n>` directory, which is removed when
    /// the last clone of the storage drops. Those of processes that were
    /// killed are reclaimed first ([`reclaim_orphaned_dirs`]).
    pub fn in_temp(label: &str) -> PcResult<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let tmp = std::env::temp_dir();
        reclaim_orphaned_dirs(&tmp, "pcstore_");
        let dir = tmp.join(format!("pcstore_{label}_{}_{n}", std::process::id()));
        let mut storage = Self::new(Arc::new(Catalog::new()), 1 << 30, dir.clone())?;
        if let Some(inner) = Arc::get_mut(&mut storage.inner) {
            inner.temp = Some(TempDir(dir));
        }
        Ok(storage)
    }

    /// The directory [`Self::in_temp`] spills under, if it made one.
    #[cfg(test)]
    fn temp_dir(&self) -> Option<&std::path::Path> {
        self.inner.temp.as_ref().map(|d| d.0.as_path())
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.inner.catalog
    }

    pub fn pool(&self) -> &BufferPool {
        &self.inner.pool
    }

    fn set_id(&self, db: &str, set: &str) -> SetId {
        let key = (db.to_string(), set.to_string());
        if let Some(id) = sync::read(&self.inner.ids).get(&key) {
            return *id;
        }
        let mut ids = sync::write(&self.inner.ids);
        *ids.entry(key)
            .or_insert_with(|| self.inner.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Creates a set (errors if it exists).
    pub fn create_set(&self, db: &str, set: &str) -> PcResult<()> {
        self.inner.catalog.create_set(db, set)?;
        let id = self.set_id(db, set);
        sync::write(&self.inner.pages).insert(id, 0);
        Ok(())
    }

    /// Creates the set if missing, clears it if present.
    pub fn create_or_clear_set(&self, db: &str, set: &str) -> PcResult<()> {
        self.inner.catalog.ensure_set(db, set);
        self.inner.catalog.reset_set(db, set);
        let id = self.set_id(db, set);
        sync::write(&self.inner.pages).insert(id, 0);
        self.inner.pool.drop_set(id);
        Ok(())
    }

    /// Appends a sealed page to a set.
    pub fn append_page(&self, db: &str, set: &str, page: SealedPage) -> PcResult<()> {
        if !self.inner.catalog.exists(db, set) {
            return Err(PcError::Catalog(format!("set {db}.{set} does not exist")));
        }
        let objects = count_objects(&page);
        let bytes = page.used() as u64;
        let id = self.set_id(db, set);
        let n = {
            let mut pages = sync::write(&self.inner.pages);
            let slot = pages.entry(id).or_insert(0);
            let n = *slot;
            *slot += 1;
            n
        };
        self.inner.pool.put((id, n), page)?;
        self.inner.catalog.record_append(db, set, objects, bytes);
        Ok(())
    }

    /// Number of pages stored for a set.
    pub fn page_count(&self, db: &str, set: &str) -> usize {
        let id = self.set_id(db, set);
        sync::read(&self.inner.pages).get(&id).copied().unwrap_or(0)
    }

    /// Fetches one page of a set (pinning it while the `Arc` is held).
    pub fn page(&self, db: &str, set: &str, n: usize) -> PcResult<Arc<SealedPage>> {
        let id = self.set_id(db, set);
        self.inner.pool.get((id, n))
    }

    /// Fetches all pages of a set in order.
    pub fn scan(&self, db: &str, set: &str) -> PcResult<Vec<Arc<SealedPage>>> {
        let n = self.page_count(db, set);
        (0..n).map(|i| self.page(db, set, i)).collect()
    }

    /// Evicts everything evictable to the file store (cold-start setup).
    pub fn flush_all(&self) -> PcResult<()> {
        self.inner.pool.flush_all()
    }

    /// Drops a set and its pages.
    pub fn drop_set(&self, db: &str, set: &str) {
        let id = self.set_id(db, set);
        sync::write(&self.inner.pages).remove(&id);
        self.inner.pool.drop_set(id);
        self.inner.catalog.drop_set(db, set);
    }
}

/// Counts root-vector entries on a page (for catalog statistics).
fn count_objects(page: &SealedPage) -> u64 {
    // The root of a set page is a PcVec<Handle<AnyObj>>; its length prefix
    // sits at the root offset. A page with a different root still ships;
    // we just report zero objects for it.
    let bytes = page.payload();
    let root = page.root() as usize;
    bytes
        .get(root..root + 4)
        .and_then(|len| len.try_into().ok())
        .map_or(0, |len| u32::from_le_bytes(len) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_object::{make_object, AllocScope, AnyObj, Handle, PcVec};

    fn page_with_n_objects(n: usize) -> SealedPage {
        let scope = AllocScope::new(1 << 16);
        let root = make_object::<PcVec<Handle<AnyObj>>>().unwrap();
        for i in 0..n {
            let v = make_object::<PcVec<i64>>().unwrap();
            v.push(i as i64).unwrap();
            root.push(v.erase().as_any_obj()).unwrap();
        }
        scope.block().set_root(&root);
        drop(root);
        let b = scope.block().clone();
        drop(scope);
        b.try_seal().unwrap()
    }

    #[test]
    fn set_lifecycle_and_scan() {
        let s = StorageManager::in_temp("lifecycle").unwrap();
        s.create_set("db", "xs").unwrap();
        s.append_page("db", "xs", page_with_n_objects(5)).unwrap();
        s.append_page("db", "xs", page_with_n_objects(7)).unwrap();
        assert_eq!(s.page_count("db", "xs"), 2);
        let meta = s.catalog().set_meta("db", "xs").unwrap();
        assert_eq!(meta.objects, 12);
        let pages = s.scan("db", "xs").unwrap();
        assert_eq!(pages.len(), 2);
        s.drop_set("db", "xs");
        assert!(s.append_page("db", "xs", page_with_n_objects(1)).is_err());
    }

    #[test]
    fn a_temp_storage_removes_its_directory_when_it_drops() {
        let s = StorageManager::in_temp("cleanup").unwrap();
        s.create_set("db", "xs").unwrap();
        s.append_page("db", "xs", page_with_n_objects(3)).unwrap();
        s.flush_all().unwrap();
        let dir = s
            .temp_dir()
            .expect("in_temp made a directory")
            .to_path_buf();
        assert!(dir.exists(), "{} was never made", dir.display());
        let clone = s.clone();
        drop(s);
        assert!(dir.exists(), "a live clone still spills there");
        drop(clone);
        assert!(!dir.exists(), "{} outlived its storage", dir.display());
    }

    #[test]
    fn orphaned_directories_of_dead_processes_are_reclaimed() {
        // Above the kernel's largest pid (2^22), so no such process exists.
        let dead = 999_999_999u32;
        let live = std::process::id();
        let tmp = std::env::temp_dir().join(format!("pcreclaim_{live}"));
        let names = [
            format!("pcstore_cold_{dead}_0"),
            format!("pcstore_with_under_scores_{dead}_7"),
            format!("pccluster_{dead}_3"),
            format!("pcstore_cold_{live}_0"),
            format!("pcstore_with_under_scores_{live}_1"),
            format!("pccluster_{live}_0"),
            // Not `<pid>_<n>` at the end: never touched.
            format!("pcstore_cold_{dead}"),
            format!("pcstore_{dead}_x"),
        ];
        for name in &names {
            std::fs::create_dir_all(tmp.join(name)).unwrap();
        }
        reclaim_orphaned_dirs(&tmp, "pcstore_");
        reclaim_orphaned_dirs(&tmp, "pccluster_");
        let mut left: Vec<String> = std::fs::read_dir(&tmp)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        std::fs::remove_dir_all(&tmp).unwrap();
        let mut want = names[3..].to_vec();
        want.sort();
        assert_eq!(left, want);
    }

    #[test]
    fn cold_scan_after_flush() {
        let s = StorageManager::in_temp("cold").unwrap();
        s.create_set("db", "cold").unwrap();
        for _ in 0..4 {
            s.append_page("db", "cold", page_with_n_objects(3)).unwrap();
        }
        s.flush_all().unwrap();
        let stats_before = s.pool().stats();
        let pages = s.scan("db", "cold").unwrap();
        assert_eq!(pages.len(), 4);
        let stats_after = s.pool().stats();
        assert!(
            stats_after.misses > stats_before.misses,
            "cold scan must fault pages back"
        );
    }
}
