//! The catalog manager (§2, §6.3, Appendix D.1).
//!
//! The master catalog tracks databases, sets, and registered object types.
//! Worker front-end processes keep a *local* catalog that faults missing
//! entries from the master — in the original system that fault ships a
//! compiled `.so` and calls `getVTablePtr()`; here the vtables live in the
//! process-wide registry, and [`WorkerTypeCatalog`] reproduces the
//! fetch-on-miss protocol (and its statistics) faithfully.

use pc_object::{registry, sync, PcError, PcResult, TypeCode};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Metadata about one stored set.
#[derive(Debug, Clone, Default)]
pub struct SetMeta {
    pub db: String,
    pub set: String,
    /// Number of stored pages.
    pub pages: usize,
    /// Total objects across pages.
    pub objects: u64,
    /// Total bytes across page payloads.
    pub bytes: u64,
}

/// The master catalog: system metadata served to every node.
#[derive(Default)]
pub struct Catalog {
    sets: RwLock<HashMap<(String, String), SetMeta>>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn create_set(&self, db: &str, set: &str) -> PcResult<()> {
        let mut sets = sync::write(&self.sets);
        let key = (db.to_string(), set.to_string());
        if sets.contains_key(&key) {
            return Err(PcError::Catalog(format!("set {db}.{set} already exists")));
        }
        sets.insert(
            key,
            SetMeta {
                db: db.to_string(),
                set: set.to_string(),
                ..Default::default()
            },
        );
        Ok(())
    }

    pub fn ensure_set(&self, db: &str, set: &str) {
        let mut sets = sync::write(&self.sets);
        sets.entry((db.to_string(), set.to_string()))
            .or_insert_with(|| SetMeta {
                db: db.to_string(),
                set: set.to_string(),
                ..Default::default()
            });
    }

    pub fn drop_set(&self, db: &str, set: &str) {
        sync::write(&self.sets).remove(&(db.to_string(), set.to_string()));
    }

    pub fn set_meta(&self, db: &str, set: &str) -> Option<SetMeta> {
        sync::read(&self.sets)
            .get(&(db.to_string(), set.to_string()))
            .cloned()
    }

    pub fn exists(&self, db: &str, set: &str) -> bool {
        sync::read(&self.sets).contains_key(&(db.to_string(), set.to_string()))
    }

    pub fn record_append(&self, db: &str, set: &str, objects: u64, bytes: u64) {
        if let Some(m) = sync::write(&self.sets).get_mut(&(db.to_string(), set.to_string())) {
            m.pages += 1;
            m.objects += objects;
            m.bytes += bytes;
        }
    }

    pub fn reset_set(&self, db: &str, set: &str) {
        if let Some(m) = sync::write(&self.sets).get_mut(&(db.to_string(), set.to_string())) {
            m.pages = 0;
            m.objects = 0;
            m.bytes = 0;
        }
    }

    pub fn list_sets(&self) -> Vec<SetMeta> {
        let mut v: Vec<SetMeta> = sync::read(&self.sets).values().cloned().collect();
        v.sort_by(|a, b| a.db.cmp(&b.db).then_with(|| a.set.cmp(&b.set)));
        v
    }
}

/// A worker's local type catalog: resolves type codes, faulting unknown ones
/// from the master (the `.so`-shipping protocol of §6.3).
pub struct WorkerTypeCatalog {
    known: RwLock<HashSet<TypeCode>>,
    /// How many times a missing type had to be fetched from the master.
    fetches: AtomicU64,
}

impl Default for WorkerTypeCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerTypeCatalog {
    pub fn new() -> Self {
        WorkerTypeCatalog {
            known: RwLock::new(HashSet::new()),
            fetches: AtomicU64::new(0),
        }
    }

    /// Resolves a type code: a hit on the local table is free; a miss
    /// "ships the .so" (consults the process registry) and caches it.
    pub fn resolve(&self, code: TypeCode) -> PcResult<&'static pc_object::TypeVTable> {
        if !sync::read(&self.known).contains(&code) {
            self.fetches.fetch_add(1, Ordering::Relaxed);
            let vt = registry::require_vtable(code)?;
            sync::write(&self.known).insert(code);
            return Ok(vt);
        }
        registry::require_vtable(code)
    }

    /// Number of catalog fetches performed so far.
    pub fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_object::PcObjType;

    #[test]
    fn create_and_drop_sets() {
        let c = Catalog::new();
        c.create_set("db", "a").unwrap();
        assert!(c.create_set("db", "a").is_err());
        assert!(c.exists("db", "a"));
        c.record_append("db", "a", 10, 4096);
        assert_eq!(c.set_meta("db", "a").unwrap().objects, 10);
        c.drop_set("db", "a");
        assert!(!c.exists("db", "a"));
    }

    #[test]
    fn worker_catalog_faults_once_per_type() {
        pc_object::ensure_builtins_registered();
        let w = WorkerTypeCatalog::new();
        let code = pc_object::containers::PcString::type_code();
        w.resolve(code).unwrap();
        w.resolve(code).unwrap();
        assert_eq!(w.fetches(), 1);
        // Unknown codes are a catalog error (missing .so).
        assert!(w.resolve(TypeCode(0xdeadbeef)).is_err());
    }
}
