//! The process-wide type registry (§6.3).
//!
//! In PlinyCompute, every class deriving from `Object` is registered with the
//! catalog server by shipping its `.so`; a worker that dereferences a handle
//! whose type it has never seen fetches the library, calls `getVTablePtr()`,
//! and caches the result. Here the registry maps each **type code** (a stable
//! hash of the type name) to a [`TypeVTable`] holding the function pointers
//! the engine needs for dynamic behaviour: deep copy and drop. The worker
//! catalogs in `pc-storage` layer the fetch-on-miss simulation over this.

use crate::block::BlockRef;
use crate::error::{PcError, PcResult};
use crate::traits::PcObjType;
use parking_lot::RwLock;
use std::any::TypeId;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A stable identifier for a registered PC object type.
///
/// Type codes are minted from the FNV-1a hash of the type name, so the same
/// class registers under the same code on every "machine" — a property the
/// paper needs so that pages written by one node resolve on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeCode(pub u32);

impl TypeCode {
    /// Mints the code for a type name. Never zero (zero marks null handles).
    pub fn of(name: &str) -> TypeCode {
        let h = crate::hash::fnv1a(name.as_bytes());
        let code = ((h >> 32) as u32) ^ (h as u32);
        TypeCode(if code == 0 { 1 } else { code })
    }
}

/// The dynamic behaviour of a registered type: what PC obtains from a
/// class's `.so` via `getVTablePtr()`.
pub struct TypeVTable {
    pub name: String,
    pub code: TypeCode,
    pub var_size: bool,
    pub deep_copy: fn(&BlockRef, u32, &BlockRef) -> PcResult<u32>,
    pub drop_obj: fn(&BlockRef, u32),
}

struct Registry {
    by_code: HashMap<TypeCode, &'static TypeVTable>,
    code_cache: HashMap<TypeId, TypeCode>,
}

fn registry() -> &'static RwLock<Registry> {
    static REG: OnceLock<RwLock<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        RwLock::new(Registry {
            by_code: HashMap::new(),
            code_cache: HashMap::new(),
        })
    })
}

/// Computes (and caches per `TypeId`) the type code for `T`.
pub fn cached_code<T: PcObjType + ?Sized + 'static>() -> TypeCode {
    let id = TypeId::of::<T>();
    if let Some(code) = registry().read().code_cache.get(&id) {
        return *code;
    }
    let code = TypeCode::of(&T::type_name());
    registry().write().code_cache.insert(id, code);
    code
}

/// Registers `T`'s vtable if not yet present. Detects name/code collisions.
pub fn register_type<T: PcObjType>() {
    let code = T::type_code();
    {
        let r = registry().read();
        if r.by_code.contains_key(&code) {
            return;
        }
    }
    let name = T::type_name();
    let vt: &'static TypeVTable = Box::leak(Box::new(TypeVTable {
        name: name.clone(),
        code,
        var_size: T::VAR_SIZE,
        deep_copy: T::deep_copy_obj,
        drop_obj: T::drop_obj,
    }));
    let mut r = registry().write();
    if let Some(existing) = r.by_code.get(&code) {
        assert_eq!(
            existing.name, name,
            "type code collision: {:?} minted for both {} and {}",
            code, existing.name, name
        );
        return;
    }
    r.by_code.insert(code, vt);
}

/// Looks up a vtable by type code (`None` = the "missing .so" case).
pub fn lookup_vtable(code: TypeCode) -> Option<&'static TypeVTable> {
    registry().read().by_code.get(&code).copied()
}

/// Like [`lookup_vtable`] but returns a catalog error.
pub fn require_vtable(code: TypeCode) -> PcResult<&'static TypeVTable> {
    lookup_vtable(code).ok_or(PcError::TypeNotRegistered(code.0))
}

/// Ensures the built-in container types used by the engine internals are
/// registered (`PcString`, raw arrays are headerless, and generic containers
/// register lazily on first use).
pub fn ensure_builtins_registered() {
    crate::containers::PcString::ensure_registered();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_nonzero() {
        let a = TypeCode::of("DataPoint");
        let b = TypeCode::of("DataPoint");
        assert_eq!(a, b);
        assert_ne!(a.0, 0);
        assert_ne!(TypeCode::of("Emp"), TypeCode::of("Dep"));
    }
}
