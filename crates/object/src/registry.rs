//! The process-wide type registry (§6.3).
//!
//! In PlinyCompute, every class deriving from `Object` is registered with the
//! catalog server by shipping its `.so`; a worker that dereferences a handle
//! whose type it has never seen fetches the library, calls `getVTablePtr()`,
//! and caches the result. Here the registry maps each **type code** (a stable
//! hash of the type name) to a [`TypeVTable`] holding the function pointers
//! the engine needs for dynamic behaviour: deep copy and drop. The worker
//! catalogs in `pc-storage` layer the fetch-on-miss simulation over this.
//!
//! As with the `.so` fetch, the cost is paid once per type per process. The
//! first touch of a type serializes on the writer mutex and publishes a
//! leaked, never-modified record into an append-only open-addressed table;
//! from then on `type_code()`, `ensure_registered()` and [`lookup_vtable`]
//! — what every `make_object`, stored handle, checked downcast and freed
//! object executes — probe that table with `Acquire` loads and nothing else:
//! no lock, no allocation, no write to shared memory.

use crate::block::BlockRef;
use crate::error::{PcError, PcResult};
use crate::traits::PcObjType;
use std::any::TypeId;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Mutex, MutexGuard};

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

/// What the registry knows about one Rust type from its first touch on,
/// registered or not (a type can be named, downcast to and stored by code
/// without ever being allocated in this process).
struct TypeEntry {
    id: TypeId,
    name: String,
    /// `TypeCode::of(&name)`: what [`cached_code`] answers.
    code: TypeCode,
    /// True once the vtable for `T::type_code()` is in `by_code` and its name
    /// was checked against this one. Stored with `Release` after the insert
    /// and read with `Acquire`, so whoever sees `true` also finds the vtable.
    registered: AtomicBool,
}

/// A slot that is empty or holds a leaked `T`, readable without a lock.
struct Published<T>(AtomicPtr<T>);

impl<T: Sync> Published<T> {
    const fn empty() -> Self {
        Published(AtomicPtr::new(std::ptr::null_mut()))
    }

    #[inline]
    fn get(&self) -> Option<&'static T> {
        // SAFETY: `set` is the only writer and takes a `&'static T`, so a
        // non-null pointer refers to a leaked, never-freed value whose
        // non-atomic fields are never written again. `set` stores it with
        // `Release` after the value was built and this load is `Acquire`, so
        // the reader sees the value fully initialized.
        unsafe { self.0.load(Ordering::Acquire).as_ref() }
    }

    fn set(&self, value: &'static T) {
        self.0.store(value as *const T as *mut T, Ordering::Release);
    }
}

/// How a table finds its items: by which key, starting at which slot.
trait Keyed: Sync + 'static {
    type Key: Copy + PartialEq;
    fn key(&self) -> Self::Key;
    fn home(key: Self::Key) -> usize;
}

/// `TypeId` is already a well-mixed hash and feeds its `Hasher` one `u64`;
/// passing that through is all the hashing a probe needs.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 ^= crate::hash::fnv1a(bytes);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

impl Keyed for TypeEntry {
    type Key = TypeId;

    #[inline]
    fn key(&self) -> TypeId {
        self.id
    }

    #[inline]
    fn home(id: TypeId) -> usize {
        let mut h = PassThrough::default();
        id.hash(&mut h);
        h.finish() as usize
    }
}

impl Keyed for TypeVTable {
    type Key = TypeCode;

    #[inline]
    fn key(&self) -> TypeCode {
        self.code
    }

    /// A minted code is a folded FNV-1a hash already.
    #[inline]
    fn home(code: TypeCode) -> usize {
        code.0 as usize
    }
}

/// Slots a table starts with; it doubles whenever it would pass half full.
const INITIAL_SLOTS: usize = 64;

/// An append-only, open-addressed (linear probing) table of leaked items.
/// Readers probe lock-free; writers hold the registry's writer mutex.
struct Table<T: 'static> {
    slots: Published<Box<[Published<T>]>>,
}

impl<T: Keyed> Table<T> {
    const fn new() -> Self {
        Table {
            slots: Published::empty(),
        }
    }

    /// Lock-free lookup. A miss says nothing about the future: the item may
    /// be published a moment later, so callers never cache `None`.
    #[inline]
    fn find(&self, key: T::Key) -> Option<&'static T> {
        let slots = self.slots.get()?;
        let mask = slots.len() - 1;
        let mut i = T::home(key) & mask;
        // Terminates: the table is never more than half full.
        while let Some(item) = slots[i].get() {
            if item.key() == key {
                return Some(item);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Publishes `item`, whose key must be absent. `len` is this table's
    /// count inside the writer mutex: holding it `&mut` is holding the lock.
    fn insert(&self, len: &mut usize, item: &'static T) {
        let slots = match self.slots.get() {
            Some(slots) if (*len + 1) * 2 <= slots.len() => slots,
            old => {
                // Doubled copy, published whole; the old array is leaked (as
                // the items are) because a reader may still be probing it.
                let cap = old.map_or(INITIAL_SLOTS, |s| s.len() * 2);
                let cells: Box<[Published<T>]> = (0..cap).map(|_| Published::empty()).collect();
                let grown: &'static _ = Box::leak(Box::new(cells));
                for carried in old.iter().flat_map(|s| s.iter()).filter_map(Published::get) {
                    Self::place(grown, carried);
                }
                self.slots.set(grown);
                grown
            }
        };
        Self::place(slots, item);
        *len += 1;
    }

    fn place(slots: &[Published<T>], item: &'static T) {
        let mask = slots.len() - 1;
        let mut i = T::home(item.key()) & mask;
        while slots[i].get().is_some() {
            i = (i + 1) & mask;
        }
        slots[i].set(item);
    }
}

/// Entry counts of the two tables; lives inside the writer mutex.
struct Counts {
    types: usize,
    codes: usize,
}

struct Registry {
    by_type: Table<TypeEntry>,
    by_code: Table<TypeVTable>,
    /// Serializes the first touch of each type — a handful of acquisitions
    /// per process. No reader ever takes it.
    writer: Mutex<Counts>,
}

static REGISTRY: Registry = Registry {
    by_type: Table::new(),
    by_code: Table::new(),
    writer: Mutex::new(Counts { types: 0, codes: 0 }),
};

fn lock_writer() -> MutexGuard<'static, Counts> {
    crate::sync::lock(&REGISTRY.writer)
}

/// `T`'s entry, created on first touch.
#[inline]
fn entry<T: PcObjType + ?Sized>() -> &'static TypeEntry {
    REGISTRY
        .by_type
        .find(TypeId::of::<T>())
        .unwrap_or_else(first_touch::<T>)
}

#[cold]
fn first_touch<T: PcObjType + ?Sized>() -> &'static TypeEntry {
    let id = TypeId::of::<T>();
    let name = T::type_name();
    let mut counts = lock_writer();
    if let Some(raced) = REGISTRY.by_type.find(id) {
        return raced;
    }
    let entry: &'static TypeEntry = Box::leak(Box::new(TypeEntry {
        id,
        code: TypeCode::of(&name),
        name,
        registered: AtomicBool::new(false),
    }));
    REGISTRY.by_type.insert(&mut counts.types, entry);
    entry
}

/// Computes (and caches per `TypeId`) the type code for `T`.
#[inline]
pub fn cached_code<T: PcObjType + ?Sized + 'static>() -> TypeCode {
    entry::<T>().code
}

/// `T`'s type name, computed once and borrowed for the life of the process.
pub(crate) fn static_type_name<T: PcObjType + ?Sized>() -> &'static str {
    &entry::<T>().name
}

/// Registers `T`'s vtable if not yet present. Detects name/code collisions.
#[inline]
pub fn register_type<T: PcObjType>() {
    let entry = entry::<T>();
    if !entry.registered.load(Ordering::Acquire) {
        publish_vtable::<T>(entry);
    }
}

#[cold]
fn publish_vtable<T: PcObjType>(entry: &TypeEntry) {
    let code = T::type_code();
    let existing = {
        let mut counts = lock_writer();
        let existing = REGISTRY.by_code.find(code);
        if existing.is_none() {
            let vt: &'static TypeVTable = Box::leak(Box::new(TypeVTable {
                name: entry.name.clone(),
                code,
                var_size: T::VAR_SIZE,
                deep_copy: T::deep_copy_obj,
                drop_obj: T::drop_obj,
            }));
            REGISTRY.by_code.insert(&mut counts.codes, vt);
        }
        existing
    };
    // Checked after the guard is gone: a collision panics with no lock held.
    if let Some(existing) = existing {
        assert_eq!(
            existing.name, entry.name,
            "type code collision: {:?} minted for both {} and {}",
            code, existing.name, entry.name
        );
    }
    entry.registered.store(true, Ordering::Release);
}

/// Looks up a vtable by type code (`None` = the "missing .so" case).
#[inline]
pub fn lookup_vtable(code: TypeCode) -> Option<&'static TypeVTable> {
    REGISTRY.by_code.find(code)
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
    use crate::{make_object, AllocScope, Handle, PcVec};

    #[test]
    fn codes_are_stable_and_nonzero() {
        let a = TypeCode::of("DataPoint");
        let b = TypeCode::of("DataPoint");
        assert_eq!(a, b);
        assert_ne!(a.0, 0);
        assert_ne!(TypeCode::of("Emp"), TypeCode::of("Dep"));
    }

    /// A hand-written eight-byte object type; the optional third argument
    /// overrides `type_code()` the way `PcString` does.
    macro_rules! test_type {
        ([$($generics:tt)*] $t:ty, $name:expr $(, $code:expr)?) => {
            impl<$($generics)*> PcObjType for $t {
                type View<'a> = &'a Handle<Self>;

                fn type_name() -> String {
                    $name
                }

                $(fn type_code() -> TypeCode {
                    TypeCode($code)
                })?

                fn init_size() -> u32 {
                    8
                }

                fn init_at(b: &BlockRef, off: u32) -> PcResult<()> {
                    b.zero_range(off, 8);
                    Ok(())
                }

                fn deep_copy_obj(_src: &BlockRef, _soff: u32, dst: &BlockRef) -> PcResult<u32> {
                    let doff = dst.alloc(8, Self::type_code(), 0)?;
                    Self::init_at(dst, doff)?;
                    Ok(doff)
                }

                fn drop_obj(_b: &BlockRef, _off: u32) {}

                fn make_view(h: &Handle<Self>) -> Self::View<'_> {
                    h
                }
            }
        };
    }

    const SHARED_CODE: u32 = 0x7e57_c0de;
    struct Collide;
    struct CollideOtherName;
    struct CollideSameName;
    test_type!([] Collide, "RegistryCollide".to_string(), SHARED_CODE);
    test_type!([] CollideOtherName, "RegistryCollideOther".to_string(), SHARED_CODE);
    test_type!([] CollideSameName, "RegistryCollide".to_string(), SHARED_CODE);

    #[test]
    #[should_panic(expected = "type code collision")]
    fn a_second_name_on_a_registered_code_is_a_collision() {
        Collide::ensure_registered();
        CollideOtherName::ensure_registered();
    }

    #[test]
    fn a_second_type_with_the_same_name_and_code_registers_quietly() {
        Collide::ensure_registered();
        CollideSameName::ensure_registered();
        CollideSameName::ensure_registered();
        let vt = lookup_vtable(TypeCode(SHARED_CODE)).unwrap();
        assert_eq!(vt.name, "RegistryCollide");
        // The collision above (whichever test ran first) poisoned nothing.
        assert!(!REGISTRY.writer.is_poisoned());
    }

    struct Fam<const N: usize>;
    test_type!([const N: usize] Fam<N>, format!("RegistryGrowthFam{N}"));

    /// More first touches than half the initial capacity, so both tables
    /// double under the family's feet; every member registered before a
    /// doubling must come out of it as the same entry and the same vtable.
    #[test]
    fn growth_loses_nothing() {
        const FAMILY: usize = 64;
        const _: () = assert!(FAMILY > INITIAL_SLOTS / 2);
        type Seen = Vec<(&'static str, TypeCode, &'static TypeVTable)>;

        fn touch<const N: usize>(seen: &mut Seen) {
            Fam::<N>::ensure_registered();
            let name = static_type_name::<Fam<N>>();
            let code = Fam::<N>::type_code();
            assert_eq!(name, format!("RegistryGrowthFam{N}"));
            assert_eq!(code, TypeCode::of(name));
            seen.push((name, code, lookup_vtable(code).unwrap()));
        }
        fn capacities() -> (usize, usize) {
            (
                REGISTRY.by_type.slots.get().map_or(0, |s| s.len()),
                REGISTRY.by_code.slots.get().map_or(0, |s| s.len()),
            )
        }
        macro_rules! touch_family {
            ($seen:ident; $($hi:literal)*) => {
                $( touch_family!(@row $seen; $hi; 0 1 2 3 4 5 6 7); )*
            };
            (@row $seen:ident; $hi:literal; $($lo:literal)*) => {
                $( touch::<{ $hi * 8 + $lo }>(&mut $seen); )*
            };
        }

        let before = capacities();
        let mut seen = Seen::new();
        touch_family!(seen; 0 1 2 3 4 5 6 7);
        assert_eq!(seen.len(), FAMILY);
        let after = capacities();
        assert!(
            after.0 > before.0 && after.1 > before.1,
            "the family did not force a doubling: {before:?} -> {after:?}"
        );

        let mut again = Seen::new();
        touch_family!(again; 0 1 2 3 4 5 6 7);
        for ((name, code, vt), (name2, code2, vt2)) in seen.iter().zip(&again) {
            // A lost entry would have been re-created with a fresh name.
            assert_eq!(name.as_ptr(), name2.as_ptr(), "{name} lost its entry");
            assert_eq!(code, code2);
            assert!(std::ptr::eq(*vt, *vt2), "{name} lost its vtable");
            assert_eq!(vt.name, *name);
            assert_eq!(vt.code, *code);
        }
    }

    /// The hit path takes no lock: with the writer mutex held by this
    /// thread, another thread allocates and frees 10 000 objects of an
    /// already-registered type and finishes.
    #[test]
    fn hit_path_never_waits_for_the_writer() {
        use std::sync::mpsc;
        use std::time::Duration;

        {
            // First touch — this one does take the writer mutex.
            let _s = AllocScope::new(1 << 16);
            make_object::<PcVec<i32>>().unwrap();
        }
        let (done, finished) = mpsc::channel();
        std::thread::scope(|s| {
            let _writer = lock_writer();
            s.spawn(move || {
                let _s = AllocScope::new(1 << 16);
                for i in 0..10_000 {
                    let v = make_object::<PcVec<i32>>().unwrap();
                    v.push(i).unwrap();
                    let any = v.erase();
                    assert_eq!(any.downcast::<PcVec<i32>>().unwrap().get(0), i);
                }
                done.send(()).unwrap();
            });
            // Were the worker parked on the mutex, this fails instead of
            // hanging: unwinding drops `_writer`, which lets the scope join.
            finished
                .recv_timeout(Duration::from_secs(120))
                .expect("make_object of a registered type waited for the writer mutex");
        });
    }
}
