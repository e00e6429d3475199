//! First-touch races on the type registry, decided by behaviour: eight
//! threads released together each allocate, fill, erase, deep-copy and drop
//! a dozen generic types that nothing in this process touched before. However
//! the first registrations interleave, every thread must end up with the
//! same code and the same vtable per type.
//!
//! (The lock-free hit path, growth and the collision check need private
//! access and live in `registry.rs`'s unit tests; the publish protocol
//! itself is model-checked in `loom_registry.rs`.)

use pc_object::registry::{lookup_vtable, require_vtable};
use pc_object::{
    make_object, AllocPolicy, AllocScope, BlockRef, Handle, PcError, PcMap, PcObjType, PcValue,
    PcVec, TypeCode, TypeVTable,
};
use std::sync::Barrier;

/// An element value for a `PcVec<Self>` under test.
trait Sample: PcValue {
    fn sample() -> Self;
}

impl Sample for u16 {
    fn sample() -> u16 {
        7
    }
}

impl Sample for (i8, u16) {
    fn sample() -> (i8, u16) {
        (-1, 9)
    }
}

impl<T: PcObjType> Sample for Handle<T> {
    fn sample() -> Handle<T> {
        make_object::<T>().unwrap()
    }
}

/// What one thread learned about one type: its name, its code, its vtable.
type Sighting = (String, TypeCode, usize);

fn touch<E: Sample>(dst: &BlockRef) -> Sighting {
    let v = make_object::<PcVec<E>>().unwrap();
    v.push(E::sample()).unwrap();
    let copy = v.erase().deep_copy_to(dst).unwrap();
    let code = copy.type_code();
    assert_eq!(code, PcVec::<E>::type_code());
    assert_eq!(copy.downcast::<PcVec<E>>().unwrap().len(), 1);
    drop((v, copy));
    let vt: &'static TypeVTable = lookup_vtable(code).unwrap();
    (
        PcVec::<E>::type_name(),
        code,
        vt as *const TypeVTable as usize,
    )
}

type Deep = Handle<PcVec<Handle<PcVec<Handle<PcVec<u16>>>>>>;

fn touch_the_dozen() -> Vec<Sighting> {
    let _scope = AllocScope::new(1 << 18);
    let dst = BlockRef::new(1 << 18, AllocPolicy::LightweightReuse);
    vec![
        touch::<u16>(&dst),
        touch::<(i8, u16)>(&dst),
        touch::<Handle<PcVec<u16>>>(&dst),
        touch::<Handle<PcVec<Handle<PcVec<u16>>>>>(&dst),
        touch::<Deep>(&dst),
        touch::<Handle<PcVec<Deep>>>(&dst),
        touch::<Handle<PcVec<(i8, u16)>>>(&dst),
        touch::<Handle<PcMap<u16, u16>>>(&dst),
        touch::<Handle<PcMap<u16, Handle<PcVec<u16>>>>>(&dst),
        touch::<Handle<PcMap<u16, Deep>>>(&dst),
        touch::<Handle<PcVec<Handle<PcMap<u16, u16>>>>>(&dst),
        touch::<Handle<PcVec<Handle<PcMap<u16, Deep>>>>>(&dst),
    ]
}

#[test]
fn racing_first_touches_agree_on_code_and_vtable() {
    const THREADS: usize = 8;
    let start = Barrier::new(THREADS);
    let sightings: Vec<Vec<Sighting>> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    touch_the_dozen()
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });

    let reference = &sightings[0];
    assert_eq!(reference.len(), 12);
    for (name, code, vt) in reference {
        assert_eq!(*code, TypeCode::of(name), "{name}");
        let vtable = lookup_vtable(*code).unwrap();
        assert_eq!(vtable as *const TypeVTable as usize, *vt, "{name}");
        assert_eq!(vtable.name, *name);
        assert_eq!(vtable.code, *code);
    }
    for other in &sightings[1..] {
        assert_eq!(other, reference, "two threads saw different registries");
    }
    let mut codes: Vec<TypeCode> = reference.iter().map(|s| s.1).collect();
    codes.sort_unstable();
    codes.dedup();
    assert_eq!(codes.len(), 12, "the dozen must be twelve distinct types");

    // A code nobody registered stays the "missing .so" case.
    let unknown = TypeCode(0xdead_beef);
    assert!(lookup_vtable(unknown).is_none());
    assert_eq!(
        require_vtable(unknown).err(),
        Some(PcError::TypeNotRegistered(unknown.0))
    );
}
