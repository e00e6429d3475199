//! Integration tests for the PC object model: allocation policies, reference
//! counting, cross-block deep copies, and zero-copy page movement.

use pc_object::{
    make_object, make_object_with_policy, pc_flat, pc_object, AllocPolicy, AllocScope, BlockRef,
    Handle, ObjectPolicy, PageWriter, PcMap, PcString, PcVec, SealedPage,
};

pc_object! {
    /// A labelled feature vector (the paper's §3 example).
    pub struct DataPoint / DataPointView {
        (label, set_label): f64,
        (data, set_data): Handle<PcVec<f64>>,
    }
}

pc_object! {
    /// Employee record used by the join examples.
    pub struct Emp / EmpView {
        (salary, set_salary): i64,
        (name, set_name): Handle<PcString>,
        (dept, set_dept): Handle<PcString>,
    }
}

pc_flat! {
    /// (row, col) coordinate pair.
    #[derive(Debug, PartialEq)]
    pub struct Coord { pub row: i32, pub col: i32 }
}

#[test]
fn quickstart_listing_from_section_3() {
    // makeObjectAllocatorBlock (1024 * 1024);
    let _scope = AllocScope::new(1024 * 1024);
    // Handle<Vector<Handle<DataPoint>>> myVec = makeObject<...>();
    let my_vec = make_object::<PcVec<Handle<DataPoint>>>().unwrap();
    // Handle<DataPoint> storeMe = makeObject<DataPoint>();
    let store_me = make_object::<DataPoint>().unwrap();
    let data = make_object::<PcVec<f64>>().unwrap();
    for i in 0..100 {
        data.push(1.0 * i as f64).unwrap();
    }
    store_me.v().set_data(data).unwrap();
    my_vec.push(store_me).unwrap();

    assert_eq!(my_vec.len(), 1);
    let p = my_vec.get(0);
    assert_eq!(p.v().data().len(), 100);
    assert_eq!(p.v().data().get(99), 99.0);
}

#[test]
fn refcounts_track_handles_and_stored_refs() {
    let scope = AllocScope::new(1 << 16);
    let p = make_object::<DataPoint>().unwrap();
    assert_eq!(p.ref_count(), 1);
    let p2 = p.clone();
    assert_eq!(p.ref_count(), 2);
    drop(p2);
    assert_eq!(p.ref_count(), 1);

    let vec = make_object::<PcVec<Handle<DataPoint>>>().unwrap();
    vec.push(p.clone()).unwrap();
    // one user handle + one stored handle
    assert_eq!(p.ref_count(), 2);
    vec.clear();
    assert_eq!(p.ref_count(), 1);
    assert!(scope.block().active_objects() >= 2);
}

#[test]
fn dropping_all_handles_frees_and_reuses_space() {
    let scope = AllocScope::new(1 << 16);
    let before = scope.block().stats();
    for _ in 0..100 {
        let v = make_object::<PcVec<f64>>().unwrap();
        for i in 0..64 {
            v.push(i as f64).unwrap();
        }
        // v drops here; its space goes to the free lists and is reused.
    }
    let after = scope.block().stats();
    assert_eq!(after.active_objects, before.active_objects);
    assert!(
        after.freelist_hits > 0,
        "lightweight reuse should recycle space"
    );
    // Space consumption must be bounded: ~2 allocations' worth, not 100.
    assert!(
        after.used < before.used + 8 * 1024,
        "used {} grew unboundedly from {}",
        after.used,
        before.used
    );
}

#[test]
fn no_reuse_policy_leaks_space_but_never_recycles() {
    let scope = AllocScope::with_policy(1 << 20, AllocPolicy::NoReuse);
    for _ in 0..50 {
        let v = make_object::<PcVec<f64>>().unwrap();
        v.push(1.0).unwrap();
    }
    let stats = scope.block().stats();
    assert_eq!(stats.freelist_hits, 0);
    assert_eq!(stats.recycle_hits, 0);
    assert!(stats.frees >= 50);
}

#[test]
fn recycling_policy_reuses_same_type_chunks() {
    let scope = AllocScope::with_policy(1 << 16, AllocPolicy::Recycling);
    {
        let p = make_object::<DataPoint>().unwrap();
        p.v().set_label(5.0).unwrap();
    }
    let used_after_first = scope.block().used();
    for _ in 0..20 {
        let p = make_object::<DataPoint>().unwrap();
        p.v().set_label(1.0).unwrap();
    }
    let stats = scope.block().stats();
    assert!(
        stats.recycle_hits >= 19,
        "recycle hits = {}",
        stats.recycle_hits
    );
    assert_eq!(
        scope.block().used(),
        used_after_first,
        "no new space for recycled objects"
    );
}

#[test]
fn no_refcount_objects_are_never_freed() {
    let scope = AllocScope::new(1 << 16);
    {
        let p = make_object_with_policy::<DataPoint>(ObjectPolicy::NoRefCount).unwrap();
        let _c1 = p.clone();
        let _c2 = p.clone();
    } // all handles gone
    let stats = scope.block().stats();
    assert_eq!(stats.frees, 0, "no-refcount object must not be reclaimed");
}

#[test]
#[should_panic(expected = "uniquely-owned")]
fn unique_objects_reject_second_handle() {
    let _scope = AllocScope::new(1 << 16);
    let p = make_object_with_policy::<DataPoint>(ObjectPolicy::Unique).unwrap();
    let _dup = p.clone();
}

#[test]
fn unique_object_freed_on_single_drop() {
    let scope = AllocScope::new(1 << 16);
    {
        let _p = make_object_with_policy::<DataPoint>(ObjectPolicy::Unique).unwrap();
    }
    assert!(scope.block().stats().frees >= 1);
}

#[test]
fn cross_block_assignment_deep_copies() {
    // §6.4's example: data allocated to block 1, then stored into an object
    // on block 2 → automatic deep copy onto block 2.
    let s1 = AllocScope::new(1 << 16);
    let data = make_object::<PcVec<f64>>().unwrap();
    for i in 0..1000 {
        data.push(i as f64).unwrap();
    }
    let b1 = s1.block().clone();

    let s2 = AllocScope::new(1 << 16);
    let m = make_object::<DataPoint>().unwrap();
    m.v().set_data(data.clone()).unwrap(); // deep copy happens here

    let copied = m.v().data();
    assert!(copied.block().same_block(s2.block()));
    assert!(!copied.block().same_block(&b1));
    assert_eq!(copied.len(), 1000);
    assert_eq!(copied.get(999), 999.0);
    assert!(s2.block().stats().deep_copies >= 1);
    // original untouched
    assert_eq!(data.get(500), 500.0);
    drop(s2);
}

#[test]
fn same_block_assignment_does_not_copy() {
    let scope = AllocScope::new(1 << 16);
    let data = make_object::<PcVec<f64>>().unwrap();
    data.push(1.0).unwrap();
    let m = make_object::<DataPoint>().unwrap();
    m.v().set_data(data.clone()).unwrap();
    assert_eq!(scope.block().stats().deep_copies, 0);
    // stored and user handle refer to the same object
    assert_eq!(m.v().data().offset(), data.offset());
}

#[test]
fn block_full_is_reported_not_panicked() {
    let _scope = AllocScope::new(256);
    let v = make_object::<PcVec<f64>>().unwrap();
    let mut err = None;
    for i in 0..10_000 {
        if let Err(e) = v.push(i as f64) {
            err = Some(e);
            break;
        }
    }
    match err {
        Some(pc_object::PcError::BlockFull { .. }) => {}
        other => panic!("expected BlockFull, got {other:?}"),
    }
}

fn build_employee_page() -> SealedPage {
    let scope = AllocScope::new(1 << 16);
    let roster = make_object::<PcVec<Handle<Emp>>>().unwrap();
    for (i, name) in ["alice", "bob", "carol"].iter().enumerate() {
        let e = make_object::<Emp>().unwrap();
        e.v().set_salary(50_000 + i as i64 * 1000).unwrap();
        e.v().set_name(PcString::make(name).unwrap()).unwrap();
        e.v().set_dept(PcString::make("eng").unwrap()).unwrap();
        roster.push(e).unwrap();
    }
    scope.block().set_root(&roster);
    drop(roster);
    let block = scope.block().clone();
    drop(scope);
    block.try_seal().expect("block should seal")
}

#[test]
fn sealed_page_reopens_with_valid_handles() {
    let page = build_employee_page();
    let (_block, root) = page.open().unwrap();
    let roster = root.downcast::<PcVec<Handle<Emp>>>().unwrap();
    assert_eq!(roster.len(), 3);
    let bob = roster.get(1);
    assert_eq!(bob.v().salary(), 51_000);
    assert_eq!(bob.v().name().as_str(), "bob");
    assert_eq!(bob.v().dept().as_str(), "eng");
}

#[test]
fn page_survives_byte_level_movement() {
    // Simulated network shipping: page -> bytes -> page. The paper's claim
    // is that this costs one memcpy and zero per-object work.
    let page = build_employee_page();
    let wire = page.to_bytes();
    let received = SealedPage::from_bytes(&wire).unwrap();
    let (_b, root) = received.open().unwrap();
    let roster = root.downcast::<PcVec<Handle<Emp>>>().unwrap();
    assert_eq!(roster.len(), 3);
    assert_eq!(roster.get(2).v().name().as_str(), "carol");
}

#[test]
fn page_writer_reassembles_a_page_from_pieces() {
    // A network receiver's path: chunks appended in order into one buffer
    // sized up front (here larger than the page), sealed without a copy.
    let page = build_employee_page();
    let wire = page.to_bytes();
    let mut w = PageWriter::with_capacity(wire.len() + 100).unwrap();
    for piece in wire.chunks(7) {
        w.append(piece).unwrap();
    }
    assert_eq!(w.filled(), wire.len());
    let received = w.seal().unwrap();
    assert_eq!(received.to_bytes(), wire);
    assert_eq!(received.root(), page.root());
    let (_b, root) = received.open().unwrap();
    let roster = root.downcast::<PcVec<Handle<Emp>>>().unwrap();
    assert_eq!(roster.get(1).v().name().as_str(), "bob");

    // Overflow is refused with nothing written; a short or damaged page
    // fails its header check like `from_bytes` does.
    use pc_object::PcError;
    let mut w = PageWriter::with_capacity(8).unwrap();
    assert!(matches!(w.append(&wire[..9]), Err(PcError::InvalidPage(_))));
    assert_eq!(w.filled(), 0);
    w.append(&wire[..8]).unwrap();
    assert!(matches!(w.seal(), Err(PcError::InvalidPage(_))));
    let mut w = PageWriter::with_capacity(wire.len()).unwrap();
    w.append(&wire[..wire.len() - 1]).unwrap();
    assert!(
        matches!(w.seal(), Err(PcError::InvalidPage(_))),
        "used exceeds the bytes"
    );
    assert!(PageWriter::with_capacity(u32::MAX as usize + 1).is_err());
}

/// A `len`-byte page image whose header claims `used` and `root`; every
/// byte past the header is zero.
fn crafted_page(len: usize, used: u32, root: u32) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    bytes[0..4].copy_from_slice(&pc_object::page::PAGE_MAGIC.to_le_bytes());
    bytes[4..8].copy_from_slice(&used.to_le_bytes());
    bytes[8..12].copy_from_slice(&root.to_le_bytes());
    bytes
}

/// The same bytes through each path that lets bytes into the process: a
/// byte string, a file read (spill reload) and a socket's chunks.
fn admit_every_way(bytes: &[u8]) -> [pc_object::PcResult<SealedPage>; 3] {
    let via_writer = PageWriter::with_capacity(bytes.len()).and_then(|mut w| {
        for piece in bytes.chunks(5) {
            w.append(piece)?;
        }
        w.seal()
    });
    [
        SealedPage::from_bytes(bytes),
        SealedPage::read_from(&mut std::io::Cursor::new(bytes), bytes.len()),
        via_writer,
    ]
}

#[test]
fn crafted_header_with_a_root_inside_the_page_header_is_invalid() {
    // `root - 24` would underflow when the page is opened.
    for root in [8, 16, 39] {
        for got in admit_every_way(&crafted_page(64, 64, root)) {
            assert!(
                matches!(got, Err(pc_object::PcError::InvalidPage(_))),
                "root {root}: {got:?}"
            );
        }
    }
}

#[test]
fn crafted_header_with_a_root_past_used_is_invalid() {
    for root in [65, 72, 4096] {
        for got in admit_every_way(&crafted_page(128, 64, root)) {
            assert!(
                matches!(got, Err(pc_object::PcError::InvalidPage(_))),
                "root {root}: {got:?}"
            );
        }
    }
}

#[test]
fn crafted_header_with_used_below_the_header_is_invalid() {
    for used in [0, 4, 15] {
        for got in admit_every_way(&crafted_page(64, used, 0)) {
            assert!(
                matches!(got, Err(pc_object::PcError::InvalidPage(_))),
                "used {used}: {got:?}"
            );
        }
    }
}

#[test]
fn crafted_header_at_the_bounds_is_admitted_and_opens_to_an_error() {
    // The smallest legal root: its object header is bytes [16, 40), whose
    // zero type code names no registered type.
    for got in admit_every_way(&crafted_page(64, 64, 40)) {
        let page = got.unwrap();
        assert!(matches!(
            page.open_view(),
            Err(pc_object::PcError::TypeNotRegistered(0))
        ));
    }
    // A header-only page with no root is valid and has nothing to open.
    for got in admit_every_way(&crafted_page(16, 16, 0)) {
        assert!(matches!(
            got.unwrap().open_view(),
            Err(pc_object::PcError::NoRoot)
        ));
    }
}

#[test]
fn a_cloned_page_shares_its_buffer() {
    let page = build_employee_page();
    let shared = page.clone();
    assert_eq!(shared.payload().as_ptr(), page.payload().as_ptr());
    let wire = page.to_bytes();
    drop(page);
    assert_eq!(shared.to_bytes(), wire);
    let (_b, root) = shared.open_view().unwrap();
    let roster = root.downcast::<PcVec<Handle<Emp>>>().unwrap();
    assert_eq!(roster.get(0).v().name().as_str(), "alice");
}

#[test]
fn page_crosses_threads_without_reencoding() {
    let page = build_employee_page();
    let handle = std::thread::spawn(move || {
        let (_b, root) = page.open().unwrap();
        let roster = root.downcast::<PcVec<Handle<Emp>>>().unwrap();
        roster.iter().map(|e| e.v().salary()).sum::<i64>()
    });
    assert_eq!(handle.join().unwrap(), 50_000 + 51_000 + 52_000);
}

#[test]
fn seal_fails_while_handles_alive() {
    let scope = AllocScope::new(1 << 16);
    let v = make_object::<PcVec<f64>>().unwrap();
    v.push(1.0).unwrap();
    scope.block().set_root(&v);
    let block = scope.block().clone();
    drop(scope);
    // `v` still pins the block.
    match block.try_seal() {
        Err(pc_object::PcError::BlockShared) => {}
        other => panic!("expected BlockShared, got {other:?}"),
    }
}

#[test]
fn unmanaged_blocks_skip_refcounting() {
    let page = build_employee_page();
    let (block, root) = page.open().unwrap();
    assert!(!block.is_managed());
    let roster = root.downcast::<PcVec<Handle<Emp>>>().unwrap();
    let e = roster.get(0);
    let rc_before = e.ref_count();
    let _c1 = e.clone();
    let _c2 = e.clone();
    assert_eq!(
        e.ref_count(),
        rc_before,
        "unmanaged blocks never touch refcounts"
    );
}

#[test]
fn nested_map_of_vectors() {
    // The §8.4 shape: Map<String, Handle<Vector<int>>>.
    let _scope = AllocScope::new(1 << 20);
    let m = make_object::<PcMap<Handle<PcString>, Handle<PcVec<i64>>>>().unwrap();
    for supplier in ["acme", "globex", "initech"] {
        let parts = make_object::<PcVec<i64>>().unwrap();
        for p in 0..10 {
            parts.push(p).unwrap();
        }
        m.insert(PcString::make(supplier).unwrap(), parts).unwrap();
    }
    assert_eq!(m.len(), 3);
    let key = PcString::make("globex").unwrap();
    let parts = m.get(&key).unwrap();
    assert_eq!(parts.len(), 10);
    assert_eq!(parts.iter().sum::<i64>(), 45);
    assert!(m.get(&PcString::make("tyrell").unwrap()).is_none());
}

#[test]
fn map_upsert_accumulates_in_place() {
    let _scope = AllocScope::new(1 << 18);
    let m = make_object::<PcMap<i64, f64>>().unwrap();
    for i in 0..1000i64 {
        let k = i % 7;
        m.upsert(
            k,
            || Ok(1.0),
            |b, slot| {
                let cur: f64 = b.read(slot);
                b.write(slot, cur + 1.0);
                Ok(())
            },
        )
        .unwrap();
    }
    assert_eq!(m.len(), 7);
    let total: f64 = (0..7).map(|k| m.get(&k).unwrap()).sum();
    assert_eq!(total, 1000.0);
}

#[test]
fn map_remove_preserves_probe_chains() {
    let _scope = AllocScope::new(1 << 18);
    let m = make_object::<PcMap<i64, i64>>().unwrap();
    for i in 0..200 {
        m.insert(i, i * 10).unwrap();
    }
    for i in (0..200).step_by(2) {
        assert!(m.remove(&i));
    }
    assert_eq!(m.len(), 100);
    for i in 0..200 {
        if i % 2 == 0 {
            assert_eq!(m.get(&i), None);
        } else {
            assert_eq!(m.get(&i), Some(i * 10));
        }
    }
}

#[test]
fn flat_struct_roundtrip_and_pair_keys() {
    let _scope = AllocScope::new(1 << 16);
    let v = make_object::<PcVec<Coord>>().unwrap();
    v.push(Coord { row: 3, col: 4 }).unwrap();
    assert_eq!(v.get(0), Coord { row: 3, col: 4 });

    let m = make_object::<PcMap<(i32, i32), f64>>().unwrap();
    m.insert((1, 2), 0.5).unwrap();
    m.insert((2, 1), 1.5).unwrap();
    assert_eq!(m.get(&(1, 2)), Some(0.5));
    assert_eq!(m.get(&(2, 1)), Some(1.5));
}

#[test]
fn deep_copy_preserves_nested_structure() {
    let _s1 = AllocScope::new(1 << 18);
    let m = make_object::<PcMap<Handle<PcString>, Handle<PcVec<i64>>>>().unwrap();
    let parts = make_object::<PcVec<i64>>().unwrap();
    parts.extend_from_slice(&[1, 2, 3]).unwrap();
    m.insert(PcString::make("acme").unwrap(), parts).unwrap();

    let dst = BlockRef::new(1 << 18, AllocPolicy::LightweightReuse);
    let copy = m.deep_copy_to(&dst).unwrap();
    assert_eq!(copy.len(), 1);
    let _s2 = AllocScope::install(dst.clone());
    let key = PcString::make("acme").unwrap();
    let got = copy.get(&key).unwrap();
    assert!(got.block().same_block(&dst));
    assert_eq!(got.as_slice(), &[1, 2, 3]);
}

#[test]
fn vector_views_are_zero_copy() {
    let _scope = AllocScope::new(1 << 16);
    let v = make_object::<PcVec<f64>>().unwrap();
    v.extend_from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    let s = v.as_slice();
    assert_eq!(s, &[1.0, 2.0, 3.0, 4.0]);
    let ms = v.as_mut_slice();
    for x in ms.iter_mut() {
        *x *= 2.0;
    }
    assert_eq!(v.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
}

#[test]
fn string_page_roundtrip_with_unicode() {
    let scope = AllocScope::new(1 << 16);
    let v = make_object::<PcVec<Handle<PcString>>>().unwrap();
    v.push(PcString::make("héllo wörld").unwrap()).unwrap();
    v.push(PcString::make("数据库").unwrap()).unwrap();
    scope.block().set_root(&v);
    drop(v);
    let block = scope.block().clone();
    drop(scope);
    let bytes = block.try_seal().unwrap().to_bytes();
    let (_b, root) = SealedPage::from_bytes(&bytes).unwrap().open().unwrap();
    let v = root.downcast::<PcVec<Handle<PcString>>>().unwrap();
    assert_eq!(v.get(0).as_str(), "héllo wörld");
    assert_eq!(v.get(1).as_str(), "数据库");
}

#[test]
fn failed_downcasts_borrow_the_expected_name() {
    use pc_object::PcError;

    let scope = AllocScope::new(1 << 16);
    let v = make_object::<PcVec<i64>>().unwrap();
    scope.block().set_root(&v);
    let any = v.erase();

    // A wrong-type request is reported, not leaked: every mismatch against
    // the same `T` names it through one process-lifetime string.
    let expected_of = |e: PcError| match e {
        PcError::TypeMismatch { expected, found } => {
            assert_eq!(found, any.type_code().0);
            expected
        }
        other => panic!("expected a type mismatch, got {other:?}"),
    };
    let first = expected_of(any.downcast::<PcVec<Handle<Emp>>>().unwrap_err());
    let second = expected_of(any.downcast::<PcVec<Handle<Emp>>>().unwrap_err());
    let root = expected_of(
        scope
            .block()
            .root_handle::<PcVec<Handle<Emp>>>()
            .unwrap_err(),
    );
    assert_eq!(first, "PcVec<Handle<Emp>>");
    assert_eq!(first.as_ptr(), second.as_ptr());
    assert_eq!(first.as_ptr(), root.as_ptr());
}

#[test]
fn block_ids_are_distinct_within_and_across_threads() {
    let mint_two = || {
        let a = BlockRef::new(4096, AllocPolicy::NoReuse);
        let b = BlockRef::new(4096, AllocPolicy::NoReuse);
        [a.id(), b.id()]
    };
    let here = mint_two();
    let there = std::thread::spawn(mint_two).join().unwrap();
    let mut ids = [here, there].concat();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 4, "block ids collided: {here:?} {there:?}");
}
