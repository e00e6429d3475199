//! The page-as-a-heap allocation block (§6.1, §6.4, Appendix B).
//!
//! A block is one contiguous, aligned byte buffer. Objects are allocated in
//! place on the block, each preceded by a small header that carries its type
//! code, payload size and reference count. Handles refer to objects by
//! page-relative offset, so the entire block can be moved (to disk, across a
//! thread boundary, through a byte-copying "network") and every handle inside
//! it remains valid.
//!
//! Blocks are **single-thread managed** (§6.5): a [`BlockRef`] is an `Rc` and
//! is deliberately `!Send`, so reference counts never need atomic operations
//! or locks. To cross threads a block is first [sealed](BlockRef::try_seal)
//! into a [`SealedPage`], which re-opens on the far
//! side as an *unmanaged* block (no reference counting — §6.4 type 3).
//!
//! A block's bytes are written before they are read, and no byte is zeroed
//! that the block never hands out. A fresh block's buffer is uninitialized
//! apart from its 16-byte header. The bump allocator zeroes each chunk's
//! payload as it hands it out (including alignment padding), so every byte
//! below `used` reads as a pre-zeroed page would; chunks reused from a free
//! list or recycle list keep their old bytes, and containers zero what they
//! need. Bytes at or above `used` are never read: the raw-I/O accessors
//! assert (in debug builds) that they stay below `used`.
//!
//! [`SealedPage`]: crate::page::SealedPage

use crate::error::{PcError, PcResult};
use crate::handle::Handle;
use crate::page::{AlignedBuf, SealedPage, PAGE_MAGIC};
use crate::registry::{self, TypeCode};
use crate::traits::PcObjType;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Size of the on-page block header: `{magic, used, root, reserved}`.
pub const BLOCK_HEADER_SIZE: u32 = 16;
/// Size of the per-object header: `{type_code, size, refcount, flags, chunk, pad}`.
pub const OBJ_HEADER_SIZE: u32 = 24;
/// All allocations are 8-byte aligned.
pub const ALIGN: u32 = 8;

/// Number of size-class free lists (bucket `i` holds chunks with
/// `floor(log2(size)) == i`, following Appendix B's "bucket log2(n)" scheme).
/// One bit per bucket in `RawBlock::nonempty`, so at most 64.
const N_BUCKETS: usize = 33;
const _: () = assert!(N_BUCKETS <= 64);

// Object flag bits.
pub(crate) const FLAG_NO_REFCOUNT: u32 = 1;
pub(crate) const FLAG_UNIQUE: u32 = 2;
pub(crate) const FLAG_VAR_SIZE: u32 = 4;
pub(crate) const FLAG_FREED: u32 = 8;

/// Block-level allocation policy (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicy {
    /// Freed space is pooled in per-size-class free lists and reused
    /// (the default policy).
    #[default]
    LightweightReuse,
    /// Freed space is never reused: classic region allocation. Fastest, but
    /// temporaries leak space until the whole block is recycled.
    NoReuse,
    /// Layered on lightweight reuse: fixed-length objects are kept on a
    /// per-type recycle list and handed back verbatim on the next
    /// default-construction of the same type. Variable-length objects are
    /// never recycled (they fall back to lightweight reuse).
    Recycling,
}

/// Per-object allocation policy (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObjectPolicy {
    /// Full reference counting (the default).
    #[default]
    RefCounted,
    /// The object is not reference counted and is only reclaimed when the
    /// whole block goes away: pure region allocation for this object.
    NoRefCount,
    /// Exactly one handle may reference the object; when that handle drops
    /// the object is freed. Cloning such a handle panics.
    Unique,
}

/// Counters describing a block's allocation behaviour; used by tests and the
/// benchmark harness to verify policy semantics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    pub capacity: usize,
    pub used: usize,
    pub active_objects: u32,
    pub allocations: u64,
    pub frees: u64,
    pub freelist_hits: u64,
    pub recycle_hits: u64,
    pub deep_copies: u64,
}

/// Backing storage for a block: owned while managed, shared for read views
/// of sealed pages.
enum BufStorage {
    Owned(AlignedBuf),
    Shared(std::sync::Arc<AlignedBuf>),
}

impl BufStorage {
    #[inline]
    fn ptr(&self) -> *mut u8 {
        match self {
            BufStorage::Owned(b) => b.ptr(),
            BufStorage::Shared(b) => b.ptr(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            BufStorage::Owned(b) => b.len(),
            BufStorage::Shared(b) => b.len(),
        }
    }
}

struct RawBlock {
    buf: BufStorage,
    used: u32,
    root: u32,
    policy: AllocPolicy,
    managed: bool,
    active_objects: u32,
    freelists: [u32; N_BUCKETS],
    /// Bit `b` is set exactly when `freelists[b] != 0`, so `alloc` finds
    /// the non-empty size classes without reading every head.
    nonempty: u64,
    recycle: HashMap<TypeCode, u32>,
    allocations: u64,
    frees: u64,
    freelist_hits: u64,
    recycle_hits: u64,
    deep_copies: u64,
}

/// One allocation block; always used through [`BlockRef`].
pub struct Block {
    inner: UnsafeCell<RawBlock>,
    id: u64,
}

/// Shared reference to an allocation block.
///
/// Cloning a `BlockRef` is cheap (an `Rc` clone). A block stays alive while
/// any `BlockRef` or [`Handle`] into it exists, which gives
/// the paper's "inactive, managed block" lifetime for free.
#[derive(Clone)]
pub struct BlockRef(pub(crate) Rc<Block>);

fn next_block_id() -> u64 {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    // Threads are numbered as they mint their first id; the number goes in
    // the high bits, so ids are unique across threads without any per-block
    // work. `Relaxed`: the counter publishes nothing but itself.
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static NEXT: Cell<u64> = Cell::new((NEXT_THREAD.fetch_add(1, Ordering::Relaxed) << 32) | 1);
    }
    NEXT.with(|n| {
        let v = n.get();
        n.set(v + 1);
        v
    })
}

#[inline]
fn align_up(v: u32, a: u32) -> u32 {
    (v + a - 1) & !(a - 1)
}

#[inline]
fn bucket_of(size: u32) -> usize {
    (31 - size.max(1).leading_zeros()) as usize
}

impl BlockRef {
    /// Creates a managed block with `capacity` bytes of heap.
    pub fn new(capacity: usize, policy: AllocPolicy) -> Self {
        let capacity = capacity.max((BLOCK_HEADER_SIZE + OBJ_HEADER_SIZE) as usize);
        assert!(
            capacity < u32::MAX as usize,
            "block capacity must fit in u32"
        );
        let buf = AlignedBuf::uninit(capacity);
        let raw = RawBlock {
            buf: BufStorage::Owned(buf),
            used: BLOCK_HEADER_SIZE,
            root: 0,
            policy,
            managed: true,
            active_objects: 0,
            freelists: [0; N_BUCKETS],
            nonempty: 0,
            recycle: HashMap::new(),
            allocations: 0,
            frees: 0,
            freelist_hits: 0,
            recycle_hits: 0,
            deep_copies: 0,
        };
        let b = BlockRef(Rc::new(Block {
            inner: UnsafeCell::new(raw),
            id: next_block_id(),
        }));
        // `{magic, used, root, reserved}`; sealing fills in used and root.
        b.write::<[u32; 4]>(0, [PAGE_MAGIC, 0, 0, 0]);
        b
    }

    /// Re-opens a sealed page as an *unmanaged* block: objects on it are not
    /// reference counted and are never individually freed (§6.4 type 3).
    /// The buffer is shared with the sealed page (and possibly other views).
    pub(crate) fn from_shared(buf: std::sync::Arc<AlignedBuf>, used: u32, root: u32) -> Self {
        let raw = RawBlock {
            buf: BufStorage::Shared(buf),
            used,
            root,
            policy: AllocPolicy::NoReuse,
            managed: false,
            active_objects: 0,
            freelists: [0; N_BUCKETS],
            nonempty: 0,
            recycle: HashMap::new(),
            allocations: 0,
            frees: 0,
            freelist_hits: 0,
            recycle_hits: 0,
            deep_copies: 0,
        };
        BlockRef(Rc::new(Block {
            inner: UnsafeCell::new(raw),
            id: next_block_id(),
        }))
    }

    #[inline]
    fn raw(&self) -> *mut RawBlock {
        self.0.inner.get()
    }

    #[inline]
    fn base(&self) -> *mut u8 {
        unsafe { (*self.raw()).buf.ptr() }
    }

    /// A per-process unique id, used to detect cross-block handle stores.
    #[inline]
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Two refs are the same block iff they share the `Rc`.
    #[inline]
    pub fn same_block(&self, other: &BlockRef) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }

    #[inline]
    pub fn is_managed(&self) -> bool {
        unsafe { (*self.raw()).managed }
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        unsafe { (*self.raw()).buf.len() }
    }

    #[inline]
    pub fn used(&self) -> usize {
        unsafe { (*self.raw()).used as usize }
    }

    pub fn stats(&self) -> BlockStats {
        let r = self.raw();
        unsafe {
            BlockStats {
                capacity: (*r).buf.len(),
                used: (*r).used as usize,
                active_objects: (*r).active_objects,
                allocations: (*r).allocations,
                frees: (*r).frees,
                freelist_hits: (*r).freelist_hits,
                recycle_hits: (*r).recycle_hits,
                deep_copies: (*r).deep_copies,
            }
        }
    }

    pub(crate) fn note_deep_copy(&self) {
        unsafe { (*self.raw()).deep_copies += 1 }
    }

    // ---------------------------------------------------------------- raw io

    /// Reads a `Copy` value at byte offset `off`.
    #[inline]
    pub fn read<T: Copy>(&self, off: u32) -> T {
        debug_assert!(off as usize + std::mem::size_of::<T>() <= self.used());
        unsafe { std::ptr::read_unaligned(self.base().add(off as usize) as *const T) }
    }

    /// Writes a `Copy` value at byte offset `off`.
    #[inline]
    pub fn write<T: Copy>(&self, off: u32, v: T) {
        debug_assert!(off as usize + std::mem::size_of::<T>() <= self.used());
        unsafe { std::ptr::write_unaligned(self.base().add(off as usize) as *mut T, v) }
    }

    #[inline]
    pub fn read_u32(&self, off: u32) -> u32 {
        self.read::<u32>(off)
    }

    #[inline]
    pub fn write_u32(&self, off: u32, v: u32) {
        self.write::<u32>(off, v)
    }

    /// Borrow `len` bytes starting at `off`.
    ///
    /// The returned slice aliases page memory; callers must not grow or free
    /// objects on this block while holding it (standard single-threaded
    /// discipline — the engine only holds such slices within one pipeline
    /// stage invocation).
    #[inline]
    pub fn bytes(&self, off: u32, len: usize) -> &[u8] {
        debug_assert!(off as usize + len <= self.used());
        unsafe { std::slice::from_raw_parts(self.base().add(off as usize), len) }
    }

    /// Copies bytes into page memory.
    #[inline]
    pub fn write_bytes(&self, off: u32, src: &[u8]) {
        debug_assert!(off as usize + src.len() <= self.used());
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.base().add(off as usize), src.len())
        }
    }

    /// Zeroes `len` bytes at `off`, which must lie below `used`. A
    /// bump-allocated chunk already reads as zeroes; a chunk reused from a
    /// free or recycle list is dirty, so containers and `init_at`
    /// implementations zero what they need with this.
    #[inline]
    pub fn zero_range(&self, off: u32, len: usize) {
        debug_assert!(off as usize + len <= self.used());
        unsafe { std::ptr::write_bytes(self.base().add(off as usize), 0, len) }
    }

    /// Copies `len` bytes from offset `src` to offset `dst` within the block.
    #[inline]
    pub fn copy_within(&self, src: u32, dst: u32, len: usize) {
        debug_assert!(src as usize + len <= self.used());
        debug_assert!(dst as usize + len <= self.used());
        unsafe {
            std::ptr::copy(
                self.base().add(src as usize),
                self.base().add(dst as usize),
                len,
            )
        }
    }

    /// Zero-copy view of `len` `f64`s at `off` (8-aligned by construction).
    #[inline]
    pub fn slice_f64(&self, off: u32, len: usize) -> &[f64] {
        debug_assert_eq!(off % 8, 0, "f64 view must be 8-aligned");
        debug_assert!(off as usize + len * 8 <= self.used());
        unsafe { std::slice::from_raw_parts(self.base().add(off as usize) as *const f64, len) }
    }

    /// Zero-copy view of `len` `i64`s at `off`.
    #[inline]
    pub fn slice_i64(&self, off: u32, len: usize) -> &[i64] {
        debug_assert_eq!(off % 8, 0, "i64 view must be 8-aligned");
        debug_assert!(off as usize + len * 8 <= self.used());
        unsafe { std::slice::from_raw_parts(self.base().add(off as usize) as *const i64, len) }
    }

    /// Mutable zero-copy view of `len` `f64`s at `off`. Callers must ensure
    /// no other view of the same range is alive (single-threaded engine
    /// discipline; kernels use this for in-place numeric work, mirroring
    /// lilLinAlg's `c_ptr()` trick in §8.3.1).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub fn slice_f64_mut(&self, off: u32, len: usize) -> &mut [f64] {
        debug_assert_eq!(off % 8, 0, "f64 view must be 8-aligned");
        debug_assert!(off as usize + len * 8 <= self.used());
        unsafe { std::slice::from_raw_parts_mut(self.base().add(off as usize) as *mut f64, len) }
    }

    // ------------------------------------------------------------ obj header
    //
    // Header layout (offsets relative to payload start - 24):
    //   +0  type_code   +4 payload size   +8 refcount   +12 flags
    //   +16 chunk size (total bytes incl. header)        +20 pad

    #[inline]
    pub fn obj_code(&self, off: u32) -> TypeCode {
        TypeCode(self.read_u32(off - 24))
    }

    #[inline]
    pub fn obj_size(&self, off: u32) -> u32 {
        self.read_u32(off - 20)
    }

    #[inline]
    pub fn obj_rc(&self, off: u32) -> u32 {
        self.read_u32(off - 16)
    }

    #[inline]
    pub fn obj_flags(&self, off: u32) -> u32 {
        self.read_u32(off - 12)
    }

    #[inline]
    fn obj_chunk(&self, off: u32) -> u32 {
        self.read_u32(off - 8)
    }

    /// Number of objects on this block reachable from some handle.
    #[inline]
    pub fn active_objects(&self) -> u32 {
        unsafe { (*self.raw()).active_objects }
    }

    // ------------------------------------------------------------ allocation

    /// Allocates `payload` bytes with an object header. Returns the payload
    /// offset. The object starts with refcount 0; callers immediately wrap it
    /// in a handle or stored reference.
    pub fn alloc(&self, payload: u32, code: TypeCode, flags: u32) -> PcResult<u32> {
        let total = OBJ_HEADER_SIZE + align_up(payload.max(1), ALIGN);
        let r = self.raw();
        unsafe {
            // Recycling policy: exact-type reuse for fixed-size objects.
            if (*r).policy == AllocPolicy::Recycling && flags & FLAG_VAR_SIZE == 0 {
                if let Some(head) = (*r).recycle.get(&code).copied() {
                    if head != 0 {
                        let next = self.read_u32(head);
                        (*r).recycle.insert(code, next);
                        (*r).recycle_hits += 1;
                        (*r).allocations += 1;
                        // head points at the chunk start; its total size was
                        // stashed at +4 when it was freed. Rebuild the header.
                        let chunk = self.read_u32(head + 4);
                        return Ok(self.init_header(head, payload, code, flags, chunk));
                    }
                }
            }
            // Lightweight reuse: visit the non-empty size classes from
            // `bucket_of(total)` up, in ascending order — the same heads a
            // scan of every bucket would test, without reading the empty
            // ones.
            if (*r).policy != AllocPolicy::NoReuse {
                let mut candidates = (*r).nonempty & (!0u64 << bucket_of(total));
                while candidates != 0 {
                    let b = candidates.trailing_zeros() as usize;
                    candidates &= candidates - 1;
                    let head = (*r).freelists[b];
                    let chunk_size = self.read_u32(head + 4);
                    if chunk_size >= total {
                        let next = self.read_u32(head);
                        (*r).freelists[b] = next;
                        if next == 0 {
                            (*r).nonempty &= !(1 << b);
                        }
                        (*r).freelist_hits += 1;
                        (*r).allocations += 1;
                        return Ok(self.init_header(head, payload, code, flags, chunk_size));
                    }
                    // Head chunk too small for this bucket's request; try the
                    // next bucket rather than scanning the list.
                }
            }
            // Bump allocation.
            let used = (*r).used;
            let cap = (*r).buf.len() as u32;
            if used + total > cap {
                return Err(PcError::BlockFull {
                    needed: total as usize,
                    free: (cap - used) as usize,
                });
            }
            (*r).used = used + total;
            (*r).allocations += 1;
            // These bytes are fresh from the allocator: zero everything the
            // header does not cover (payload and alignment padding), so all
            // of `[0, used)` stays initialized.
            self.zero_range(used + OBJ_HEADER_SIZE, (total - OBJ_HEADER_SIZE) as usize);
            Ok(self.init_header(used, payload, code, flags, total))
        }
    }

    fn init_header(
        &self,
        chunk_start: u32,
        payload: u32,
        code: TypeCode,
        flags: u32,
        chunk: u32,
    ) -> u32 {
        let off = chunk_start + OBJ_HEADER_SIZE;
        self.write_u32(off - 24, code.0);
        self.write_u32(off - 20, payload);
        self.write_u32(off - 16, 0); // refcount
        self.write_u32(off - 12, flags);
        self.write_u32(off - 8, chunk);
        self.write_u32(off - 4, 0);
        off
    }

    /// Returns an object's space to the allocator according to the block
    /// policy. Does NOT run the type's drop logic — callers do that first.
    pub(crate) fn free_object(&self, off: u32) {
        let r = self.raw();
        unsafe {
            debug_assert_eq!(self.obj_flags(off) & FLAG_FREED, 0, "double free at {off}");
            self.write_u32(off - 12, self.obj_flags(off) | FLAG_FREED);
            (*r).frees += 1;
            let chunk_start = off - OBJ_HEADER_SIZE;
            let chunk = self.obj_chunk(off);
            match (*r).policy {
                AllocPolicy::NoReuse => {}
                AllocPolicy::Recycling if self.obj_flags(off) & FLAG_VAR_SIZE == 0 => {
                    let code = self.obj_code(off);
                    let head = (*r).recycle.get(&code).copied().unwrap_or(0);
                    self.write_u32(chunk_start, head);
                    // keep the chunk size retrievable after reuse
                    self.write_u32(chunk_start + 4, chunk);
                    (*r).recycle.insert(code, chunk_start);
                }
                _ => {
                    let b = bucket_of(chunk);
                    let head = (*r).freelists[b];
                    self.write_u32(chunk_start, head);
                    self.write_u32(chunk_start + 4, chunk);
                    (*r).freelists[b] = chunk_start;
                    (*r).nonempty |= 1 << b;
                }
            }
        }
    }

    // --------------------------------------------------------- ref counting

    /// Increments an object's reference count (no-op on unmanaged blocks and
    /// no-refcount objects). Panics on unique objects: they cannot gain refs.
    pub fn inc_ref(&self, off: u32) {
        if off == 0 || !self.is_managed() {
            return;
        }
        let flags = self.obj_flags(off);
        if flags & FLAG_NO_REFCOUNT != 0 {
            return;
        }
        if flags & FLAG_UNIQUE != 0 && self.obj_rc(off) >= 1 {
            panic!("cannot create a second reference to a uniquely-owned PC object");
        }
        let rc = self.obj_rc(off);
        self.write_u32(off - 16, rc + 1);
        if rc == 0 {
            unsafe { (*self.raw()).active_objects += 1 }
        }
    }

    /// Decrements an object's reference count; at zero, runs the registered
    /// type's drop logic (releasing child references) and frees the space.
    pub fn dec_ref(&self, off: u32) {
        if off == 0 || !self.is_managed() {
            return;
        }
        let flags = self.obj_flags(off);
        if flags & (FLAG_NO_REFCOUNT | FLAG_FREED) != 0 {
            return;
        }
        let rc = self.obj_rc(off);
        debug_assert!(rc > 0, "refcount underflow at offset {off}");
        self.write_u32(off - 16, rc - 1);
        if rc == 1 {
            unsafe { (*self.raw()).active_objects -= 1 }
            let code = self.obj_code(off);
            if let Some(vt) = registry::lookup_vtable(code) {
                (vt.drop_obj)(self, off);
            }
            self.free_object(off);
        }
    }

    // ----------------------------------------------------------- object API

    /// Allocates and default-initializes a `T`, returning its handle.
    pub fn make_object<T: PcObjType>(&self) -> PcResult<Handle<T>> {
        self.make_object_with_policy(ObjectPolicy::RefCounted)
    }

    /// Allocates a `T` with a per-object policy (Appendix B).
    pub fn make_object_with_policy<T: PcObjType>(
        &self,
        policy: ObjectPolicy,
    ) -> PcResult<Handle<T>> {
        T::ensure_registered();
        let flags = match policy {
            ObjectPolicy::RefCounted => 0,
            ObjectPolicy::NoRefCount => FLAG_NO_REFCOUNT,
            ObjectPolicy::Unique => FLAG_UNIQUE,
        };
        let flags = flags | if T::VAR_SIZE { FLAG_VAR_SIZE } else { 0 };
        let off = self.alloc(T::init_size(), T::type_code(), flags)?;
        T::init_at(self, off)?;
        Ok(Handle::adopt(self.clone(), off))
    }

    // ------------------------------------------------------------- sealing

    /// Marks `root` as the block's root object — the entry point a receiver
    /// uses after the page is shipped (the paper's `sendData` transfers the
    /// occupied portion of the block; the root is how the other side finds
    /// the `Vector` of records on it).
    ///
    /// The root slot acts as a stored reference: it keeps the root object
    /// alive even after every user handle to it is dropped, which is exactly
    /// the state a filled output page is in right before it is sealed.
    pub fn set_root<T: PcObjType>(&self, root: &Handle<T>) {
        assert!(
            self.same_block(root.block()),
            "root must live on this block"
        );
        let old = self.root_offset();
        self.inc_ref(root.offset());
        if old != 0 {
            self.dec_ref(old);
        }
        unsafe { (*self.raw()).root = root.offset() }
    }

    pub(crate) fn root_offset(&self) -> u32 {
        unsafe { (*self.raw()).root }
    }

    /// A typed handle to the block's root object.
    pub fn root_handle<T: PcObjType>(&self) -> PcResult<Handle<T>> {
        let off = self.root_offset();
        if off == 0 {
            return Err(PcError::NoRoot);
        }
        let code = self.obj_code(off);
        if code != T::type_code() {
            return Err(PcError::TypeMismatch {
                expected: registry::static_type_name::<T>(),
                found: code.0,
            });
        }
        Ok(Handle::from_stored(self.clone(), off))
    }

    /// Seals the block into a [`SealedPage`]: a `Send`, byte-movable page.
    ///
    /// Fails with [`PcError::BlockShared`] if other `BlockRef`s or `Handle`s
    /// still reference the block, and [`PcError::NoRoot`] if no root was set.
    pub fn try_seal(self) -> PcResult<SealedPage> {
        if self.root_offset() == 0 {
            return Err(PcError::NoRoot);
        }
        let block = Rc::try_unwrap(self.0).map_err(|_| PcError::BlockShared)?;
        let raw = block.inner.into_inner();
        let (used, root) = (raw.used, raw.root);
        match raw.buf {
            BufStorage::Owned(buf) => Ok(SealedPage::from_parts(buf, used, root)),
            BufStorage::Shared(_) => Err(PcError::InvalidPage(
                "cannot re-seal a shared page view".into(),
            )),
        }
    }
}

impl std::fmt::Debug for BlockRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockRef")
            .field("id", &self.id())
            .field("used", &self.used())
            .field("capacity", &self.capacity())
            .field("managed", &self.is_managed())
            .field("active_objects", &self.active_objects())
            .finish()
    }
}

/// RAII guard installing a fresh active allocation block for the current
/// thread and restoring the previous one on drop.
///
/// ```
/// use pc_object::{AllocScope, PcVec, make_object};
/// let scope = AllocScope::new(64 * 1024);
/// let v = make_object::<PcVec<i64>>().unwrap();
/// v.push(7).unwrap();
/// drop(scope); // previous active block (if any) is restored
/// assert_eq!(v.get(0), 7); // the block lives on while `v` references it
/// ```
pub struct AllocScope {
    block: BlockRef,
}

impl AllocScope {
    /// Creates a new block of `size` bytes and pushes it as active.
    pub fn new(size: usize) -> Self {
        Self::with_policy(size, AllocPolicy::LightweightReuse)
    }

    /// Creates a new block with an explicit allocation policy.
    pub fn with_policy(size: usize, policy: AllocPolicy) -> Self {
        let block = BlockRef::new(size, policy);
        crate::push_active_block(block.clone());
        AllocScope { block }
    }

    /// Installs an existing block as the active one.
    pub fn install(block: BlockRef) -> Self {
        crate::push_active_block(block.clone());
        AllocScope { block }
    }

    /// The scope's block.
    pub fn block(&self) -> &BlockRef {
        &self.block
    }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        let popped = crate::pop_active_block();
        debug_assert!(
            popped.map(|b| b.same_block(&self.block)).unwrap_or(false),
            "AllocScope dropped out of order"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PcMap, PcString, PcVec};

    crate::pc_object! {
        /// Holds one of every way a page byte gets written.
        pub struct Fixture / FixtureView {
            (name, set_name): Handle<PcString>,
            (vals, set_vals): Handle<PcVec<i64>>,
            (map, set_map): Handle<PcMap<i64, i64>>,
            (copy, set_copy): Handle<PcVec<Handle<PcString>>>,
        }
    }

    /// Builds the same page from scratch: every byte below `used` must come
    /// from the bump allocator's zeroing or an explicit write, never from
    /// whatever the fresh buffer held.
    fn build(policy: AllocPolicy) -> (SealedPage, BlockStats) {
        let src = BlockRef::new(1 << 12, AllocPolicy::LightweightReuse);
        let words = src.make_object::<PcVec<Handle<PcString>>>().unwrap();
        for w in ["a", "bcd", "efghi"] {
            words.push(PcString::make_on(&src, w).unwrap()).unwrap();
        }

        let b = BlockRef::new(1 << 14, policy);
        let root = b.make_object::<Fixture>().unwrap();
        b.set_root(&root);
        // Freed and handed out again: the vector header comes back from the
        // recycle list (Recycling) or a free list (LightweightReuse), its
        // element array from a free list, both dirty.
        let tmp = b.make_object::<PcVec<i64>>().unwrap();
        tmp.extend_from_slice(&[7; 5]).unwrap();
        drop(tmp);
        let vals = b.make_object::<PcVec<i64>>().unwrap();
        vals.extend_from_slice(&[1, 2, 3]).unwrap(); // capacity 4: one spare slot
        root.v().set_vals(vals).unwrap();
        // 4 + 3 bytes of payload: one byte of alignment padding.
        root.v()
            .set_name(PcString::make_on(&b, "odd").unwrap())
            .unwrap();
        let map = b.make_object::<PcMap<i64, i64>>().unwrap();
        map.reserve(10).unwrap();
        for k in 0..6 {
            map.insert(k, k * k).unwrap();
        }
        assert!(map.remove(&2));
        root.v().set_map(map).unwrap();
        // A cross-block store: deep-copies the vector and its strings here.
        root.v().set_copy(words).unwrap();
        assert_eq!(root.v().name().as_str(), "odd");
        assert_eq!((root.v().vals().len(), root.v().vals().capacity()), (3, 4));
        assert_eq!(root.v().map().len(), 5);
        assert_eq!(root.v().copy().get(2).as_str(), "efghi");
        let stats = b.stats();
        drop(root);
        (b.try_seal().unwrap(), stats)
    }

    #[test]
    fn the_same_page_built_twice_has_the_same_bytes() {
        for policy in [AllocPolicy::LightweightReuse, AllocPolicy::Recycling] {
            let (a, stats) = build(policy);
            let (b, _) = build(policy);
            assert!(stats.freelist_hits > 0, "{policy:?}: no free-list reuse");
            assert_eq!(stats.deep_copies, 1, "{policy:?}: no deep copy");
            if policy == AllocPolicy::Recycling {
                assert!(stats.recycle_hits > 0, "no recycle hit");
            }
            assert_eq!(a.payload(), b.payload(), "{policy:?}: page bytes differ");
        }
    }

    /// Bit `b` of the mask is set exactly when free list `b` has a head.
    fn assert_mask_matches_heads(b: &BlockRef) {
        // SAFETY: blocks are single-threaded and nothing mutates this one
        // while the shared borrow lives.
        let r = unsafe { &*b.raw() };
        for (i, &head) in r.freelists.iter().enumerate() {
            assert_eq!(r.nonempty >> i & 1 == 1, head != 0, "bucket {i}");
        }
        assert_eq!(r.nonempty >> N_BUCKETS, 0, "bits past the last bucket");
    }

    /// The chunk the allocator picked before the mask: scan every bucket from
    /// `bucket_of(total)` up and take the first head that fits, else bump.
    fn linear_scan_pick(b: &BlockRef, payload: u32) -> u32 {
        let total = OBJ_HEADER_SIZE + align_up(payload.max(1), ALIGN);
        // SAFETY: a copy of the heads, read on the block's only thread.
        let heads = unsafe { (*b.raw()).freelists };
        for &head in &heads[bucket_of(total)..] {
            if head != 0 && b.read_u32(head + 4) >= total {
                return head + OBJ_HEADER_SIZE;
            }
        }
        b.used() as u32 + OBJ_HEADER_SIZE
    }

    #[test]
    fn the_free_list_mask_picks_the_chunk_a_linear_scan_picks() {
        let b = BlockRef::new(1 << 25, AllocPolicy::LightweightReuse);
        let mut live: Vec<u32> = Vec::new();
        let mut state = 42u64;
        let mut allocs = 0;
        for _ in 0..20_000 {
            state = crate::hash::mix64(state);
            let r = state >> 8;
            if live.is_empty() || r % 100 < 55 {
                // Mostly small payloads with a tail up to 16 KiB, so requests
                // land in most buckets and often meet a head too small for
                // them.
                let payload = match r % 8 {
                    0..=4 => (r >> 8) % 64,
                    5 | 6 => (r >> 8) % 1024,
                    _ => (r >> 8) % 16384,
                } as u32;
                let want = linear_scan_pick(&b, payload);
                let off = b.alloc(payload, TypeCode(1), 0).unwrap();
                assert_eq!(off, want, "alloc #{allocs} of {payload} bytes");
                live.push(off);
                allocs += 1;
            } else {
                let i = (r >> 8) as usize % live.len();
                b.free_object(live.swap_remove(i));
            }
            assert_mask_matches_heads(&b);
        }
        assert!(allocs >= 10_000, "only {allocs} allocs");
        let stats = b.stats();
        assert!(stats.freelist_hits > 2_000, "{stats:?}");
        assert!(stats.frees > 5_000, "{stats:?}");
    }
}
