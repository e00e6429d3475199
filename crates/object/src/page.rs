//! Sealed pages: the `Send`, byte-movable form of an allocation block.
//!
//! A [`SealedPage`] is the unit of *zero-cost data movement* (§3, §6.1): the
//! occupied prefix of a block, plus a 16-byte header recording the root
//! object. It can be
//!
//! * moved to another thread (it is `Send`; the buffer changes hands with no
//!   copy at all) or shared by reference (`clone` shares the immutable
//!   buffer — how pages cross the in-process transport),
//! * flattened to bytes and re-read (`to_bytes` / `from_bytes` — a pure
//!   `memcpy`, standing in for disk and network movement; `read_from` reads
//!   a file straight into the page's own buffer, and a [`PageWriter`]
//!   rebuilds a page from the chunks a socket delivers, copying each byte
//!   once), and
//! * re-opened as an *unmanaged* block whose handles are immediately valid.
//!
//! There is deliberately no encode/decode step anywhere in this module: the
//! page's bytes are the one representation of the data.
//!
//! A page buffer costs what it holds. Buffers come from the allocator
//! uninitialized; bytes `[0, used)` are always initialized (the block
//! allocator zeroes each chunk it bump-allocates, and a re-materialized page
//! copies or reads every byte of its buffer), and bytes above `used` are never
//! read — [`SealedPage::payload`] and everything that moves a page stop at
//! `used`. Debug builds fill each fresh buffer with a byte that changes from
//! buffer to buffer, so a page byte that wrongly depends on fresh memory
//! breaks the byte-identity tests instead of reading as a constant.

use crate::block::{BlockRef, BLOCK_HEADER_SIZE, OBJ_HEADER_SIZE};
use crate::error::{PcError, PcResult};
use crate::handle::AnyHandle;
use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;
use std::sync::Arc;

/// Magic number marking a PC page ("PCPG").
pub const PAGE_MAGIC: u32 = 0x50435047;

/// Page buffers are 16-byte aligned so that every 8-aligned offset view
/// (f64/i64 slices) is valid after any whole-page move.
pub const PAGE_ALIGN: usize = 16;

/// A heap buffer with guaranteed 16-byte alignment. Its owner tracks which
/// prefix is initialized (a block's or page's `used`); nothing here hands out
/// a reference to its bytes.
pub(crate) struct AlignedBuf {
    ptr: NonNull<u8>,
    len: usize,
}

impl AlignedBuf {
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len.max(1), PAGE_ALIGN).expect("valid layout")
    }

    fn from_raw(ptr: *mut u8, len: usize) -> Self {
        let ptr = NonNull::new(ptr).unwrap_or_else(|| handle_alloc_error(Self::layout(len)));
        AlignedBuf { ptr, len }
    }

    /// Allocates `len` bytes without initializing them: the caller writes a
    /// byte before anything reads it. In debug builds the bytes are filled
    /// with a poison byte taken from a wrapping process-wide counter, so two
    /// fresh buffers never share the same junk.
    pub(crate) fn uninit(len: usize) -> Self {
        // SAFETY: the layout has non-zero size (`len.max(1)`).
        let buf = Self::from_raw(unsafe { alloc(Self::layout(len)) }, len);
        #[cfg(debug_assertions)]
        {
            use std::sync::atomic::{AtomicU8, Ordering};
            // `Relaxed`: the counter publishes nothing but itself.
            static POISON: AtomicU8 = AtomicU8::new(0xA5);
            let byte = POISON.fetch_add(1, Ordering::Relaxed);
            // SAFETY: `ptr` is valid for writes of `len` bytes, which this
            // buffer uniquely owns.
            unsafe { std::ptr::write_bytes(buf.ptr(), byte, len) };
        }
        buf
    }

    /// Allocates `len` zeroed bytes (a buffer some reader fills through a
    /// `&mut [u8]`, which must never cover uninitialized memory).
    pub(crate) fn zeroed(len: usize) -> Self {
        // SAFETY: the layout has non-zero size (`len.max(1)`).
        Self::from_raw(unsafe { alloc_zeroed(Self::layout(len)) }, len)
    }

    /// Copies `src` into a fresh aligned buffer: every byte is written once.
    pub(crate) fn from_slice(src: &[u8]) -> Self {
        let buf = Self::uninit(src.len());
        // SAFETY: `buf` owns `src.len()` writable bytes that cannot overlap
        // the borrowed `src`; afterwards all of them are initialized.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), buf.ptr(), src.len()) };
        buf
    }

    #[inline]
    pub(crate) fn ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        // SAFETY: `ptr` was allocated by `alloc`/`alloc_zeroed` with this
        // same layout and is freed exactly once, here.
        unsafe { dealloc(self.ptr.as_ptr(), Self::layout(self.len)) };
    }
}

// SAFETY: AlignedBuf uniquely owns its allocation; moving it between threads
// transfers ownership of plain bytes.
unsafe impl Send for AlignedBuf {}
// SAFETY: `&AlignedBuf` exposes only the pointer and length; writes through
// the pointer are made by the single owner of a managed block, and a shared
// (sealed) buffer is never written.
unsafe impl Sync for AlignedBuf {}

/// Checks a page header the way every re-materialization does and returns
/// `(used, root)`: `bytes` must hold at least the header, start with
/// [`PAGE_MAGIC`], and contain the `used` prefix it claims, which covers the
/// header itself; a nonzero `root` must have its whole object header inside
/// `[BLOCK_HEADER_SIZE, used)`, so opening the page never reads outside it.
fn parse_header(bytes: &[u8]) -> PcResult<(u32, u32)> {
    if bytes.len() < BLOCK_HEADER_SIZE as usize {
        return Err(PcError::InvalidPage("shorter than page header".into()));
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let (magic, used, root) = (word(0), word(4), word(8));
    if magic != PAGE_MAGIC {
        return Err(PcError::InvalidPage(format!("bad magic {magic:#x}")));
    }
    if used as usize > bytes.len() {
        return Err(PcError::InvalidPage(format!(
            "used {used} exceeds buffer length {}",
            bytes.len()
        )));
    }
    if used < BLOCK_HEADER_SIZE {
        return Err(PcError::InvalidPage(format!(
            "used {used} is smaller than the {BLOCK_HEADER_SIZE}-byte page header"
        )));
    }
    if root != 0 && (root < BLOCK_HEADER_SIZE + OBJ_HEADER_SIZE || root > used) {
        return Err(PcError::InvalidPage(format!(
            "root {root} puts its object header outside [{BLOCK_HEADER_SIZE}, {used})"
        )));
    }
    Ok((used, root))
}

/// A sealed, self-contained page of PC objects.
///
/// The underlying buffer is `Arc`-shared so many readers (worker threads)
/// can [`open_view`](SealedPage::open_view) the same immutable page with no
/// copy at all, and [`clone`](Clone::clone) hands out another reference to
/// the same bytes: a sealed buffer is never written again, so a clone is as
/// good as a copy and costs one reference-count increment.
#[derive(Clone)]
pub struct SealedPage {
    buf: Arc<AlignedBuf>,
    used: u32,
    root: u32,
}

impl SealedPage {
    pub(crate) fn from_parts(buf: AlignedBuf, used: u32, root: u32) -> Self {
        let page = SealedPage {
            buf: Arc::new(buf),
            used,
            root,
        };
        // Persist the movable header fields into the page bytes so that a
        // byte-level copy carries them along.
        page.write_header();
        page
    }

    fn write_header(&self) {
        let p = self.buf.ptr();
        // SAFETY: a block's `used` never falls below its 16-byte header, so
        // these 12 bytes lie inside the buffer; the page is not shared yet.
        unsafe {
            std::ptr::write_unaligned(p as *mut u32, PAGE_MAGIC);
            std::ptr::write_unaligned(p.add(4) as *mut u32, self.used);
            std::ptr::write_unaligned(p.add(8) as *mut u32, self.root);
        }
    }

    /// The number of occupied bytes (the prefix that must be moved). Shipping
    /// a page costs exactly this many bytes of copy and zero CPU beyond it.
    #[inline]
    pub fn used(&self) -> usize {
        self.used as usize
    }

    /// Offset of the root object.
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The occupied bytes of the page. This *is* the wire format.
    #[inline]
    pub fn payload(&self) -> &[u8] {
        // SAFETY: bytes `[0, used)` of the buffer are initialized and
        // `used <= buf.len()` (checked by every constructor); bytes above
        // `used` are never read. The buffer is immutable once sealed and
        // lives as long as `self`.
        unsafe { std::slice::from_raw_parts(self.buf.ptr(), self.used as usize) }
    }

    /// Simulates network/disk movement: flatten to owned bytes (one memcpy).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.payload().to_vec()
    }

    /// Re-materializes a page from bytes produced by [`to_bytes`]
    /// (one memcpy; no per-object work of any kind).
    ///
    /// [`to_bytes`]: SealedPage::to_bytes
    pub fn from_bytes(bytes: &[u8]) -> PcResult<Self> {
        let (used, root) = parse_header(bytes)?;
        Ok(SealedPage {
            buf: Arc::new(AlignedBuf::from_slice(bytes)),
            used,
            root,
        })
    }

    /// Reads a page of `len` bytes (as written from [`payload`]) from `r`
    /// straight into the page's own buffer — one read, no intermediate
    /// `Vec` — and checks its header exactly as [`from_bytes`] does. A short
    /// read or a damaged header is an error, never a panic.
    ///
    /// [`payload`]: SealedPage::payload
    /// [`from_bytes`]: SealedPage::from_bytes
    pub fn read_from(r: &mut impl std::io::Read, len: usize) -> PcResult<Self> {
        if len > u32::MAX as usize {
            return Err(PcError::InvalidPage(format!(
                "{len} bytes exceed the page size limit"
            )));
        }
        let buf = AlignedBuf::zeroed(len);
        // SAFETY: `zeroed` initialized all `len` bytes, and `buf` is owned
        // here, so this is the only reference to them until it drops.
        let bytes = unsafe { std::slice::from_raw_parts_mut(buf.ptr(), len) };
        r.read_exact(bytes)
            .map_err(|e| PcError::InvalidPage(format!("page read failed: {e}")))?;
        let (used, root) = parse_header(bytes)?;
        Ok(SealedPage {
            buf: Arc::new(buf),
            used,
            root,
        })
    }

    /// Opens the page as an unmanaged block plus a handle to its root object.
    ///
    /// The receiving side must have the root's type registered (in the full
    /// system the catalog ships the `.so`; here, the registry must know the
    /// type code — `pc-storage`'s worker catalogs simulate the faulting).
    pub fn open(self) -> PcResult<(BlockRef, AnyHandle)> {
        self.open_view()
    }

    /// Opens a zero-copy read view of the page: the returned block shares
    /// the page buffer, so any number of threads may hold views of the same
    /// page concurrently (each view's handles are thread-local; the bytes
    /// are immutable).
    pub fn open_view(&self) -> PcResult<(BlockRef, AnyHandle)> {
        let root = self.root;
        if root == 0 {
            return Err(PcError::NoRoot);
        }
        let block = BlockRef::from_shared(self.buf.clone(), self.used, root);
        let code = block.obj_code(root);
        if crate::registry::lookup_vtable(code).is_none() {
            return Err(PcError::TypeNotRegistered(code.0));
        }
        let handle = AnyHandle::new(block.clone(), root);
        Ok((block, handle))
    }

    /// Opens the page without resolving the root (used by storage scans that
    /// know the type statically).
    pub fn open_block(&self) -> BlockRef {
        BlockRef::from_shared(self.buf.clone(), self.used, self.root)
    }
}

/// A page arriving in pieces (a network receiver's chunks): an aligned
/// buffer of fixed capacity, filled front to back, that seals into a
/// [`SealedPage`] with no further copy. Each byte is copied in exactly once,
/// by [`append`](PageWriter::append), and only the filled prefix is ever
/// read.
pub struct PageWriter {
    buf: AlignedBuf,
    filled: usize,
}

impl PageWriter {
    /// An empty page of room for `capacity` bytes, refused past the page
    /// size limit before anything is allocated.
    pub fn with_capacity(capacity: usize) -> PcResult<Self> {
        if capacity > u32::MAX as usize {
            return Err(PcError::InvalidPage(format!(
                "{capacity} bytes exceed the page size limit"
            )));
        }
        Ok(PageWriter {
            buf: AlignedBuf::uninit(capacity),
            filled: 0,
        })
    }

    /// Bytes appended so far.
    #[inline]
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Copies `bytes` in after what is already there; an error, with
    /// nothing written, if they do not fit.
    pub fn append(&mut self, bytes: &[u8]) -> PcResult<()> {
        if bytes.len() > self.buf.len() - self.filled {
            return Err(PcError::InvalidPage(format!(
                "{} more bytes overflow a {}-byte page holding {}",
                bytes.len(),
                self.buf.len(),
                self.filled
            )));
        }
        // SAFETY: `[filled, filled + bytes.len())` lies inside the buffer
        // (checked above), which this writer owns and `bytes` cannot alias.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                self.buf.ptr().add(self.filled),
                bytes.len(),
            )
        };
        self.filled += bytes.len();
        Ok(())
    }

    /// The finished page, its header checked over the filled bytes exactly
    /// as [`SealedPage::from_bytes`] checks a whole byte string.
    pub fn seal(self) -> PcResult<SealedPage> {
        // SAFETY: `append` initialized `[0, filled)`, and nothing else
        // references the buffer while this writer owns it.
        let bytes = unsafe { std::slice::from_raw_parts(self.buf.ptr(), self.filled) };
        let (used, root) = parse_header(bytes)?;
        Ok(SealedPage {
            buf: Arc::new(self.buf),
            used,
            root,
        })
    }
}

impl std::fmt::Debug for SealedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealedPage")
            .field("used", &self.used)
            .field("root", &self.root)
            .field("capacity", &self.buf.len())
            .finish()
    }
}
