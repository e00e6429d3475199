//! `PcString`: the page-resident string (PC's `String`).
//!
//! Strings are variable-length objects: `{ len: u32, bytes... }` inline in
//! the allocation. As §8.4.3 notes, PC strings are deliberately compact —
//! no cached hash value — so hashing and comparison always walk the bytes.

use crate::block::{BlockRef, FLAG_VAR_SIZE};
use crate::error::PcResult;
use crate::handle::Handle;
use crate::registry::TypeCode;
use crate::traits::{PcKey, PcObjType};

/// A page-resident immutable string.
///
/// ```
/// use pc_object::{AllocScope, PcString};
/// let _s = AllocScope::new(4096);
/// let name = PcString::make("ACME Corp").unwrap();
/// assert_eq!(name.as_str(), "ACME Corp");
/// ```
pub struct PcString(());

impl PcString {
    /// Allocates a string on the active block.
    pub fn make(s: &str) -> PcResult<Handle<PcString>> {
        let block = crate::current_block().ok_or(crate::error::PcError::NoActiveBlock)?;
        Self::make_on(&block, s)
    }

    /// Allocates a string on a specific block.
    pub fn make_on(block: &BlockRef, s: &str) -> PcResult<Handle<PcString>> {
        Self::ensure_registered();
        let payload = 4 + s.len() as u32;
        let off = block.alloc(payload, Self::type_code(), FLAG_VAR_SIZE)?;
        block.write_u32(off, s.len() as u32);
        block.write_bytes(off + 4, s.as_bytes());
        Ok(Handle::adopt(block.clone(), off))
    }
}

impl PcObjType for PcString {
    type View<'a> = &'a Handle<PcString>;

    const VAR_SIZE: bool = true;

    fn type_name() -> String {
        "PcString".to_string()
    }

    fn type_code() -> TypeCode {
        // Fixed well-known code so every worker resolves strings identically.
        TypeCode(0x5043_5354) // "PCST"
    }

    fn init_size() -> u32 {
        4
    }

    fn init_at(b: &BlockRef, off: u32) -> PcResult<()> {
        b.write_u32(off, 0);
        Ok(())
    }

    fn deep_copy_obj(src: &BlockRef, soff: u32, dst: &BlockRef) -> PcResult<u32> {
        let len = src.read_u32(soff);
        let off = dst.alloc(4 + len, Self::type_code(), FLAG_VAR_SIZE)?;
        dst.write_u32(off, len);
        dst.write_bytes(off + 4, src.bytes(soff + 4, len as usize));
        Ok(off)
    }

    fn drop_obj(_b: &BlockRef, _off: u32) {}

    fn make_view(h: &Handle<Self>) -> Self::View<'_> {
        h
    }
}

impl Handle<PcString> {
    /// Byte length of the string.
    #[inline]
    pub fn str_len(&self) -> usize {
        self.block().read_u32(self.offset()) as usize
    }

    /// The raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.block().bytes(self.offset() + 4, self.str_len())
    }

    /// The string contents. Panics if the page bytes are not valid UTF-8
    /// (possible only with a corrupted page).
    #[inline]
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("PcString holds invalid UTF-8")
    }

    /// Hash of the contents (computed on the fly — never cached, §8.4.3).
    /// Equal to [`crate::hash::hash_bytes`] over [`Self::as_bytes`], as every
    /// string-key hash in the engine is.
    #[inline]
    pub fn hash_bytes(&self) -> u64 {
        crate::hash::hash_bytes(self.as_bytes())
    }
}

impl PcKey for Handle<PcString> {
    fn hash_val(&self) -> u64 {
        self.hash_bytes()
    }

    fn eq_stored(&self, b: &BlockRef, at: u32) -> bool {
        let (off, _) = b.read::<(u32, u32)>(at);
        if off == 0 {
            return false;
        }
        let len = b.read_u32(off) as usize;
        b.bytes(off + 4, len) == self.as_bytes()
    }

    fn stored_eq(a: &BlockRef, aat: u32, b: &BlockRef, bat: u32) -> bool {
        let (aoff, _) = a.read::<(u32, u32)>(aat);
        let (boff, _) = b.read::<(u32, u32)>(bat);
        if aoff == 0 || boff == 0 {
            return aoff == boff;
        }
        let alen = a.read_u32(aoff) as usize;
        let blen = b.read_u32(boff) as usize;
        alen == blen && a.bytes(aoff + 4, alen) == b.bytes(boff + 4, blen)
    }
}

impl PartialEq for Handle<PcString> {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Handle<PcString> {}
