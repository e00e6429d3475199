//! User-side handles (§6.2, §6.3).
//!
//! A [`Handle<T>`] is what the paper calls a "pointer-like object": it names
//! an object by page-relative offset plus the page it lives on. Inside page
//! memory, handles are stored as `{offset, type_code}` pairs; in Rust code a
//! `Handle` additionally pins the block (`Rc`) so the "inactive, managed
//! block stays alive while reachable" rule of §6.4 holds automatically.
//!
//! [`AnyHandle`] is the untyped form used by the execution engine; it
//! resolves behaviour through the type-code registry, which is the analogue
//! of PC's vTable-pointer fixup on dereference (§6.3).

use crate::block::BlockRef;
use crate::error::{PcError, PcResult};
use crate::registry::{self, TypeCode};
use crate::traits::PcObjType;
use std::marker::PhantomData;

/// A typed, reference-counted handle to a PC object.
///
/// `#[repr(C)]` with the same leading fields as [`AnyHandle`], so the
/// engine can borrow an untyped handle as a typed one without touching
/// reference counts (see [`AnyHandle::typed_ref`]).
#[repr(C)]
pub struct Handle<T: PcObjType> {
    block: BlockRef,
    off: u32,
    _pd: PhantomData<fn() -> T>,
}

impl<T: PcObjType> Handle<T> {
    /// Wraps a freshly allocated object (refcount 0 → 1).
    pub(crate) fn adopt(block: BlockRef, off: u32) -> Self {
        block.inc_ref(off);
        Handle {
            block,
            off,
            _pd: PhantomData,
        }
    }

    /// Materializes a handle from a stored slot (bumps the refcount).
    pub(crate) fn from_stored(block: BlockRef, off: u32) -> Self {
        block.inc_ref(off);
        Handle {
            block,
            off,
            _pd: PhantomData,
        }
    }

    /// A null handle (the analogue of `Handle<T> h = nullptr`).
    pub fn null(block: BlockRef) -> Self {
        Handle {
            block,
            off: 0,
            _pd: PhantomData,
        }
    }

    #[inline]
    pub fn is_null(&self) -> bool {
        self.off == 0
    }

    /// Page-relative offset of the object payload.
    #[inline]
    pub fn offset(&self) -> u32 {
        self.off
    }

    /// The block the object lives on.
    #[inline]
    pub fn block(&self) -> &BlockRef {
        &self.block
    }

    /// The object's registered type code.
    #[inline]
    pub fn type_code(&self) -> TypeCode {
        T::type_code()
    }

    /// Current reference count (0 on unmanaged blocks where counting is off).
    pub fn ref_count(&self) -> u32 {
        if self.off == 0 {
            0
        } else {
            self.block.obj_rc(self.off)
        }
    }

    /// Typed field-accessor view (generated by [`pc_object!`](crate::pc_object)).
    #[inline]
    pub fn v(&self) -> T::View<'_> {
        T::make_view(self)
    }

    /// Erases the type.
    pub fn erase(&self) -> AnyHandle {
        AnyHandle::new(self.block.clone(), self.off)
    }

    /// Deep-copies the object into `dst` and returns the copy's handle.
    pub fn deep_copy_to(&self, dst: &BlockRef) -> PcResult<Handle<T>> {
        if self.is_null() {
            return Ok(Handle::null(dst.clone()));
        }
        let off = T::deep_copy_obj(&self.block, self.off, dst)?;
        Ok(Handle::adopt(dst.clone(), off))
    }
}

impl<T: PcObjType> Clone for Handle<T> {
    fn clone(&self) -> Self {
        if self.off != 0 {
            self.block.inc_ref(self.off);
        }
        Handle {
            block: self.block.clone(),
            off: self.off,
            _pd: PhantomData,
        }
    }
}

impl<T: PcObjType> Drop for Handle<T> {
    fn drop(&mut self) {
        if self.off != 0 {
            self.block.dec_ref(self.off);
        }
    }
}

impl<T: PcObjType> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_null() {
            write!(f, "Handle<{}>(null)", T::type_name())
        } else {
            write!(
                f,
                "Handle<{}>@{}+{}",
                T::type_name(),
                self.block.id(),
                self.off
            )
        }
    }
}

/// An untyped handle: the engine's currency. Carries the block and offset;
/// the type code is read from the object header and resolved through the
/// registry when dynamic behaviour (deep copy, drop) is needed.
#[repr(C)]
pub struct AnyHandle {
    block: BlockRef,
    off: u32,
}

impl AnyHandle {
    pub fn new(block: BlockRef, off: u32) -> Self {
        block.inc_ref(off);
        AnyHandle { block, off }
    }

    #[inline]
    pub fn offset(&self) -> u32 {
        self.off
    }

    #[inline]
    pub fn block(&self) -> &BlockRef {
        &self.block
    }

    /// The object's type code, read from its header.
    pub fn type_code(&self) -> TypeCode {
        self.block.obj_code(self.off)
    }

    /// Attempts a typed downcast; checks the header type code.
    pub fn downcast<T: PcObjType>(&self) -> PcResult<Handle<T>> {
        let code = self.type_code();
        if code != T::type_code() {
            return Err(PcError::TypeMismatch {
                expected: registry::static_type_name::<T>(),
                found: code.0,
            });
        }
        Ok(Handle::from_stored(self.block.clone(), self.off))
    }

    /// Downcast without the header check (used in hot engine loops where the
    /// column's type was already verified once per batch).
    pub fn downcast_unchecked<T: PcObjType>(&self) -> Handle<T> {
        Handle::from_stored(self.block.clone(), self.off)
    }

    /// Borrows this untyped handle as a typed one without touching any
    /// reference count: the borrow keeps `self` — and through it the block
    /// pin and the object reference — alive. The zero-cost per-row view for
    /// hot batch loops whose column type was verified once per batch; the
    /// caller is responsible for the type being right, exactly as with
    /// [`downcast_unchecked`](Self::downcast_unchecked).
    #[inline]
    pub fn typed_ref<T: PcObjType>(&self) -> &Handle<T> {
        // SAFETY: both structs are `#[repr(C)]` with identical leading
        // fields (`BlockRef`, `u32`), and `Handle`'s trailing `PhantomData`
        // is zero-sized, so the layouts coincide. The returned reference
        // cannot outlive `self`, which owns the reference count.
        unsafe { &*(self as *const AnyHandle as *const Handle<T>) }
    }

    /// Deep-copies into `dst` using the registered vtable (dynamic dispatch
    /// through the type catalog — the engine's path for objects whose static
    /// type it does not know).
    pub fn deep_copy_to(&self, dst: &BlockRef) -> PcResult<AnyHandle> {
        let code = self.type_code();
        let vt = registry::lookup_vtable(code).ok_or(PcError::TypeNotRegistered(code.0))?;
        let off = (vt.deep_copy)(&self.block, self.off, dst)?;
        Ok(AnyHandle::new(dst.clone(), off))
    }
}

impl Clone for AnyHandle {
    fn clone(&self) -> Self {
        self.block.inc_ref(self.off);
        AnyHandle {
            block: self.block.clone(),
            off: self.off,
        }
    }
}

impl Drop for AnyHandle {
    fn drop(&mut self) {
        self.block.dec_ref(self.off);
    }
}

impl std::fmt::Debug for AnyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AnyHandle@{}+{} (code {:#x})",
            self.block.id(),
            self.off,
            self.type_code().0
        )
    }
}
