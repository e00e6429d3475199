//! `PcVec<T>`: the page-resident growable vector (PC's `Vector`).

use super::{alloc_array, free_array};
use crate::block::BlockRef;
use crate::error::PcResult;
use crate::handle::Handle;
use crate::traits::{stored_footprint, PcObjType, PcValue};
use std::marker::PhantomData;

/// A growable vector of `PcValue`s living on a page.
///
/// Payload layout: `{ len: u32, cap: u32, elems: u32 }` where `elems` is the
/// offset of a raw array on the same block holding `cap` fixed-width slots.
/// Growth allocates a new array on the same block and byte-copies the
/// occupied prefix — page-relative offsets inside stored handles remain
/// valid, so no per-element fix-up is ever needed.
///
/// ```
/// use pc_object::{AllocScope, PcVec, make_object};
/// let _s = AllocScope::new(1 << 16);
/// let v = make_object::<PcVec<i64>>().unwrap();
/// for i in 0..10 { v.push(i * i).unwrap(); }
/// assert_eq!(v.get(3), 9);
/// assert_eq!(v.iter().sum::<i64>(), 285);
/// ```
pub struct PcVec<T: PcValue>(PhantomData<fn() -> T>);

const OFF_LEN: u32 = 0;
const OFF_CAP: u32 = 4;
const OFF_ELEMS: u32 = 8;

impl<T: PcValue> PcObjType for PcVec<T> {
    type View<'a>
        = &'a Handle<PcVec<T>>
    where
        T: 'a;

    fn type_name() -> String {
        format!("PcVec<{}>", T::value_tag())
    }

    fn init_size() -> u32 {
        12
    }

    fn init_at(b: &BlockRef, off: u32) -> PcResult<()> {
        b.zero_range(off, 12);
        Ok(())
    }

    fn deep_copy_obj(src: &BlockRef, soff: u32, dst: &BlockRef) -> PcResult<u32> {
        let len = src.read_u32(soff + OFF_LEN);
        let selems = src.read_u32(soff + OFF_ELEMS);
        let stride = stored_footprint::<T>();
        let doff = dst.alloc(12, Self::type_code(), 0)?;
        Self::init_at(dst, doff)?;
        if len == 0 {
            return Ok(doff);
        }
        let delems = alloc_array(dst, len * stride)?;
        if T::CONTAINS_HANDLES {
            for i in 0..len {
                T::deep_copy_stored(src, selems + i * stride, dst, delems + i * stride)?;
            }
        } else {
            let bytes = src.bytes(selems, (len * stride) as usize);
            dst.write_bytes(delems, bytes);
        }
        dst.write_u32(doff + OFF_LEN, len);
        dst.write_u32(doff + OFF_CAP, len);
        dst.write_u32(doff + OFF_ELEMS, delems);
        Ok(doff)
    }

    fn drop_obj(b: &BlockRef, off: u32) {
        let len = b.read_u32(off + OFF_LEN);
        let elems = b.read_u32(off + OFF_ELEMS);
        if elems != 0 {
            if T::CONTAINS_HANDLES {
                let stride = stored_footprint::<T>();
                for i in 0..len {
                    T::drop_stored(b, elems + i * stride);
                }
            }
            free_array(b, elems);
        }
    }

    fn make_view(h: &Handle<Self>) -> Self::View<'_> {
        h
    }
}

impl<T: PcValue> Handle<PcVec<T>> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.block().read_u32(self.offset() + OFF_LEN) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated element capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.block().read_u32(self.offset() + OFF_CAP) as usize
    }

    #[inline]
    fn elems(&self) -> u32 {
        self.block().read_u32(self.offset() + OFF_ELEMS)
    }

    #[inline]
    fn slot(&self, i: usize) -> u32 {
        self.elems() + (i as u32) * stored_footprint::<T>()
    }

    /// Ensures capacity for at least `want` elements.
    pub fn reserve(&self, want: usize) -> PcResult<()> {
        if want <= self.capacity() {
            return Ok(());
        }
        let b = self.block();
        let stride = stored_footprint::<T>();
        let new_cap = want.next_power_of_two().max(4) as u32;
        let new_elems = alloc_array(b, new_cap * stride)?;
        let old = self.elems();
        let len = self.len() as u32;
        if old != 0 {
            // Bulk byte copy: stored handles are page-relative, so moving
            // slots within the block needs no reference-count churn.
            b.copy_within(old, new_elems, (len * stride) as usize);
            free_array(b, old);
        }
        b.write_u32(self.offset() + OFF_CAP, new_cap);
        b.write_u32(self.offset() + OFF_ELEMS, new_elems);
        Ok(())
    }

    /// Appends a value. Fails with `BlockFull` when the page is out of room.
    pub fn push(&self, v: T) -> PcResult<()> {
        let len = self.len();
        if len == self.capacity() {
            self.reserve(len + 1)?;
        }
        v.store(self.block(), self.slot(len))?;
        self.block()
            .write_u32(self.offset() + OFF_LEN, (len + 1) as u32);
        Ok(())
    }

    /// Reads element `i`. Panics when out of bounds.
    pub fn get(&self, i: usize) -> T {
        assert!(
            i < self.len(),
            "PcVec index {i} out of bounds (len {})",
            self.len()
        );
        T::load(self.block(), self.slot(i))
    }

    /// Overwrites element `i`, releasing whatever it referenced.
    pub fn set(&self, i: usize, v: T) -> PcResult<()> {
        assert!(
            i < self.len(),
            "PcVec index {i} out of bounds (len {})",
            self.len()
        );
        T::drop_stored(self.block(), self.slot(i));
        v.store(self.block(), self.slot(i))
    }

    /// Truncates to `new_len` elements, releasing dropped references.
    pub fn truncate(&self, new_len: usize) {
        let len = self.len();
        if new_len >= len {
            return;
        }
        if T::CONTAINS_HANDLES {
            for i in new_len..len {
                T::drop_stored(self.block(), self.slot(i));
            }
        }
        self.block()
            .write_u32(self.offset() + OFF_LEN, new_len as u32);
    }

    /// Truncates to zero length, releasing element references.
    pub fn clear(&self) {
        if T::CONTAINS_HANDLES {
            let len = self.len();
            for i in 0..len {
                T::drop_stored(self.block(), self.slot(i));
            }
        }
        self.block().write_u32(self.offset() + OFF_LEN, 0);
    }

    /// Iterates elements by value.
    pub fn iter(&self) -> PcVecIter<'_, T> {
        PcVecIter {
            vec: self,
            i: 0,
            len: self.len(),
        }
    }
}

/// Flat-element bulk operations (zero-copy views).
macro_rules! flat_views {
    ($t:ty, $slice:ident, $slice_mut:ident) => {
        impl Handle<PcVec<$t>> {
            /// Zero-copy read view of the elements.
            #[inline]
            pub fn as_slice(&self) -> &[$t] {
                let len = self.len();
                if len == 0 {
                    return &[];
                }
                self.block().$slice(self.elems(), len)
            }

            /// Zero-copy mutable view (see `BlockRef::slice_f64_mut` for the
            /// aliasing discipline).
            #[inline]
            pub fn as_mut_slice(&self) -> &mut [$t] {
                let len = self.len();
                if len == 0 {
                    return &mut [];
                }
                self.block().$slice_mut(self.elems(), len)
            }

            /// Bulk append.
            pub fn extend_from_slice(&self, src: &[$t]) -> PcResult<()> {
                let len = self.len();
                self.reserve(len + src.len())?;
                let b = self.block();
                let base = self.slot(len);
                let bytes = unsafe {
                    std::slice::from_raw_parts(
                        src.as_ptr() as *const u8,
                        std::mem::size_of_val(src),
                    )
                };
                b.write_bytes(base, bytes);
                b.write_u32(self.offset() + OFF_LEN, (len + src.len()) as u32);
                Ok(())
            }

            /// Appends `n` zeroes. Chunks reused from a free or recycle
            /// list keep their old bytes, so the fill is explicit.
            pub fn extend_zeroed(&self, n: usize) -> PcResult<()> {
                let len = self.len();
                self.reserve(len + n)?;
                let b = self.block();
                b.zero_range(self.slot(len), n * std::mem::size_of::<$t>());
                b.write_u32(self.offset() + OFF_LEN, (len + n) as u32);
                Ok(())
            }
        }
    };
}

flat_views!(f64, slice_f64, slice_f64_mut);

impl Handle<PcVec<i64>> {
    /// Zero-copy read view of the elements.
    #[inline]
    pub fn as_slice(&self) -> &[i64] {
        let len = self.len();
        if len == 0 {
            return &[];
        }
        self.block().slice_i64(self.elems(), len)
    }

    /// Bulk append.
    pub fn extend_from_slice(&self, src: &[i64]) -> PcResult<()> {
        let len = self.len();
        self.reserve(len + src.len())?;
        let b = self.block();
        let base = self.slot(len);
        let bytes = unsafe {
            std::slice::from_raw_parts(src.as_ptr() as *const u8, std::mem::size_of_val(src))
        };
        b.write_bytes(base, bytes);
        b.write_u32(self.offset() + OFF_LEN, (len + src.len()) as u32);
        Ok(())
    }
}

/// Iterator over a `PcVec`'s elements (loaded by value).
pub struct PcVecIter<'a, T: PcValue> {
    vec: &'a Handle<PcVec<T>>,
    i: usize,
    len: usize,
}

impl<T: PcValue> Iterator for PcVecIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.i >= self.len {
            return None;
        }
        let v = self.vec.get(self.i);
        self.i += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.i;
        (rem, Some(rem))
    }
}

impl<T: PcValue> ExactSizeIterator for PcVecIter<'_, T> {}
