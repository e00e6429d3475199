//! Built-in container objects: [`PcVec`], [`PcMap`], [`PcString`], the
//! [`MapPageBuilder`] that builds hash-partitioned `PcMap` pages, the
//! write-once [`JoinPage`] a join table's pages are rooted at, and
//! [`SetPage`], which writes a stored set's page root once at seal.
//!
//! These are the generic, page-resident analogues of PC's `Vector`, `Map`
//! and `String` (§6.1). Their storage lives entirely on the owning block:
//! a container object holds the offset of a *raw array* allocation on the
//! same block, so a sealed page carries the container and its contents as
//! one contiguous range of bytes.

mod join_page;
mod map;
mod map_pages;
mod string;
mod vec;

pub use join_page::{JoinPage, JoinPageWriter, OpenJoinPage};
pub use map::PcMap;
pub use map_pages::{partition_of, round_partitions, Escalation, MapPage, MapPageBuilder, Scatter};
pub use string::PcString;
pub use vec::{PcVec, SetPage};

use crate::block::{BlockRef, FLAG_NO_REFCOUNT, FLAG_VAR_SIZE, OBJ_HEADER_SIZE};
use crate::error::PcResult;
use crate::registry::TypeCode;

/// Type code for headerless raw array allocations backing containers.
pub(crate) const RAW_ARRAY_CODE: TypeCode = TypeCode(0x5043_5241); // "PCRA"

/// Allocates a zeroed raw array of `bytes` on `b`. Raw arrays are owned by
/// exactly one container, are not reference counted, and are variable-length
/// (hence never recycled — Appendix B).
pub(crate) fn alloc_array(b: &BlockRef, bytes: u32) -> PcResult<u32> {
    let off = b.alloc(bytes, RAW_ARRAY_CODE, FLAG_NO_REFCOUNT | FLAG_VAR_SIZE)?;
    b.zero_range(off, bytes as usize);
    Ok(off)
}

/// Bytes an allocation of `bytes` payload takes from a block's bump region.
pub(crate) fn array_bytes(bytes: usize) -> usize {
    OBJ_HEADER_SIZE as usize + crate::traits::align8(bytes.max(1) as u32) as usize
}

/// Frees a raw array previously allocated with [`alloc_array`].
pub(crate) fn free_array(b: &BlockRef, off: u32) {
    if off != 0 && b.is_managed() {
        b.free_object(off);
    }
}
