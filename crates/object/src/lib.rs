//! # pc-object — the PlinyCompute object model
//!
//! A Rust implementation of the PC object model described in §3, §6 and
//! Appendix B of *PlinyCompute: A Platform for High-Performance, Distributed,
//! Data-Intensive Tool Development* (Zou et al., SIGMOD 2018).
//!
//! The object model follows the **page-as-a-heap** principle: all objects are
//! allocated in place on a block of memory (a page), referenced through
//! offset-based [`Handle`]s, and a populated block can be *sealed* and moved
//! to disk, across threads, or byte-copied over a simulated network with
//! **zero serialization or deserialization cost** — the block's bytes are the
//! one and only representation of the data.
//!
//! ## Quick tour
//!
//! ```
//! use pc_object::{AllocScope, PcVec, Handle, make_object};
//!
//! // One megabyte allocation block; all make_object calls target it.
//! let _scope = AllocScope::new(1024 * 1024);
//! let v: Handle<PcVec<f64>> = make_object().unwrap();
//! for i in 0..100 {
//!     v.push(i as f64).unwrap();
//! }
//! assert_eq!(v.len(), 100);
//! assert_eq!(v.get(42), 42.0);
//! ```
//!
//! ## Components
//!
//! * [`block`] — the raw page heap: bump allocation with per-size-class free
//!   lists, object headers carrying reference counts, the three allocation
//!   policies of Appendix B.
//! * [`handle`] — user-side [`Handle<T>`] smart pointers and untyped
//!   [`AnyHandle`]s; stored handles are `{offset, type_code}` pairs that stay
//!   valid when the whole page moves.
//! * [`registry`] — the process-wide type catalog mapping type codes to
//!   "vtables" (deep copy, drop), the analogue of PC's `.so` shipping and
//!   `getVTablePtr()` lookup: an append-only table that the first touch of
//!   a type publishes into under a mutex and every later `make_object`,
//!   handle store, downcast and drop reads without a lock.
//! * [`containers`] — [`PcVec`], [`PcMap`], [`PcString`]: the built-in
//!   generic container objects.
//! * [`page`] — [`SealedPage`]: a detached, `Send`, byte-movable page.
//! * [`sync`] — the workspace's lock policy: every `std::sync` lock is
//!   taken through it, and a lock whose holder panicked is still usable.
//! * [`pc_object!`](crate::pc_object) — declare user object types with
//!   handle-aware fields (the analogue of deriving from PC's `Object`).

pub mod anyobj;
pub mod block;
pub mod budget;
pub mod containers;
pub mod error;
pub mod handle;
pub mod hash;
pub mod page;
pub mod registry;
pub mod sync;
pub mod traits;

#[macro_use]
mod macros;

pub use anyobj::AnyObj;
pub use block::{AllocPolicy, AllocScope, BlockRef, BlockStats, ObjectPolicy};
pub use budget::{MemoryBudget, MemoryGrant, PageSpiller, PressureSpec};
pub use containers::{
    JoinPage, JoinPageWriter, MapPage, MapPageBuilder, OpenJoinPage, PcMap, PcString, PcVec,
    SetPage,
};
pub use error::{PcError, PcResult};
pub use handle::{AnyHandle, Handle};
pub use page::{PageWriter, SealedPage};
pub use registry::{
    ensure_builtins_registered, lookup_vtable, register_type, TypeCode, TypeVTable,
};
pub use traits::{Flat, PcKey, PcObjType, PcValue};

use std::cell::RefCell;

thread_local! {
    static ACTIVE_BLOCK: RefCell<Vec<BlockRef>> = const { RefCell::new(Vec::new()) };
}

/// Returns the thread's current active allocation block, if any.
pub fn current_block() -> Option<BlockRef> {
    ACTIVE_BLOCK.with(|b| b.borrow().last().cloned())
}

/// Pushes `block` as the thread's active allocation block.
///
/// The previously active block (if any) becomes *inactive, managed*: it stays
/// alive for as long as handles reference objects on it. Prefer
/// [`AllocScope`] for RAII management.
pub fn push_active_block(block: BlockRef) {
    ACTIVE_BLOCK.with(|b| b.borrow_mut().push(block));
}

/// Pops the active allocation block, restoring the previous one.
pub fn pop_active_block() -> Option<BlockRef> {
    ACTIVE_BLOCK.with(|b| b.borrow_mut().pop())
}

/// Allocates a fresh block of `size` bytes and makes it the active block.
///
/// This is the analogue of the paper's `makeObjectAllocatorBlock(blockSize)`.
pub fn make_object_allocator_block(size: usize) -> BlockRef {
    let block = BlockRef::new(size, AllocPolicy::LightweightReuse);
    push_active_block(block.clone());
    block
}

/// Allocates a default-initialized object of type `T` on the active block.
///
/// The analogue of the paper's `makeObject<T>()`. Fails with
/// [`PcError::BlockFull`] when the active page cannot fit the object — the
/// execution engine treats that fault as "page full" and rolls a new page.
pub fn make_object<T: PcObjType>() -> PcResult<Handle<T>> {
    let block = current_block().ok_or(PcError::NoActiveBlock)?;
    block.make_object::<T>()
}

/// Allocates an object with an explicit per-object policy (Appendix B):
/// `ObjectPolicy::NoRefCount` or `ObjectPolicy::Unique`.
pub fn make_object_with_policy<T: PcObjType>(policy: ObjectPolicy) -> PcResult<Handle<T>> {
    let block = current_block().ok_or(PcError::NoActiveBlock)?;
    block.make_object_with_policy::<T>(policy)
}
