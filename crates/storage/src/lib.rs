//! # pc-storage — PlinyCompute's storage services
//!
//! The storage subsystem of §2 and Appendix D.1: a database/set **catalog**,
//! a **buffer pool** that pins pages in RAM and spills cold pages to a
//! user-level file store, and the **type catalog** simulation of PC's `.so`
//! shipping (worker-local type tables faulting to the master).
//!
//! Pages enter and leave storage as [`SealedPage`]s: writing a set to disk
//! is `memcpy` of the page payload, reading it back is the same — there is
//! no serialization layer anywhere (the object model's zero-cost movement
//! property, §3).
//!
//! [`SealedPage`]: pc_object::SealedPage

pub mod catalog;
pub mod pool;
pub mod store;

pub use catalog::{Catalog, SetMeta, WorkerTypeCatalog};
pub use pool::{BufferPool, PoolStats, SpillSet};
pub use store::{reclaim_orphaned_dirs, SetId, StorageManager};
