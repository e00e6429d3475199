//! One-stop imports for PlinyCompute applications.
//!
//! Queries are built through the typed fluent API — [`Dataset`], [`Job`],
//! [`Sink`], [`Var`] — whose `Computation` graph compiles to TCAP.

pub use crate::client::PcClient;
pub use crate::dataset::{Dataset, Job, Sink, Var};
pub use pc_cluster::{ClusterConfig, ClusterStats, PcCluster};
pub use pc_exec::ExecConfig;
pub use pc_lambda::{AggKey, AggregateSpec, Lambda, SetWriter};
pub use pc_object::{
    make_object, make_object_allocator_block, make_object_with_policy, pc_flat, pc_object,
    AllocPolicy, AllocScope, AnyHandle, AnyObj, BlockRef, Handle, ObjectPolicy, PcError, PcMap,
    PcObjType, PcResult, PcString, PcValue, PcVec, SealedPage,
};
