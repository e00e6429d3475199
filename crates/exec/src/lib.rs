//! # pc-exec — PlinyCompute's vectorized execution engine
//!
//! Implements §5 and Appendix C: the physical planner that breaks an
//! optimized TCAP program into **pipelines** ending in **pipe sinks**, and
//! the vectorized executor that pushes *vector lists* (batches of columns)
//! through compiled pipeline stages.
//!
//! Key behaviours reproduced from the paper:
//!
//! * pipelines are maximal APPLY/FILTER/HASH/FLATMAP chains; they end at
//!   JOIN build inputs, AGGREGATE, OUTPUT, or any multi-consumer edge, and
//!   a probe side runs *through* a JOIN into the next stages (Figure 3);
//! * output objects are allocated **in place on the live output page**;
//!   a `BlockFull` fault retires the page (parking it as a *zombie output
//!   page* until the batch ends — Appendix C) and re-runs only the faulting
//!   row on a fresh page;
//! * join hash tables and aggregation maps are PC `Map` objects on pages,
//!   built and probed with no serialization (Appendix D).

pub mod jointable;
pub mod local;
pub mod morsel;
pub mod plan;
pub mod vlist;

pub use jointable::{JoinBuilder, JoinTable};
pub use local::{default_threads, ExecConfig, ExecStats, TMP_DB};
pub use morsel::{
    carve_morsels, fan_out, run_stage_morsels, Morsel, MorselOutput, MorselQueue, SharedTable,
};
pub use plan::{
    describe_decompositions, plan, AggDest, PhysicalPlan, PipeOp, PipelineSpec, ResolvedOp,
    ResolvedPipeline, ResolvedSink, Sink, Source,
};
pub use vlist::VectorList;
