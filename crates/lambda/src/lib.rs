//! # pc-lambda — PlinyCompute's lambda calculus and Computation API
//!
//! This crate implements §4 of the paper: the domain-specific lambda
//! calculus a PC programmer uses to *describe* computations (not run them),
//! the [`Computation`] graph (`SelectionComp`, `JoinComp`, `AggregateComp`,
//! `MultiSelectionComp` and readers, linked to their inputs by `Arc`), and
//! the **TCAP [`compile`]r** that lowers the graphs under a job's sinks into
//! a [`pc_tcap::TcapProgram`] plus a *stage library* mapping every TCAP
//! stage name to compiled, vectorized kernel code. `pc-core`'s typed
//! `Dataset` builds the graph; nothing copies it before compilation.
//!
//! A lambda term is built from the paper's abstraction families —
//! [`make_lambda_from_member`], [`make_lambda_from_method`],
//! [`make_lambda`] (native code), [`make_lambda_from_self`] — and composed
//! with higher-order functions (`.eq()`, `.gt()`, `.and()`, arithmetic).
//! Crucially, a term carries **two** things:
//!
//! 1. *metadata* (`attName`, `methodName`, operator kinds) that the TCAP
//!    optimizer reasons over, and
//! 2. a *kernel*: a monomorphized batch function — the Rust analogue of the
//!    template-metaprogramming-generated pipeline stages of §5.3, paying one
//!    dynamic dispatch per vector, none per object.
//!
//! A programmer who hides everything inside [`make_lambda`] gets a working
//! but unoptimizable plan — exactly the trade-off §4 describes.

pub mod agg;
pub mod column;
pub mod compiler;
pub mod computation;
pub mod kernel;
pub mod lambda;
pub mod sink;

pub use agg::{
    AggKey, AggPage, AggSinkStats, AggregateSpec, ErasedAgg, ErasedAggMerger, ErasedAggSink,
    SpillCtx,
};
pub use column::{ColValue, Column, ColumnPool};
pub use compiler::{compile, CompiledQuery, StageKernel, StageLibrary};
pub use computation::{CompKind, Computation};
pub use kernel::{for_each_sel, sel_len, ColumnKernel, ExecCtx, FlatMapKernel};
pub use lambda::{
    make_lambda, make_lambda2, make_lambda3, make_lambda_from_member, make_lambda_from_method,
    make_lambda_from_self, BinOp, ConstVal, Lambda, LambdaTerm,
};
pub use sink::SetWriter;
