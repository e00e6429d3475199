//! # pc-tcap — the TCAP intermediate language
//!
//! TCAP ("tee-cap") is the functional, relational-algebra-like domain
//! specific language that PlinyCompute compiles all user computations into
//! (§5.2, §7). A TCAP program is a DAG of statements, each producing a named
//! *vector list* from the vector lists of earlier statements:
//!
//! ```text
//! WDNm_1(dep,emp,sup,nm1) <= APPLY(In(dep), In(dep,emp,sup), 'Join_2212',
//!     'att_acc_1', [('type', 'attAccess'), ('attName', 'deptName')]);
//! WBl_1(dep,emp,sup,bl) <= APPLY(WDNm_1(nm1), WDNm_1(dep,emp,sup), 'Join_2212',
//!     '==_3', [('type', 'equalityCheck')]);
//! Flt_1(dep,emp,sup) <= FILTER(WBl_1(bl), WBl_1(dep,emp,sup), 'Join_2212', []);
//! ```
//!
//! This crate provides:
//!
//! * [`ir`] — the statement/operation types and [`TcapProgram`];
//! * [`parse`] — a parser for the paper's concrete syntax;
//! * printing via `Display`, matching the paper's syntax token for token;
//! * [`analyze`] — DAG structure, ancestor queries, and column provenance;
//! * [`optimize`](crate::optimize()) — the rule-based optimizer of §7 (redundant-method-call
//!   elimination, selection push-down past joins, dead-column pruning),
//!   fired iteratively to a fixpoint. The original system implements these
//!   rules in Prolog; the semantics here follow the paper's §7 examples.
//! * [`verify`](crate::verify()) — the multi-pass static verifier: well-formedness,
//!   type flow, and liveness lints with stable `TVnnnn` error codes and
//!   rustc-style rendered diagnostics. The optimizer asserts
//!   verify-cleanliness after every rule application (debug-default), and
//!   the executors verify every plan before accepting it.
//! * [`mutate`](mod@mutate) — the seeded plan mutator behind the
//!   verifier's mutation gauntlet (~11 classes of deliberately-broken
//!   rewrites, each with the `TV` code the verifier must raise).

pub mod analyze;
pub mod ir;
pub mod mutate;
pub mod optimize;
pub mod parse;
pub mod verify;

pub use analyze::{CycleError, Provenance, TcapGraph};
pub use ir::{ColRef, TcapOp, TcapProgram, TcapStmt, VecListDecl};
pub use mutate::{mutate, Mutation, MutationKind, ALL_MUTATIONS};
pub use optimize::{optimize, optimize_with, OptimizerReport, OptimizerRule};
pub use parse::{parse_program, ParseError};
pub use verify::{verify, ColType, Diagnostic, Severity, VerifyReport};
