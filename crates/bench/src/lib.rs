//! # pc-bench — gates and paper artefacts
//!
//! The `repro` binary dispatches on a name: the gates CI runs (`faults`,
//! `outofcore`, `verify`, `lint`), one function per table and figure of
//! the paper's evaluation (§8), `joincost`, the join's build/probe
//! decomposition, and `aggcost`, the aggregation's pre-aggregate /
//! combine / owner-finalize decomposition. The tables print single-shot, laptop-scale
//! numbers; the *shape* of each comparison is what reproduces the paper.
//! How fast the engine is gets measured by `benchmark/` against
//! `BENCHMARK.json`, not here.

pub mod aggcost;
pub mod faults;
pub mod figures;
pub mod joincost;
pub mod lint;
pub mod outofcore;
pub mod tables;
pub mod util;
pub mod verify;
