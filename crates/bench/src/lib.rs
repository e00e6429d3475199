//! # pc-bench — gates and paper artefacts
//!
//! The `repro` binary dispatches on a name: the gates CI runs (`faults`,
//! `outofcore`, `verify`, `lint`) and one function per table and figure of
//! the paper's evaluation (§8). The tables print single-shot, laptop-scale
//! numbers; the *shape* of each comparison is what reproduces the paper.
//! How fast the engine is gets measured by `benchmark/` against
//! `BENCHMARK.json`, not here.

pub mod faults;
pub mod figures;
pub mod lint;
pub mod outofcore;
pub mod tables;
pub mod util;
pub mod verify;
