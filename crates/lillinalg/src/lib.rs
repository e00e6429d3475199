//! # lillinalg — distributed linear algebra on PlinyCompute (§8.3)
//!
//! The paper's `lilLinAlg`: a small Matlab-like language and library for
//! distributed matrix operations, built by one developer on top of PC to
//! test the platform's fitness for tool construction.
//!
//! * Huge matrices are chunked into [`MatrixBlock`] PC objects (§6.1's
//!   example class), each holding a contiguous sub-matrix in a page-resident
//!   `PcVec<f64>` that numeric kernels address **in place** — the Rust
//!   analogue of handing Eigen a raw `c_ptr()` into the page (§8.3.1).
//! * Distributed multiply is a `JoinComp` (pair blocks on inner index,
//!   multiply chunk pairs) followed by an `AggregateComp` (sum partial
//!   products) — the paper's `LAMultiplyJoin` / `LAMultiplyAggregate`.
//! * [`dsl`] parses the Matlab-like surface syntax, e.g. the paper's least
//!   squares one-liner `beta = (X '* X)^-1 %*% (X '* y)`.
//! * [`kernels`] provides the dense math (a naive matmul and one packed,
//!   register-tiled GEMM serving both `A·B` and `AᵀB` — the "GSL vs Eigen"
//!   axis of Table 8 — plus Gauss-Jordan inversion).

pub mod dsl;
pub mod kernels;
pub mod matrix;

pub use dsl::LilLinAlg;
pub use kernels::DenseMatrix;
pub use matrix::{DistMatrix, MatrixBlock};
