//! # pc-core — the PlinyCompute client API
//!
//! The user-facing facade of the system (§2, §3): create sets, ship data
//! into the cluster (`send_data` moves whole allocation blocks with zero
//! serialization), and build queries through the typed, fluent
//! [`Dataset`] API. A chain of `filter` / `select` / `join` / `aggregate`
//! calls grows an immutable plan; terminals lower it
//! through the lambda → TCAP → optimizer → physical-plan path and execute
//! it across the cluster, exactly as the paper's
//! `pcClient.executeComputations(...)` does — but with the element type
//! carried in `Dataset<T>`, so a lambda over the wrong type is a compile
//! error.
//!
//! ```
//! use pc_core::prelude::*;
//!
//! pc_object! {
//!     pub struct Point / PointView {
//!         (x, set_x): f64,
//!     }
//! }
//!
//! let client = PcClient::local_small().unwrap();
//! client.create_set("Mydb", "Myset").unwrap();
//! client
//!     .store("Mydb", "Myset", 100, |i| {
//!         let p = make_object::<Point>()?;
//!         p.v().set_x(i as f64)?;
//!         Ok(p.erase())
//!     })
//!     .unwrap();
//! let big = client
//!     .set::<Point>("Mydb", "Myset")
//!     .filter(|p| p.member("x", |p| p.v().x()).gt_const(49.0))
//!     .collect()
//!     .unwrap();
//! assert_eq!(big.len(), 50);
//! ```
#![warn(missing_docs)]

pub mod client;
pub mod dataset;
pub mod prelude;

pub use client::PcClient;
pub use dataset::{Dataset, Job, Sink, Var};
pub use pc_cluster::{ClusterConfig, ClusterStats, PcCluster};
pub use pc_exec::ExecConfig;
