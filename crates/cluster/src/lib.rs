//! # pc-cluster — PlinyCompute's simulated distributed runtime
//!
//! Implements §2 and Appendix D on a single machine: a **master** (catalog,
//! TCAP optimizer, distributed query scheduler) plus N **workers**, each
//! with its own storage manager, buffer pool, worker type catalog, and
//! backend executor threads.
//!
//! Faithfulness notes (see DESIGN.md for the full substitution table):
//!
//! * All inter-node movement goes through one [`Transport`]: an
//!   in-process hand-over by reference (`Local`, the default and the
//!   reference: the receiver gets a clone of the sender's sealed page,
//!   sharing its immutable buffer) or checksummed frames over
//!   real loopback TCP sockets (`Tcp`: blocking `std::net`, an acceptor
//!   thread per node and a reader thread per connection; frames are
//!   encoded straight from the page's `payload()` and reassembled into a
//!   `PageWriter`). `Faulty` injects seeded faults on top of `Tcp`. Pages
//!   arrive valid with zero per-object work, and the cluster counts every
//!   shuffled byte.
//! * Distributed aggregation follows Appendix D.2: per-worker pipelining
//!   threads pre-aggregate into hash-partitioned `Map` pages, pages flow
//!   through a zero-copy pointer queue to combining threads, combined pages
//!   shuffle to the partition's owner, and aggregation threads merge and
//!   materialize.
//! * Join build sides are always broadcast (the paper's §8.3.2 rule
//!   hash-partitions large ones instead; this simulation does not).

pub mod cluster;
pub mod recovery;
pub mod stages;
pub mod testkit;
pub mod transport;
pub mod wire;

pub use cluster::{ClusterConfig, ClusterStats, PcCluster};
pub use transport::{
    FaultKind, FaultSpec, FaultyTransport, LocalTransport, TcpConfig, TcpTransport, Transport,
    TransportKind, TransportMeter, MASTER,
};
