//! The `Computation` graph a PC user builds (§4): readers, selections,
//! multi-selections, joins, aggregations. Nodes link to their inputs by
//! `Arc`, so a graph is immutable, structurally shared, and cannot name an
//! input that does not exist; writers are not nodes but the `(root, db,
//! set)` sinks handed to [`compile`](crate::compile).
//!
//! Unlike a Spark-style dataflow DAG, the join here is a *single* n-ary
//! computation customized by lambda terms — the system, not the user,
//! decides join order and algorithms (§1's "declarative in the large").

use crate::agg::ErasedAgg;
use crate::kernel::FlatMapKernel;
use crate::lambda::LambdaTerm;
use std::sync::Arc;

/// One computation node and the nodes it reads. A node reachable from
/// several sinks (the same `Arc`) compiles to one computation.
pub struct Computation {
    pub kind: CompKind,
    pub inputs: Vec<Arc<Computation>>,
}

/// The computation families of §4. Lambda input indices refer to positions
/// in the node's `inputs`.
pub enum CompKind {
    /// Scans a stored set (`ObjectReader`); has no inputs.
    Reader { db: String, set: String },
    /// Relational selection + projection (`SelectionComp`).
    Selection {
        selection: LambdaTerm,
        projection: LambdaTerm,
    },
    /// Set-valued projection (`MultiSelectionComp`): `flatmap` emits zero or
    /// more output objects per input object.
    MultiSelection {
        flatmap: Arc<dyn FlatMapKernel>,
        label: String,
    },
    /// N-ary join (`JoinComp`) over two or more inputs: the selection lambda
    /// supplies both the join keys (equality conjuncts linking two inputs)
    /// and residual predicates.
    Join {
        selection: LambdaTerm,
        projection: LambdaTerm,
    },
    /// Aggregation (`AggregateComp`).
    Aggregate { agg: Arc<dyn ErasedAgg> },
}
