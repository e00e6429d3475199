//! The typed, fluent query surface: [`Dataset<T>`], [`Job`], and [`Sink`].
//!
//! This is the user-facing face of §4's "declarative in the large": a
//! [`Dataset<T>`] is a handle to a (stored or derived) collection of `T`
//! objects, and every operator — [`filter`](Dataset::filter),
//! [`select`](Dataset::select), [`flat_map`](Dataset::flat_map),
//! [`join`](Dataset::join), [`aggregate`](Dataset::aggregate) — returns a
//! new `Dataset` whose element type is tracked in the type parameter.
//! Lambdas are built against a typed [`Var<T>`] cursor, so a predicate or
//! projection over the wrong element type is a *compile* error, not a
//! runtime surprise.
//!
//! Nothing executes while a chain is built. Each operator adds one node to
//! an immutable, structurally shared [`Computation`] graph (`Arc` links);
//! terminals hand the graph to [`pc_lambda::compile`] — TCAP compilation →
//! optimization → physical planning — and run it on the cluster. When a
//! [`Job`] carries several sinks whose chains share an upstream prefix, the
//! shared nodes compile to a *single* computation: the planner materializes
//! the multi-consumer edge once and the shared stage executes exactly once.
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
//! client.create_or_clear_set("db", "pts").unwrap();
//! client
//!     .store("db", "pts", 100, |i| {
//!         let p = make_object::<Point>()?;
//!         p.v().set_x(i as f64)?;
//!         Ok(p.erase())
//!     })
//!     .unwrap();
//! let big = client
//!     .set::<Point>("db", "pts")
//!     .filter(|p| p.member("x", |p| p.v().x()).gt_const(90.0))
//!     .collect()
//!     .unwrap();
//! assert_eq!(big.len(), 9);
//! ```

use crate::client::PcClient;
use pc_cluster::ClusterStats;
use pc_lambda::kernel::FlatMap1;
use pc_lambda::{
    make_lambda, make_lambda2, make_lambda3, make_lambda_from_member, make_lambda_from_method,
    make_lambda_from_self, AggregateSpec, ColValue, CompKind, CompiledQuery, Computation, Lambda,
};
use pc_object::{AnyHandle, Handle, PcError, PcObjType, PcResult};
use std::collections::HashSet;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Collects every reader's `(db, set)` reachable from `node`.
fn sources(node: &Computation, out: &mut Vec<(String, String)>) {
    if let CompKind::Reader { db, set } = &node.kind {
        out.push((db.clone(), set.clone()));
    }
    for i in &node.inputs {
        sources(i, out);
    }
}

// ------------------------------------------------------------------- vars

/// A typed cursor over one input of a computation, handed to the closures
/// of [`Dataset::filter`] and [`Dataset::join`]. Its methods build the
/// paper's §4 lambda abstraction families with the element type pinned to
/// the dataset's — extracting from the wrong type does not compile.
pub struct Var<T: PcObjType> {
    input: usize,
    _pd: PhantomData<fn(&T)>,
}

impl<T: PcObjType> Clone for Var<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: PcObjType> Copy for Var<T> {}

impl<T: PcObjType> Var<T> {
    fn new(input: usize) -> Self {
        Var {
            input,
            _pd: PhantomData,
        }
    }

    /// `makeLambdaFromMember`: extracts a member variable. The member name
    /// becomes `attAccess` metadata the optimizer reasons over.
    pub fn member<R: ColValue>(
        self,
        att_name: &str,
        getter: impl Fn(&Handle<T>) -> R + Send + Sync + 'static,
    ) -> Lambda<R> {
        make_lambda_from_member::<T, R>(self.input, att_name, getter)
    }

    /// `makeLambdaFromMethod`: calls a purely functional method. The method
    /// name becomes `methodCall` metadata, so redundant calls are fused.
    pub fn method<R: ColValue>(
        self,
        method_name: &str,
        method: impl Fn(&Handle<T>) -> R + Send + Sync + 'static,
    ) -> Lambda<R> {
        make_lambda_from_method::<T, R>(self.input, method_name, method)
    }

    /// `makeLambda`: opaque native code. The plan treats it as a black box
    /// — prefer [`member`](Var::member) / [`method`](Var::method) so the
    /// optimizer can see inside.
    pub fn native<R: ColValue>(
        self,
        label: &str,
        f: impl Fn(&Handle<T>) -> PcResult<R> + Send + Sync + 'static,
    ) -> Lambda<R> {
        make_lambda::<T, R>(self.input, label, f)
    }

    /// `makeLambdaFromSelf`: the identity lambda on this input.
    pub fn this(self) -> Lambda<AnyHandle> {
        make_lambda_from_self(self.input)
    }
}

/// An always-true predicate over input 0 (pure projections lower to a
/// `SelectionComp`, whose shape requires a selection term).
fn const_true<T: PcObjType>() -> Lambda<bool> {
    make_lambda_from_method::<T, i64>(0, "always", |_| 1).ge_const(0i64)
}

// ---------------------------------------------------------------- dataset

/// A typed handle to a stored or derived collection of `T` objects.
///
/// Cheap to clone (the plan is `Arc`-shared), immutable, and lazy: chaining
/// operators only grows the plan. Execution happens at the terminals —
/// [`write_to`](Dataset::write_to) + [`Job::run`], or
/// [`collect`](Dataset::collect).
pub struct Dataset<T: PcObjType> {
    plan: Arc<Computation>,
    client: Option<PcClient>,
    _pd: PhantomData<fn() -> T>,
}

impl<T: PcObjType> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Dataset {
            plan: self.plan.clone(),
            client: self.client.clone(),
            _pd: PhantomData,
        }
    }
}

impl<T: PcObjType> Dataset<T> {
    pub(crate) fn stored(client: Option<PcClient>, db: &str, set: &str) -> Dataset<T> {
        Dataset {
            plan: Arc::new(Computation {
                kind: CompKind::Reader {
                    db: db.to_string(),
                    set: set.to_string(),
                },
                inputs: Vec::new(),
            }),
            client,
            _pd: PhantomData,
        }
    }

    /// A dataset over a stored set, *unbound* from any client. Terminals
    /// that execute ([`collect`](Dataset::collect)) need a bound client —
    /// use [`PcClient::set`] for those — but an unbound chain can still be
    /// compiled via [`Job::compile`] and run on any engine.
    pub fn scan(db: &str, set: &str) -> Dataset<T> {
        Dataset::stored(None, db, set)
    }

    fn derive<R: PcObjType>(&self, kind: CompKind, inputs: Vec<Arc<Computation>>) -> Dataset<R> {
        Dataset {
            plan: Arc::new(Computation { kind, inputs }),
            client: self.client.clone(),
            _pd: PhantomData,
        }
    }

    /// Keeps the records satisfying `pred`. The predicate is built against
    /// a typed [`Var<T>`], composing §4 lambda terms with `.eq()`,
    /// `.gt_const()`, `.and()`, ... — the optimizer sees every term.
    pub fn filter(&self, pred: impl FnOnce(Var<T>) -> Lambda<bool>) -> Dataset<T> {
        self.derive(
            CompKind::Selection {
                selection: pred(Var::new(0)).term,
                projection: Var::<T>::new(0).this().term,
            },
            vec![self.plan.clone()],
        )
    }

    /// Maps every record to one output object (a `SelectionComp` with an
    /// always-true predicate). `f` runs with the output page active, so
    /// `make_object` allocates in place.
    pub fn select<R: PcObjType>(
        &self,
        label: &str,
        f: impl Fn(&Handle<T>) -> PcResult<Handle<R>> + Send + Sync + 'static,
    ) -> Dataset<R> {
        self.derive(
            CompKind::Selection {
                selection: const_true::<T>().term,
                projection: make_lambda::<T, AnyHandle>(0, label, move |h| Ok(f(h)?.erase())).term,
            },
            vec![self.plan.clone()],
        )
    }

    /// Maps every record to zero or more output objects (a
    /// `MultiSelectionComp`).
    pub fn flat_map<R: PcObjType>(
        &self,
        label: &str,
        f: impl Fn(&Handle<T>) -> PcResult<Vec<Handle<R>>> + Send + Sync + 'static,
    ) -> Dataset<R> {
        let kernel = FlatMap1::<T, AnyHandle, _> {
            f: move |h: &Handle<T>| Ok(f(h)?.iter().map(Handle::erase).collect()),
            _pd: PhantomData,
        };
        self.derive(
            CompKind::MultiSelection {
                flatmap: Arc::new(kernel),
                label: label.to_string(),
            },
            vec![self.plan.clone()],
        )
    }

    /// Joins with `other`. `on` supplies the join predicate over both typed
    /// inputs — it must contain at least one equality conjunct linking the
    /// two sides, from which the system extracts join keys and plans the
    /// algorithm itself (§4: the user never names a join order). `self`
    /// streams and probes; `other` is hashed. Put the largest input first.
    pub fn join<U: PcObjType, R: PcObjType>(
        &self,
        other: &Dataset<U>,
        on: impl FnOnce(Var<T>, Var<U>) -> Lambda<bool>,
        label: &str,
        proj: impl Fn(&Handle<T>, &Handle<U>) -> PcResult<Handle<R>> + Send + Sync + 'static,
    ) -> Dataset<R> {
        let mut out: Dataset<R> = self.derive(
            CompKind::Join {
                selection: on(Var::new(0), Var::new(1)).term,
                projection: make_lambda2::<T, U, AnyHandle>((0, 1), label, move |a, b| {
                    Ok(proj(a, b)?.erase())
                })
                .term,
            },
            vec![self.plan.clone(), other.plan.clone()],
        );
        if out.client.is_none() {
            out.client = other.client.clone();
        }
        out
    }

    /// Three-way join (e.g. LDA's triples ⋈ θ ⋈ φ): one `JoinComp` whose
    /// predicate links all three inputs; the compiler plans the cascade.
    /// `self` streams and probes through tables built on `b` and `c`. Put
    /// the largest input first.
    pub fn join3<U: PcObjType, V: PcObjType, R: PcObjType>(
        &self,
        b: &Dataset<U>,
        c: &Dataset<V>,
        on: impl FnOnce(Var<T>, Var<U>, Var<V>) -> Lambda<bool>,
        label: &str,
        proj: impl Fn(&Handle<T>, &Handle<U>, &Handle<V>) -> PcResult<Handle<R>> + Send + Sync + 'static,
    ) -> Dataset<R> {
        let mut out: Dataset<R> = self.derive(
            CompKind::Join {
                selection: on(Var::new(0), Var::new(1), Var::new(2)).term,
                projection: make_lambda3::<T, U, V, AnyHandle>((0, 1, 2), label, move |x, y, z| {
                    Ok(proj(x, y, z)?.erase())
                })
                .term,
            },
            vec![self.plan.clone(), b.plan.clone(), c.plan.clone()],
        );
        for d in [&b.client, &c.client] {
            if out.client.is_none() {
                out.client = d.clone();
            }
        }
        out
    }

    /// Groups and folds via a typed [`AggregateSpec`] (an `AggregateComp`).
    /// The spec's `In` type must equal the dataset's element type — a
    /// mismatched spec is a compile error.
    pub fn aggregate<S: AggregateSpec<In = T>>(&self, spec: S) -> Dataset<S::Out> {
        self.derive(
            CompKind::Aggregate {
                agg: Arc::new(pc_lambda::agg::AggEngine::new(spec)),
            },
            vec![self.plan.clone()],
        )
    }

    /// Terminal: write this dataset to a stored set. Returns a [`Sink`]
    /// token for a [`Job`]; nothing executes yet. When the job runs, the
    /// destination set is created (or cleared) first.
    pub fn write_to(&self, db: &str, set: &str) -> Sink {
        Sink {
            plan: self.plan.clone(),
            db: db.to_string(),
            set: set.to_string(),
        }
    }

    /// Terminal: run the chain and gather every result object to the
    /// client, typed. The downcast is *checked* — collecting a set under
    /// the wrong element type returns [`PcError::TypeMismatch`].
    ///
    /// Requires a client-bound dataset (built from [`PcClient::set`]).
    pub fn collect(&self) -> PcResult<Vec<Handle<T>>> {
        let client = self.client.clone().ok_or_else(|| {
            PcError::Catalog(
                "collect() needs a client-bound Dataset; build it with PcClient::set".into(),
            )
        })?;
        // A bare stored set gathers directly — no copy through a query.
        if let CompKind::Reader { db, set } = &self.plan.kind {
            return client.iterate_set::<T>(db, set);
        }
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let tmp = format!("__collect_{}", NEXT.fetch_add(1, Ordering::Relaxed));
        let run = Job::new()
            .add(self.write_to("__collect", &tmp))
            .run(&client);
        let rows = run.and_then(|_| client.iterate_set::<T>("__collect", &tmp));
        client.drop_set("__collect", &tmp)?;
        rows
    }
}

// -------------------------------------------------------------- job / sink

/// A pending write of one dataset to one stored set (see
/// [`Dataset::write_to`]).
#[derive(Clone)]
pub struct Sink {
    plan: Arc<Computation>,
    db: String,
    set: String,
}

impl Sink {
    /// Runs this sink as a single-sink [`Job`] — shorthand for
    /// `Job::new().add(sink).run(client)`.
    pub fn run(&self, client: &PcClient) -> PcResult<ClusterStats> {
        Job::new().add(self.clone()).run(client)
    }
}

/// A multi-sink query: several [`Sink`]s executed as *one* computation
/// graph. Nodes shared between sinks compile once, so a common upstream
/// subgraph executes exactly once (asserted by the
/// `dataset_api` integration test via [`pc_exec::ExecStats`]).
#[derive(Default)]
pub struct Job {
    sinks: Vec<Sink>,
}

impl Job {
    /// An empty job.
    pub fn new() -> Job {
        Job::default()
    }

    /// Adds one sink (builder style).
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, sink: Sink) -> Job {
        self.sinks.push(sink);
        self
    }

    /// Checks the sinks and compiles every one into one TCAP program.
    fn lower(&self) -> PcResult<CompiledQuery> {
        if self.sinks.is_empty() {
            return Err(PcError::Catalog("a Job needs at least one sink".into()));
        }
        // A sink that overwrites one of the job's own sources would clear
        // the data it is about to read; two sinks naming one set would merge
        // their rows.
        let mut read = Vec::new();
        for s in &self.sinks {
            sources(&s.plan, &mut read);
        }
        let mut written = HashSet::new();
        for s in &self.sinks {
            if read.iter().any(|(db, set)| *db == s.db && *set == s.set) {
                return Err(PcError::Catalog(format!(
                    "job sink {}.{} is also one of its sources",
                    s.db, s.set
                )));
            }
            if !written.insert((&s.db, &s.set)) {
                return Err(PcError::Catalog(format!(
                    "two sinks of one job write {}.{}",
                    s.db, s.set
                )));
            }
        }
        let sinks: Vec<_> = self
            .sinks
            .iter()
            .map(|s| (&s.plan, s.db.as_str(), s.set.as_str()))
            .collect();
        pc_lambda::compile(&sinks)
    }

    /// Compiles the job down to TCAP plus its stage library, without
    /// executing. This is the hook engine-level tests and the figure
    /// generators use to inspect or drive the compiled form directly.
    ///
    /// Every compiled plan passes through the [`pc_tcap::verify`] static
    /// verifier before it is handed out: a lowering bug surfaces here as
    /// [`PcError::PlanRejected`] with rendered diagnostics, not as a
    /// mystery misbehavior deep inside the executor.
    pub fn compile(&self) -> PcResult<CompiledQuery> {
        let q = self.lower()?;
        pc_tcap::verify::require_clean(&q.tcap).map_err(PcError::PlanRejected)?;
        Ok(q)
    }

    /// Executes the job on `client`: the graph compiles, every sink's
    /// destination set is created or cleared, then the compiled query
    /// optimizes, plans, and runs across the cluster.
    pub fn run(&self, client: &PcClient) -> PcResult<ClusterStats> {
        let q = self.lower()?;
        for s in &self.sinks {
            client.create_or_clear_set(&s.db, &s.set)?;
        }
        client.cluster().execute(&q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_object::pc_object;

    pc_object! {
        pub struct Rec / RecView {
            (key, set_key): i64,
        }
    }

    #[test]
    fn shared_upstream_lowers_once() {
        let base = Dataset::<Rec>::scan("db", "xs").filter(|r| {
            r.member("key", |r: &Handle<Rec>| r.v().key())
                .gt_const(10i64)
        });
        let job = Job::new()
            .add(base.write_to("db", "a"))
            .add(base.write_to("db", "b"));
        let tcap = job.lower().unwrap().tcap.to_string();
        // One reader + one selection + two writers — the filter node is not
        // duplicated.
        let count = |op: &str| tcap.matches(op).count();
        assert_eq!(count("<= INPUT("), 1);
        assert_eq!(count("<= FILTER("), 1);
        assert_eq!(count("<= OUTPUT("), 2);
    }

    #[test]
    fn sink_overwriting_a_source_is_rejected() {
        let ds = Dataset::<Rec>::scan("db", "xs").filter(|r| {
            r.member("key", |r: &Handle<Rec>| r.v().key())
                .gt_const(0i64)
        });
        let err = Job::new().add(ds.write_to("db", "xs")).lower();
        assert!(err.is_err());
    }

    #[test]
    fn empty_job_is_an_error() {
        assert!(Job::new().lower().is_err());
    }
}
