//! The TCAP compiler (§5): lowers the [`Computation`] graphs under a job's
//! sinks into one [`TcapProgram`] plus a *stage library* binding every
//! `(computation, stage)` name pair to its compiled kernel.
//!
//! Join planning happens here in the spirit of §4: the user never names a
//! join order or algorithm. The compiler analyzes the join's selection
//! lambda, classifies equality conjuncts linking two inputs as join keys,
//! plans a left-deep cascade of hash joins, and re-emits **all** conjuncts
//! after the join as residual checks ("all selection predicates are by
//! default evaluated after the join", §7) — the optimizer then pushes
//! single-input conjuncts back below the join.

use crate::agg::ErasedAgg;
use crate::computation::{CompKind, Computation};
use crate::kernel::{
    BinaryKernel, ColumnKernel, ConstCmpKernel, FlatMapKernel, HashKernel, NotKernel,
};
use crate::lambda::LambdaTerm;
use pc_object::{PcError, PcResult};
use pc_tcap::ir::{ColRef, TcapOp, TcapProgram, TcapStmt, VecListDecl};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A compiled pipeline stage.
#[derive(Clone)]
pub enum StageKernel {
    Map(Arc<dyn ColumnKernel>),
    FlatMap(Arc<dyn FlatMapKernel>),
}

/// Maps `(computation name, stage name)` to compiled kernels — what §5.3's
/// template metaprogramming produces in the C++ system.
#[derive(Default, Clone)]
pub struct StageLibrary {
    stages: HashMap<(String, String), StageKernel>,
}

impl StageLibrary {
    pub fn register(&mut self, comp: &str, stage: &str, k: StageKernel) {
        self.stages.insert((comp.to_string(), stage.to_string()), k);
    }

    pub fn get(&self, comp: &str, stage: &str) -> Option<&StageKernel> {
        self.stages.get(&(comp.to_string(), stage.to_string()))
    }

    pub fn len(&self) -> usize {
        self.stages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

/// The result of compilation: a TCAP program, its stage library, and the
/// aggregation engines referenced by AGGREGATE statements.
pub struct CompiledQuery {
    pub tcap: TcapProgram,
    pub stages: StageLibrary,
    pub aggs: HashMap<String, Arc<dyn ErasedAgg>>,
}

struct CurList {
    name: String,
    cols: Vec<String>,
}

struct Compiler {
    stmts: Vec<TcapStmt>,
    stages: StageLibrary,
    aggs: HashMap<String, Arc<dyn ErasedAgg>>,
    lists: usize,
    /// Node ids handed out so far.
    nodes: usize,
    /// (list name, object column) produced by each compiled node, keyed by
    /// `Arc` identity.
    outputs: HashMap<*const Computation, (String, String)>,
}

impl Compiler {
    fn fresh_list(&mut self, prefix: &str) -> String {
        self.lists += 1;
        format!("{prefix}_{}", self.lists)
    }

    /// Emits the APPLY chain for a lambda term over `cur`, returning the
    /// column holding the term's value. `input_col` maps a computation input
    /// index to the column carrying that input's objects.
    fn emit_term(
        &mut self,
        term: &LambdaTerm,
        comp: &str,
        n: &mut usize,
        cur: &mut CurList,
        input_col: &dyn Fn(usize) -> String,
    ) -> PcResult<String> {
        match term {
            LambdaTerm::SelfRef { input } => Ok(input_col(*input)),
            LambdaTerm::Extract {
                inputs,
                op_type,
                name,
                kernel,
            } => {
                *n += 1;
                let stage = match *op_type {
                    "attAccess" => format!("att_acc_{n}"),
                    "methodCall" => format!("method_call_{n}"),
                    _ => format!("native_{n}"),
                };
                let meta_key = match *op_type {
                    "attAccess" => "attName",
                    "methodCall" => "methodName",
                    _ => "label",
                };
                let new_col = format!("mt{n}");
                let in_cols: Vec<String> = inputs.iter().map(|i| input_col(*i)).collect();
                self.apply(
                    cur,
                    comp,
                    &stage,
                    &in_cols,
                    &new_col,
                    vec![
                        ("type".into(), op_type.to_string()),
                        (meta_key.into(), name.clone()),
                    ],
                );
                self.stages
                    .register(comp, &stage, StageKernel::Map(kernel.clone()));
                Ok(new_col)
            }
            LambdaTerm::Binary { op, lhs, rhs } => {
                let lc = self.emit_term(lhs, comp, n, cur, input_col)?;
                let rc = self.emit_term(rhs, comp, n, cur, input_col)?;
                *n += 1;
                let stage = format!("{}_{n}", op.tcap_name());
                let new_col = format!("bl{n}");
                self.apply(
                    cur,
                    comp,
                    &stage,
                    &[lc, rc],
                    &new_col,
                    vec![
                        ("type".into(), op.meta_type().to_string()),
                        ("op".into(), op.tcap_name().to_string()),
                    ],
                );
                self.stages.register(
                    comp,
                    &stage,
                    StageKernel::Map(Arc::new(BinaryKernel { op: *op })),
                );
                Ok(new_col)
            }
            LambdaTerm::Not { inner } => {
                let ic = self.emit_term(inner, comp, n, cur, input_col)?;
                *n += 1;
                let stage = format!("!_{n}");
                let new_col = format!("bl{n}");
                self.apply(
                    cur,
                    comp,
                    &stage,
                    &[ic],
                    &new_col,
                    vec![("type".into(), "bool_not".to_string())],
                );
                self.stages
                    .register(comp, &stage, StageKernel::Map(Arc::new(NotKernel)));
                Ok(new_col)
            }
            LambdaTerm::ConstCmp { op, value, inner } => {
                let ic = self.emit_term(inner, comp, n, cur, input_col)?;
                *n += 1;
                let stage = format!("{}c_{n}", op.tcap_name());
                let new_col = format!("bl{n}");
                self.apply(
                    cur,
                    comp,
                    &stage,
                    &[ic],
                    &new_col,
                    vec![
                        ("type".into(), "const_comparison".to_string()),
                        ("op".into(), op.tcap_name().to_string()),
                        ("value".into(), value.to_string()),
                    ],
                );
                self.stages.register(
                    comp,
                    &stage,
                    StageKernel::Map(Arc::new(ConstCmpKernel {
                        op: *op,
                        value: value.clone(),
                    })),
                );
                Ok(new_col)
            }
        }
    }

    /// Appends one APPLY statement and advances `cur`.
    fn apply(
        &mut self,
        cur: &mut CurList,
        comp: &str,
        stage: &str,
        in_cols: &[String],
        new_col: &str,
        meta: Vec<(String, String)>,
    ) {
        let out = self.fresh_list("W");
        let mut out_cols = cur.cols.clone();
        out_cols.push(new_col.to_string());
        self.stmts.push(TcapStmt {
            output: VecListDecl {
                name: out.clone(),
                cols: out_cols.clone(),
            },
            op: TcapOp::Apply {
                input: ColRef {
                    list: cur.name.clone(),
                    cols: in_cols.to_vec(),
                },
                copy: ColRef {
                    list: cur.name.clone(),
                    cols: cur.cols.clone(),
                },
                computation: comp.to_string(),
                stage: stage.to_string(),
                meta,
            },
        });
        cur.name = out;
        cur.cols = out_cols;
    }

    /// Appends a FILTER keeping only `keep` columns.
    fn filter(&mut self, cur: &mut CurList, comp: &str, bool_col: &str, keep: &[String]) {
        let out = self.fresh_list("Flt");
        self.stmts.push(TcapStmt {
            output: VecListDecl {
                name: out.clone(),
                cols: keep.to_vec(),
            },
            op: TcapOp::Filter {
                bool_col: ColRef {
                    list: cur.name.clone(),
                    cols: vec![bool_col.to_string()],
                },
                copy: ColRef {
                    list: cur.name.clone(),
                    cols: keep.to_vec(),
                },
                computation: comp.to_string(),
                meta: vec![],
            },
        });
        cur.name = out;
        cur.cols = keep.to_vec();
    }

    /// Appends a HASH over `key_col`, keeping `keep` columns + the hash.
    fn hash(&mut self, cur: &mut CurList, comp: &str, key_col: &str, n: &mut usize) -> String {
        *n += 1;
        let hash_col = format!("hash{n}");
        let stage = format!("hash_{n}");
        let out = self.fresh_list("H");
        let mut out_cols = cur.cols.clone();
        out_cols.push(hash_col.clone());
        self.stmts.push(TcapStmt {
            output: VecListDecl {
                name: out.clone(),
                cols: out_cols.clone(),
            },
            op: TcapOp::Hash {
                input: ColRef {
                    list: cur.name.clone(),
                    cols: vec![key_col.to_string()],
                },
                copy: ColRef {
                    list: cur.name.clone(),
                    cols: cur.cols.clone(),
                },
                computation: comp.to_string(),
                meta: vec![("type".into(), "hashOne".into())],
            },
        });
        self.stages
            .register(comp, &stage, StageKernel::Map(Arc::new(HashKernel)));
        cur.name = out;
        cur.cols = out_cols;
        hash_col
    }
}

/// Is this equality conjunct a join-key candidate linking two inputs?
/// Returns `(lhs_input, rhs_input, lhs_term, rhs_term)`.
fn key_conjunct(t: &LambdaTerm) -> Option<(usize, usize, &LambdaTerm, &LambdaTerm)> {
    if let LambdaTerm::Binary {
        op: crate::lambda::BinOp::Eq,
        lhs,
        rhs,
    } = t
    {
        let li = lhs.inputs();
        let ri = rhs.inputs();
        if li.len() == 1 && ri.len() == 1 && li != ri {
            let l = *li.iter().next().unwrap();
            let r = *ri.iter().next().unwrap();
            return Some((l, r, lhs, rhs));
        }
    }
    None
}

/// Compiles the graphs under `sinks` to TCAP plus its stage library. Each
/// sink is a root computation and the `db`/`set` it is written to.
///
/// Nodes are numbered in memoized post-order on `Arc` identity — every
/// input before its consumer, each writer right after its sink's nodes —
/// and named `Reader_/Sel_/MSel_/Join_/Agg_/Writer_{id}`. A node shared by
/// several sinks compiles once.
pub fn compile(sinks: &[(&Arc<Computation>, &str, &str)]) -> PcResult<CompiledQuery> {
    let mut c = Compiler {
        stmts: Vec::new(),
        stages: StageLibrary::default(),
        aggs: HashMap::new(),
        lists: 0,
        nodes: 0,
        outputs: HashMap::new(),
    };
    for (root, db, set) in sinks {
        let (in_list, in_col) = c.node(root)?;
        let id = c.next_node();
        c.stmts.push(TcapStmt {
            output: VecListDecl {
                name: format!("Out_{id}"),
                cols: vec![],
            },
            op: TcapOp::Output {
                input: ColRef {
                    list: in_list,
                    cols: vec![in_col],
                },
                db: db.to_string(),
                set: set.to_string(),
                computation: format!("Writer_{id}"),
                meta: vec![],
            },
        });
    }
    Ok(CompiledQuery {
        tcap: TcapProgram::new(c.stmts),
        stages: c.stages,
        aggs: c.aggs,
    })
}

impl Compiler {
    fn next_node(&mut self) -> usize {
        self.nodes += 1;
        self.nodes - 1
    }

    /// Compiles `node` after its inputs, once per node, and returns the
    /// list and object column holding its output.
    fn node(&mut self, node: &Arc<Computation>) -> PcResult<(String, String)> {
        let key = Arc::as_ptr(node);
        if let Some(out) = self.outputs.get(&key) {
            return Ok(out.clone());
        }
        let inputs = node
            .inputs
            .iter()
            .map(|i| self.node(i))
            .collect::<PcResult<Vec<_>>>()?;
        let id = self.next_node();
        let (prefix, arity_ok) = match node.kind {
            CompKind::Reader { .. } => ("Reader", inputs.is_empty()),
            CompKind::Selection { .. } => ("Sel", inputs.len() == 1),
            CompKind::MultiSelection { .. } => ("MSel", inputs.len() == 1),
            CompKind::Join { .. } => ("Join", inputs.len() >= 2),
            CompKind::Aggregate { .. } => ("Agg", inputs.len() == 1),
        };
        let comp = format!("{prefix}_{id}");
        if !arity_ok {
            return Err(PcError::Catalog(format!(
                "computation {comp} cannot take {} inputs",
                inputs.len()
            )));
        }
        let out = match &node.kind {
            CompKind::Reader { db, set } => {
                let list = format!("In_{id}");
                let col = format!("in{id}");
                self.stmts.push(TcapStmt {
                    output: VecListDecl {
                        name: list.clone(),
                        cols: vec![col.clone()],
                    },
                    op: TcapOp::Input {
                        db: db.clone(),
                        set: set.clone(),
                        computation: comp,
                        meta: vec![],
                    },
                });
                (list, col)
            }
            CompKind::Selection {
                selection,
                projection,
            } => {
                let (in_list, in_col) = inputs[0].clone();
                let mut cur = CurList {
                    name: in_list,
                    cols: vec![in_col.clone()],
                };
                let mut n = 0;
                let col_of = |_i: usize| in_col.clone();
                let bl = self.emit_term(selection, &comp, &mut n, &mut cur, &col_of)?;
                self.filter(&mut cur, &comp, &bl, std::slice::from_ref(&in_col));
                let out_col = self.emit_term(projection, &comp, &mut n, &mut cur, &col_of)?;
                (cur.name, out_col)
            }
            CompKind::MultiSelection { flatmap, label } => {
                let (in_list, in_col) = inputs[0].clone();
                let stage = "flat_1".to_string();
                let out_col = format!("out{id}");
                let out = self.fresh_list("FM");
                self.stmts.push(TcapStmt {
                    output: VecListDecl {
                        name: out.clone(),
                        cols: vec![out_col.clone()],
                    },
                    op: TcapOp::FlatMap {
                        input: ColRef {
                            list: in_list.clone(),
                            cols: vec![in_col],
                        },
                        copy: ColRef {
                            list: in_list,
                            cols: vec![],
                        },
                        computation: comp.clone(),
                        stage: stage.clone(),
                        meta: vec![
                            ("type".into(), "multiSelect".into()),
                            ("label".into(), label.clone()),
                        ],
                    },
                });
                self.stages
                    .register(&comp, &stage, StageKernel::FlatMap(flatmap.clone()));
                (out, out_col)
            }
            CompKind::Join {
                selection,
                projection,
            } => compile_join(self, &comp, &inputs, selection, projection)?,
            CompKind::Aggregate { agg } => {
                let (in_list, in_col) = inputs[0].clone();
                let out = format!("Ag_{id}");
                let out_col = format!("out{id}");
                self.stmts.push(TcapStmt {
                    output: VecListDecl {
                        name: out.clone(),
                        cols: vec![out_col.clone()],
                    },
                    op: TcapOp::Aggregate {
                        key: ColRef {
                            list: in_list.clone(),
                            cols: vec![in_col.clone()],
                        },
                        value: ColRef {
                            list: in_list,
                            cols: vec![in_col],
                        },
                        computation: comp.clone(),
                        meta: vec![("outType".into(), agg.out_type())],
                    },
                });
                self.aggs.insert(comp, agg.clone());
                (out, out_col)
            }
        };
        self.outputs.insert(key, out.clone());
        Ok(out)
    }
}

/// Plans and emits an n-ary hash join: key extraction + HASH per side, a
/// left-deep JOIN cascade, then all conjuncts re-checked post-join, then
/// the projection. `side` holds each input position's (list, object column).
///
/// Appendix D.3 with the probe named by declaration order: input 0 streams,
/// and each later input builds a table. Every `JOIN` takes the newcomer as
/// `lhs` (the side the planner builds) and the running composite as `rhs`
/// (the side that probes), so the composite's pipeline starts at input 0
/// and runs through one table per newcomer.
fn compile_join(
    c: &mut Compiler,
    comp: &str,
    side: &[(String, String)],
    selection: &LambdaTerm,
    projection: &LambdaTerm,
) -> PcResult<(String, String)> {
    let n_in = side.len();
    let conjuncts = selection.conjuncts();
    let mut keys: Vec<(usize, usize, &LambdaTerm, &LambdaTerm)> = Vec::new();
    for t in &conjuncts {
        if let Some(k) = key_conjunct(t) {
            keys.push(k);
        }
    }
    if keys.is_empty() {
        return Err(PcError::Catalog(format!(
            "join {comp}: selection has no equality conjunct linking two inputs"
        )));
    }

    let mut n = 0usize;
    // Left-deep planning: start from position 0.
    let mut joined: BTreeSet<usize> = BTreeSet::from([0]);
    let mut used_keys: Vec<usize> = Vec::new();
    // Composite state: current list + the obj col of every joined position.
    let mut cur = CurList {
        name: side[0].0.clone(),
        cols: vec![side[0].1.clone()],
    };
    let col_of = |p: usize| side[p].1.clone();

    while joined.len() < n_in {
        // Pick an unused key conjunct connecting the joined set to a new input.
        let pick = keys.iter().enumerate().find(|(ki, (l, r, _, _))| {
            !used_keys.contains(ki)
                && ((joined.contains(l) && !joined.contains(r))
                    || (joined.contains(r) && !joined.contains(l)))
        });
        let Some((ki, &(l, r, lt, rt))) = pick else {
            return Err(PcError::Catalog(format!(
                "join {comp}: inputs are not connected by equality conjuncts (no key links {joined:?} to the rest)"
            )));
        };
        used_keys.push(ki);
        let (newcomer, jt, nt) = if joined.contains(&l) {
            (r, lt, rt)
        } else {
            (l, rt, lt)
        };

        // Probe side (the already-joined composite): extract key + hash.
        let pk = c.emit_term(jt, comp, &mut n, &mut cur, &col_of)?;
        let ph = c.hash(&mut cur, comp, &pk, &mut n);
        let probe_list = cur.name.clone();
        let probe_objs: Vec<String> = joined.iter().map(|p| side[*p].1.clone()).collect();

        // Build side (the newcomer input).
        let mut bcur = CurList {
            name: side[newcomer].0.clone(),
            cols: vec![side[newcomer].1.clone()],
        };
        let bk = c.emit_term(nt, comp, &mut n, &mut bcur, &col_of)?;
        let bh = c.hash(&mut bcur, comp, &bk, &mut n);

        // JOIN statement: `lhs` builds, `rhs` probes.
        let out = c.fresh_list("J");
        let mut out_cols = probe_objs.clone();
        out_cols.push(side[newcomer].1.clone());
        c.stmts.push(TcapStmt {
            output: VecListDecl {
                name: out.clone(),
                cols: out_cols.clone(),
            },
            op: TcapOp::Join {
                lhs_hash: ColRef {
                    list: bcur.name.clone(),
                    cols: vec![bh],
                },
                lhs_copy: ColRef {
                    list: bcur.name.clone(),
                    cols: vec![side[newcomer].1.clone()],
                },
                rhs_hash: ColRef {
                    list: probe_list.clone(),
                    cols: vec![ph],
                },
                rhs_copy: ColRef {
                    list: probe_list,
                    cols: probe_objs,
                },
                computation: comp.to_string(),
                meta: vec![],
            },
        });
        joined.insert(newcomer);
        cur = CurList {
            name: out,
            cols: out_cols,
        };
    }

    // Residual: re-check every conjunct post-join (hash collisions and
    // non-key predicates); single-input conjuncts get pushed down later by
    // the optimizer.
    let mut bl: Option<String> = None;
    for t in &conjuncts {
        let b = c.emit_term(t, comp, &mut n, &mut cur, &col_of)?;
        bl = Some(match bl {
            None => b,
            Some(prev) => {
                n += 1;
                let stage = format!("&&_{n}");
                let new_col = format!("bl{n}");
                c.apply(
                    &mut cur,
                    comp,
                    &stage,
                    &[prev, b],
                    &new_col,
                    vec![
                        ("type".into(), "bool_and".into()),
                        ("op".into(), "&&".into()),
                    ],
                );
                c.stages.register(
                    comp,
                    &stage,
                    StageKernel::Map(Arc::new(BinaryKernel {
                        op: crate::lambda::BinOp::And,
                    })),
                );
                new_col
            }
        });
    }
    let objcols: Vec<String> = side.iter().map(|(_, col)| col.clone()).collect();
    c.filter(&mut cur, comp, &bl.unwrap(), &objcols);

    // Projection.
    let out_col = c.emit_term(projection, comp, &mut n, &mut cur, &col_of)?;
    Ok((cur.name, out_col))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lambda::make_lambda_from_self;

    #[test]
    fn a_node_with_the_wrong_number_of_inputs_is_an_error() {
        let reader = Arc::new(Computation {
            kind: CompKind::Reader {
                db: "db".into(),
                set: "xs".into(),
            },
            inputs: Vec::new(),
        });
        let join = Arc::new(Computation {
            kind: CompKind::Join {
                selection: make_lambda_from_self(0).term,
                projection: make_lambda_from_self(0).term,
            },
            inputs: vec![reader],
        });
        let err = compile(&[(&join, "db", "out")]).err();
        assert!(matches!(err, Some(PcError::Catalog(_))), "got {err:?}");
    }
}
