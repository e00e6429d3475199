//! Structural analysis over TCAP programs: the statement DAG, reachability
//! (the "is ancestor of" relation the §7 rules quantify over), and column
//! provenance (which base input columns a computed column depends on —
//! what the push-down rule calls "refers to values that depend only on one
//! of the join inputs").

use crate::ir::{is_copy_role, TcapOp, TcapProgram};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// The statement-level DAG of a TCAP program.
#[derive(Debug, Clone)]
pub struct TcapGraph {
    /// For each statement, the indices of statements producing its inputs.
    pub preds: Vec<Vec<usize>>,
    /// For each statement, the indices of statements consuming its output.
    pub succs: Vec<Vec<usize>>,
}

impl TcapGraph {
    pub fn build(prog: &TcapProgram) -> Self {
        let n = prog.stmts.len();
        let by_name: HashMap<&str, usize> = prog
            .stmts
            .iter()
            .enumerate()
            .map(|(i, s)| (s.output.name.as_str(), i))
            .collect();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (i, s) in prog.stmts.iter().enumerate() {
            for list in s.op.input_lists() {
                if let Some(&j) = by_name.get(list) {
                    preds[i].push(j);
                    succs[j].push(i);
                }
            }
        }
        TcapGraph { preds, succs }
    }

    /// Does statement `a`'s output (transitively) feed statement `b`?
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let mut seen = vec![false; self.succs.len()];
        let mut q = VecDeque::from([a]);
        while let Some(x) = q.pop_front() {
            for &s in &self.succs[x] {
                if s == b {
                    return true;
                }
                if !seen[s] {
                    seen[s] = true;
                    q.push_back(s);
                }
            }
        }
        false
    }

    /// A topological order of statement indices, or the set of statements
    /// stuck on a cycle. (Kahn's algorithm: anything never reaching
    /// in-degree zero is part of — or downstream of — a cycle.)
    pub fn topo_order(&self) -> Result<Vec<usize>, CycleError> {
        let n = self.preds.len();
        let mut indeg: Vec<usize> = self.preds.iter().map(|p| p.len()).collect();
        let mut q: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        while let Some(i) = q.pop_front() {
            order.push(i);
            placed[i] = true;
            for &s in &self.succs[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    q.push_back(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(CycleError {
                stuck: (0..n).filter(|&i| !placed[i]).collect(),
            })
        }
    }

    /// Whether the statement graph contains a dependency cycle.
    pub fn has_cycle(&self) -> bool {
        self.topo_order().is_err()
    }
}

/// The statement graph is cyclic: `stuck` lists every statement that could
/// not be topologically ordered (cycle members and their descendants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleError {
    pub stuck: Vec<usize>,
}

impl std::fmt::Display for CycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dependency cycle through statements {:?}", self.stuck)
    }
}

/// Every `(list, column)` pair some statement reads.
pub(crate) fn referenced_cols(prog: &TcapProgram) -> BTreeSet<(String, String)> {
    let mut referenced = BTreeSet::new();
    for s in &prog.stmts {
        for (_, r) in s.op.refs() {
            for c in &r.cols {
                referenced.insert((r.list.clone(), c.clone()));
            }
        }
    }
    referenced
}

/// Which statements some OUTPUT (transitively) depends on: the backward
/// closure from the OUTPUT statements. `None` when the program has no
/// OUTPUT (a fragment, as in the §7 examples), which has no liveness root.
pub(crate) fn live_stmts(prog: &TcapProgram) -> Option<Vec<bool>> {
    let mut stack: Vec<usize> = prog
        .stmts
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.op, TcapOp::Output { .. }))
        .map(|(i, _)| i)
        .collect();
    if stack.is_empty() {
        return None;
    }
    let g = TcapGraph::build(prog);
    let mut live = vec![false; prog.stmts.len()];
    while let Some(i) = stack.pop() {
        if !live[i] {
            live[i] = true;
            stack.extend(&g.preds[i]);
        }
    }
    Some(live)
}

/// The identity of a column: the statement that created it plus its name at
/// creation. Shallow copies through APPLY/FILTER/HASH/JOIN preserve identity.
pub type ColId = (usize, String);

/// Column identity and dependency analysis.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    /// `(list, col)` → identity of the value flowing in that column.
    pub id: HashMap<(String, String), ColId>,
    /// For computed columns: the set of *base* (INPUT-created) columns the
    /// value transitively depends on.
    pub deps: HashMap<ColId, BTreeSet<ColId>>,
    /// Identities created by INPUT statements (the base objects).
    pub base: BTreeSet<ColId>,
}

impl Provenance {
    pub fn build(prog: &TcapProgram) -> Self {
        let mut p = Provenance::default();
        for (i, s) in prog.stmts.iter().enumerate() {
            let out = &s.output;
            // Shallow copies keep the identity of the value they carry.
            for (role, r) in s.op.refs() {
                if is_copy_role(role) {
                    p.copy_ids(&r.list, &r.cols, &out.name);
                }
            }
            match &s.op {
                TcapOp::Input { .. } => {
                    for c in &out.cols {
                        let cid: ColId = (i, c.clone());
                        p.base.insert(cid.clone());
                        p.deps.insert(cid.clone(), BTreeSet::from([cid.clone()]));
                        p.id.insert((out.name.clone(), c.clone()), cid);
                    }
                }
                TcapOp::Apply { input, .. }
                | TcapOp::FlatMap { input, .. }
                | TcapOp::Hash { input, .. } => {
                    // The appended column(s) depend on everything the
                    // kernel's inputs depend on.
                    let mut dep_set = BTreeSet::new();
                    for c in &input.cols {
                        if let Some(cid) = p.id.get(&(input.list.clone(), c.clone())) {
                            if let Some(ds) = p.deps.get(cid) {
                                dep_set.extend(ds.iter().cloned());
                            }
                        }
                    }
                    for c in s.appended() {
                        let cid: ColId = (i, c.clone());
                        p.deps.insert(cid.clone(), dep_set.clone());
                        p.id.insert((out.name.clone(), c.clone()), cid);
                    }
                }
                TcapOp::Aggregate { .. } => {
                    for c in &out.cols {
                        let cid: ColId = (i, c.clone());
                        p.deps.insert(cid.clone(), BTreeSet::new());
                        p.id.insert((out.name.clone(), c.clone()), cid);
                    }
                }
                TcapOp::Filter { .. } | TcapOp::Join { .. } | TcapOp::Output { .. } => {}
            }
        }
        p
    }

    fn copy_ids(&mut self, src_list: &str, cols: &[String], dst_list: &str) {
        for c in cols {
            if let Some(cid) = self.id.get(&(src_list.to_string(), c.clone())).cloned() {
                self.id.insert((dst_list.to_string(), c.clone()), cid);
            }
        }
    }

    /// The base input columns that `(list, col)` transitively depends on.
    pub fn base_deps(&self, list: &str, col: &str) -> BTreeSet<ColId> {
        self.id
            .get(&(list.to_string(), col.to_string()))
            .and_then(|cid| self.deps.get(cid))
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    const PROG: &str = r#"
In(emp) <= INPUT('db', 'emps', 'Reader_1', []);
JK2_1(emp,mt1) <= APPLY(In(emp), In(emp), 'Sel_43', 'method_call_1',
    [('type', 'methodCall'), ('methodName', 'getSalary')]);
JK2_2(emp,bl1) <= APPLY(JK2_1(mt1), JK2_1(emp), 'Sel_43', 'gt_1',
    [('type', 'const_comparison'), ('op', 'gt')]);
JK2_6(emp) <= FILTER(JK2_2(bl1), JK2_2(emp), 'Sel_43', []);
"#;

    #[test]
    fn graph_edges_and_ancestry() {
        let prog = parse_program(PROG).unwrap();
        let g = TcapGraph::build(&prog);
        assert!(g.is_ancestor(0, 3));
        assert!(g.is_ancestor(1, 2));
        assert!(!g.is_ancestor(3, 0));
        assert_eq!(g.topo_order(), Ok(vec![0, 1, 2, 3]));
        assert!(!g.has_cycle());
    }

    #[test]
    fn cycles_are_detected_not_tolerated() {
        // JK2_1 reads JK2_2's output and vice versa: a two-statement cycle.
        let prog = parse_program(
            r#"
In(emp) <= INPUT('db', 'emps', 'Reader_1', []);
JK2_1(emp,mt1) <= APPLY(JK2_2(emp), JK2_2(emp), 'Sel_43', 'method_call_1',
    [('type', 'methodCall'), ('methodName', 'getSalary')]);
JK2_2(emp,bl1) <= APPLY(JK2_1(mt1), JK2_1(emp), 'Sel_43', 'gt_1',
    [('type', 'const_comparison'), ('op', 'gt')]);
"#,
        )
        .unwrap();
        let g = TcapGraph::build(&prog);
        assert!(g.has_cycle());
        let err = g.topo_order().unwrap_err();
        assert_eq!(err.stuck, vec![1, 2]);
    }

    #[test]
    fn copied_columns_keep_identity() {
        let prog = parse_program(PROG).unwrap();
        let p = Provenance::build(&prog);
        // `emp` in the final FILTER output is the very same column created
        // by the INPUT statement.
        assert_eq!(
            p.id[&("JK2_6".into(), "emp".into())],
            (0usize, "emp".to_string())
        );
        // `bl1` depends (via mt1) on the base emp column.
        let deps = p.base_deps("JK2_2", "bl1");
        assert_eq!(deps, BTreeSet::from([(0usize, "emp".to_string())]));
    }
}
