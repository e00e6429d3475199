//! The rule-based TCAP optimizer (§7).
//!
//! The original system fires Prolog rules iteratively "until the plan cannot
//! be improved further". This module implements the same scheme as a Rust
//! rewrite engine with three rules, each taken from §7:
//!
//! 1. **Redundant call elimination** — two `APPLY`s of type
//!    `methodCall`/`attAccess` invoking the same method on the same data
//!    column, one an ancestor of the other: the descendant is removed and the
//!    ancestor's result carried through the graph (method calls are assumed
//!    purely functional, as the paper requires).
//! 2. **Selection push-down past joins** — a conjunct of a post-join
//!    predicate that depends on only one join input is recomputed on that
//!    input *before* the hash/join, with a new `FILTER`.
//! 3. **Dead-column pruning** — columns never referenced downstream are
//!    dropped from copy lists; statements whose outputs are never consumed
//!    are removed (narrower vector lists = less shallow-copy work).
//!
//! Every rule validates the exact shape it rewrites and bails conservatively
//! otherwise — an optimizer must never change program meaning.

use crate::analyze::{live_stmts, referenced_cols, ColId, Provenance, TcapGraph};
use crate::ir::{is_copy_role, meta_get, ColRef, TcapOp, TcapProgram, TcapStmt};
use std::collections::{BTreeSet, HashMap};

/// Which rules fired, how many times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizerReport {
    pub redundant_applies_removed: usize,
    pub selections_pushed_down: usize,
    pub dead_columns_pruned: usize,
    pub dead_statements_removed: usize,
    pub iterations: usize,
}

/// An individual optimizer rule (exposed for ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerRule {
    RedundantApply,
    SelectionPushdown,
    DeadColumns,
}

/// Optimizes `prog` in place with all rules, to fixpoint.
pub fn optimize(prog: &mut TcapProgram) -> OptimizerReport {
    optimize_with(
        prog,
        &[
            OptimizerRule::RedundantApply,
            OptimizerRule::SelectionPushdown,
            OptimizerRule::DeadColumns,
        ],
    )
}

/// Optimizes with a chosen subset of rules (ablation support).
///
/// When post-rule verification is enabled
/// ([`crate::verify::post_rule_checks_enabled`]: debug-default,
/// `PC_VERIFY_RULES=1|0` overrides) and the *input* program verifies clean,
/// every individual rule application is re-verified — a rule that breaks
/// well-formedness or type flow panics at its birthplace with rendered
/// diagnostics instead of surfacing as a runtime executor error.
pub fn optimize_with(prog: &mut TcapProgram, rules: &[OptimizerRule]) -> OptimizerReport {
    // Dirty input stays garbage-in/garbage-out: the acceptance paths reject
    // it with proper diagnostics; only rule-introduced breakage panics here.
    let check_rules =
        crate::verify::post_rule_checks_enabled() && crate::verify::verify(prog).is_clean();
    let mut report = OptimizerReport::default();
    for _ in 0..100 {
        report.iterations += 1;
        let mut changed = false;
        if rules.contains(&OptimizerRule::RedundantApply) && remove_redundant_apply(prog) {
            report.redundant_applies_removed += 1;
            changed = true;
            assert_rule_clean(prog, check_rules, "RedundantApply");
        }
        if rules.contains(&OptimizerRule::SelectionPushdown) && push_down_selection(prog) {
            report.selections_pushed_down += 1;
            changed = true;
            assert_rule_clean(prog, check_rules, "SelectionPushdown");
        }
        if rules.contains(&OptimizerRule::DeadColumns) {
            let (cols, stmts) = prune_dead(prog);
            if cols + stmts > 0 {
                report.dead_columns_pruned += cols;
                report.dead_statements_removed += stmts;
                changed = true;
                assert_rule_clean(prog, check_rules, "DeadColumns");
            }
        }
        if !changed {
            break;
        }
    }
    report
}

/// Post-rule verification: a rewrite that turned a clean program unclean is
/// an optimizer bug, reported at its birthplace.
fn assert_rule_clean(prog: &TcapProgram, enabled: bool, rule: &str) {
    if !enabled {
        return;
    }
    let report = crate::verify::verify(prog);
    if !report.is_clean() {
        panic!(
            "optimizer rule {rule} broke the program:\n{}\nprogram after the rule:\n{prog}",
            report.render()
        );
    }
}

// ------------------------------------------------------------- ref renaming

/// Rewrites every input reference to `old_list` so it reads `new_list`,
/// applying `col_renames` to the referenced column names.
fn rename_refs(
    prog: &mut TcapProgram,
    old_list: &str,
    new_list: &str,
    col_renames: &HashMap<String, String>,
) {
    let fix = |r: &mut ColRef| {
        if r.list == old_list {
            r.list = new_list.to_string();
            for c in r.cols.iter_mut() {
                if let Some(n) = col_renames.get(c) {
                    *c = n.clone();
                }
            }
        }
    };
    for s in prog.stmts.iter_mut() {
        for (_, r) in s.op.refs_mut() {
            fix(r);
        }
    }
}

// -------------------------------------------------- rule 1: redundant apply

/// §7's first rule: if two APPLYs both invoke the same `methodName`
/// (or access the same `attName`), one is the ancestor of the other, and
/// both operate on the same data column, the descendant is removed and the
/// ancestor's result carried through the graph.
fn remove_redundant_apply(prog: &mut TcapProgram) -> bool {
    let g = TcapGraph::build(prog);
    let prov = Provenance::build(prog);

    let call_sig = |s: &TcapStmt| -> Option<(String, String, Vec<ColId>)> {
        if let TcapOp::Apply { input, meta, .. } = &s.op {
            let ty = meta_get(meta, "type")?;
            let name = match ty {
                "methodCall" => meta_get(meta, "methodName")?,
                "attAccess" => meta_get(meta, "attName")?,
                _ => return None,
            };
            let ids: Option<Vec<ColId>> = input
                .cols
                .iter()
                .map(|c| prov.id.get(&(input.list.clone(), c.clone())).cloned())
                .collect();
            Some((ty.to_string(), name.to_string(), ids?))
        } else {
            None
        }
    };

    for j in 0..prog.stmts.len() {
        let Some(sig_j) = call_sig(&prog.stmts[j]) else {
            continue;
        };
        for i in 0..prog.stmts.len() {
            if i == j || !g.is_ancestor(i, j) {
                continue;
            }
            let Some(sig_i) = call_sig(&prog.stmts[i]) else {
                continue;
            };
            if sig_i != sig_j {
                continue;
            }
            let (Some(i_col), Some(j_col)) = (prog.stmts[i].created(), prog.stmts[j].created())
            else {
                continue;
            };
            let (i_col, j_col) = (i_col.to_string(), j_col.to_string());
            if try_eliminate(prog, i, j, &i_col, &j_col) {
                return true;
            }
        }
    }
    false
}

/// Carries statement `i`'s result column to `j`'s position and removes `j`.
fn try_eliminate(prog: &mut TcapProgram, i: usize, j: usize, i_col: &str, j_col: &str) -> bool {
    // Walk j's copy-source chain back to i, collecting the intermediate
    // statements that must carry i's column through.
    let i_list = prog.stmts[i].output.name.clone();
    let mut chain: Vec<usize> = Vec::new();
    let Some(j_src) = prog.stmts[j].op.copy().map(|c| c.list.clone()) else {
        return false;
    };
    let mut cur = j_src.clone();
    while cur != i_list {
        let Some(k) = prog.producer_index(&cur) else {
            return false;
        };
        // Only linear APPLY/FILTER/HASH chains are handled.
        let Some(src) = prog.stmts[k].op.copy() else {
            return false;
        };
        // Collision: an unrelated column with i's name already flows here.
        if prog.stmts[k].output.cols.iter().any(|c| c == i_col) {
            return false;
        }
        chain.push(k);
        cur = src.list.clone();
    }

    // Carry i_col through every intermediate statement.
    for &k in chain.iter().rev() {
        let s = &mut prog.stmts[k];
        s.output.cols.push(i_col.to_string());
        let Some(copy) = s.op.copy_mut() else {
            return false;
        };
        copy.cols.push(i_col.to_string());
    }

    // Remove j; downstream reads of j's output move to j's source list, and
    // j's created column becomes i's column.
    let j_out = prog.stmts[j].output.name.clone();
    let mut renames = HashMap::new();
    renames.insert(j_col.to_string(), i_col.to_string());
    prog.stmts.remove(j);
    rename_refs(prog, &j_out, &j_src, &renames);
    true
}

// --------------------------------------------- rule 2: selection push-down

/// §7's second rule: a conjunct `b_i` of a post-join boolean predicate that
/// depends on only one join input is recomputed before that input's HASH,
/// guarded by a new FILTER, and dropped from the post-join predicate.
fn push_down_selection(prog: &mut TcapProgram) -> bool {
    let prov = Provenance::build(prog);

    // Find: FILTER  <-  bool_and APPLY  <-  ...  <-  JOIN
    for fi in 0..prog.stmts.len() {
        let TcapOp::Filter { bool_col, .. } = &prog.stmts[fi].op else {
            continue;
        };
        let Some(ai) = prog.producer_index(&bool_col.list) else {
            continue;
        };
        let TcapOp::Apply {
            input: and_in,
            meta,
            ..
        } = &prog.stmts[ai].op
        else {
            continue;
        };
        if meta_get(meta, "type") != Some("bool_and") || and_in.cols.len() != 2 {
            continue;
        }
        // Nearest JOIN ancestor along the copy chain.
        let mut cur = prog.stmts[ai].output.name.clone();
        let join_idx = loop {
            let Some(k) = prog.producer_index(&cur) else {
                break None;
            };
            match &prog.stmts[k].op {
                TcapOp::Join { .. } => break Some(k),
                op => match op.copy() {
                    Some(src) => cur = src.list.clone(),
                    None => break None,
                },
            }
        };
        let Some(ji) = join_idx else { continue };

        // Identify the base columns reachable from each side of the join.
        let TcapOp::Join {
            lhs_hash, rhs_hash, ..
        } = &prog.stmts[ji].op
        else {
            continue;
        };
        let (lhs_src, lhs_bases) = side_info(prog, &prov, &lhs_hash.list);
        let (rhs_src, rhs_bases) = side_info(prog, &prov, &rhs_hash.list);
        let (Some(lhs_src), Some(rhs_src)) = (lhs_src, rhs_src) else {
            continue;
        };

        let and_list = and_in.list.clone();
        let operands = and_in.cols.clone();
        for (oi, conjunct) in operands.iter().enumerate() {
            let deps = prov.base_deps(&and_list, conjunct);
            if deps.is_empty() {
                continue;
            }
            let side = if deps.is_subset(&lhs_bases) {
                Some((lhs_src.clone(), 0))
            } else if deps.is_subset(&rhs_bases) {
                Some((rhs_src.clone(), 1))
            } else {
                None
            };
            let Some((src_list, side_idx)) = side else {
                continue;
            };
            let other = operands[1 - oi].clone();
            if try_push(
                prog, &prov, fi, ai, ji, conjunct, &other, &src_list, side_idx,
            ) {
                return true;
            }
        }
    }
    false
}

/// Walks up a join side's chain to its source list (INPUT or prior sink
/// output) and collects the base column ids flowing on that side.
fn side_info(
    prog: &TcapProgram,
    prov: &Provenance,
    hash_list: &str,
) -> (Option<String>, BTreeSet<ColId>) {
    let mut bases = BTreeSet::new();
    let mut cur = hash_list.to_string();
    loop {
        let Some(k) = prog.producer_index(&cur) else {
            return (None, bases);
        };
        let s = &prog.stmts[k];
        for c in &s.output.cols {
            bases.extend(prov.base_deps(&s.output.name, c));
        }
        match &s.op {
            TcapOp::Input { .. } | TcapOp::Join { .. } | TcapOp::Aggregate { .. } => {
                return (Some(s.output.name.clone()), bases)
            }
            op => match op.copy() {
                Some(src) => cur = src.list.clone(),
                None => return (None, bases),
            },
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn try_push(
    prog: &mut TcapProgram,
    prov: &Provenance,
    fi: usize,
    ai: usize,
    ji: usize,
    conjunct: &str,
    other_operand: &str,
    src_list: &str,
    _side_idx: usize,
) -> bool {
    // 1. Collect the post-join statements computing `conjunct`: walk the
    //    closure of producer APPLYs between the join and the AND, *backwards*
    //    so that dependencies discovered late (e.g. the method call feeding a
    //    comparison) are still picked up.
    let join_out = prog.stmts[ji].output.name.clone();
    let mut want: BTreeSet<String> = BTreeSet::from([conjunct.to_string()]);
    let mut chain: Vec<usize> = Vec::new();
    for k in ((ji + 1)..ai).rev() {
        let s = &prog.stmts[k];
        let Some(created) = s.created() else {
            continue;
        };
        if !want.contains(created) {
            continue;
        }
        let TcapOp::Apply { input, .. } = &s.op else {
            return false;
        };
        chain.push(k);
        // Inputs that are themselves computed post-join must be produced too.
        for c in &input.cols {
            let id = prov.id.get(&(input.list.clone(), c.clone()));
            if let Some((def, _)) = id {
                if *def > ji {
                    want.insert(c.clone());
                }
            }
        }
    }
    chain.reverse(); // back to program order
                     // Everything wanted must be found among the chain's created columns.
    let produced: BTreeSet<String> = chain
        .iter()
        .filter_map(|&k| prog.stmts[k].created().map(str::to_string))
        .collect();
    if !want.iter().all(|c| produced.contains(c)) {
        return false;
    }
    if produced.len() != chain.len() {
        return false; // duplicate column names; cannot reason by name
    }
    // The chain's created columns may be *copied* through later vector lists
    // (they will be stripped below), but no non-chain statement other than
    // the AND may *compute* on them.
    for (k, s) in prog.stmts.iter().enumerate() {
        if chain.contains(&k) || k == ai {
            continue;
        }
        for (role, r) in s.op.refs() {
            if !is_copy_role(role) && r.cols.iter().any(|c| produced.contains(c)) {
                return false;
            }
        }
    }

    // 2. Clone the chain onto the join input side, reading from `src_list`.
    let src_cols = prog
        .producer(src_list)
        .map(|s| s.output.cols.clone())
        .unwrap_or_default();
    let mut cur_list = src_list.to_string();
    let mut cur_cols = src_cols.clone();
    let mut new_stmts: Vec<TcapStmt> = Vec::new();
    for &k in &chain {
        let TcapOp::Apply {
            input,
            computation,
            stage,
            meta,
            ..
        } = prog.stmts[k].op.clone()
        else {
            return false;
        };
        // every input column must already flow in the side chain
        if !input.cols.iter().all(|c| cur_cols.contains(c)) {
            return false;
        }
        let created = prog.stmts[k].created().unwrap().to_string();
        let out_name = fresh_among(prog, &new_stmts, "PshD");
        let mut out_cols = cur_cols.clone();
        out_cols.push(created.clone());
        new_stmts.push(TcapStmt {
            output: crate::ir::VecListDecl {
                name: out_name.clone(),
                cols: out_cols.clone(),
            },
            op: TcapOp::Apply {
                input: ColRef {
                    list: cur_list.clone(),
                    cols: input.cols.clone(),
                },
                copy: ColRef {
                    list: cur_list.clone(),
                    cols: cur_cols.clone(),
                },
                computation: computation.clone(),
                stage: stage.clone(),
                meta: meta.clone(),
            },
        });
        cur_list = out_name;
        cur_cols = out_cols;
    }
    // New FILTER restoring the side's original column set.
    let filter_name = prog.fresh_name("PshF");
    let computation = prog.stmts[ji].op.computation().to_string();
    new_stmts.push(TcapStmt {
        output: crate::ir::VecListDecl {
            name: filter_name.clone(),
            cols: src_cols.clone(),
        },
        op: TcapOp::Filter {
            bool_col: ColRef {
                list: cur_list.clone(),
                cols: vec![conjunct.to_string()],
            },
            copy: ColRef {
                list: cur_list.clone(),
                cols: src_cols.clone(),
            },
            computation,
            meta: vec![(String::from("type"), String::from("pushed_selection"))],
        },
    });

    // 3. Splice: insert the new statements right after the side's source
    //    statement; rewire the side chain's first consumer of `src_list`
    //    (other than the new statements) to read the filtered list.
    let src_idx = prog.producer_index(src_list).unwrap();
    let n_new = new_stmts.len();
    for (off, s) in new_stmts.into_iter().enumerate() {
        prog.stmts.insert(src_idx + 1 + off, s);
    }
    // Remap old consumers of src_list on this side (skip the cloned chain we
    // just inserted, which must keep reading the raw source).
    let first_new = src_idx + 1;
    let last_new = src_idx + n_new;
    let consumers: Vec<usize> = prog
        .consumers(src_list)
        .into_iter()
        .filter(|&c| c < first_new || c > last_new)
        .collect();
    for c in consumers {
        for (_, r) in prog.stmts[c].op.refs_mut() {
            if r.list == src_list {
                r.list = filter_name.clone();
            }
        }
    }

    // 4. Remove the post-join conjunct chain and collapse the AND.
    //    (Indices of chain/ai/fi all shifted by n_new.)
    let shift = |k: usize| if k > src_idx { k + n_new } else { k };
    let ai = shift(ai);
    let fi = shift(fi);
    let mut to_remove: Vec<usize> = chain.iter().map(|&k| shift(k)).collect();

    // Rewire each removed stmt's output to its copy source.
    for &k in to_remove.iter() {
        let out = prog.stmts[k].output.name.clone();
        let src = prog.stmts[k].op.copy().unwrap().list.clone();
        rename_refs(prog, &out, &src, &HashMap::new());
    }
    // Collapse AND: downstream (the FILTER) reads the surviving operand.
    let and_out = prog.stmts[ai].output.name.clone();
    let and_src = prog.stmts[ai].op.copy().unwrap().list.clone();
    let and_created = prog.stmts[ai].created().unwrap().to_string();
    let mut renames = HashMap::new();
    renames.insert(and_created, other_operand.to_string());
    rename_refs(prog, &and_out, &and_src, &renames);
    let _ = fi;
    to_remove.push(ai);
    to_remove.sort_unstable();
    for k in to_remove.into_iter().rev() {
        prog.stmts.remove(k);
    }
    // 5. The chain's created columns were copied through later vector lists;
    //    strip them from every statement downstream of the join (they no
    //    longer exist post-join). Downstream-ness is computed by a BFS over
    //    list names so the pushed pre-join chain is untouched.
    let mut downstream_lists: BTreeSet<String> = BTreeSet::from([join_out.clone()]);
    loop {
        let mut grew = false;
        for s in prog.stmts.iter() {
            if s.op
                .input_lists()
                .iter()
                .any(|l| downstream_lists.contains(*l))
                && downstream_lists.insert(s.output.name.clone())
            {
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    for s in prog.stmts.iter_mut() {
        let in_downstream =
            s.op.input_lists()
                .iter()
                .any(|l| downstream_lists.contains(*l))
                || downstream_lists.contains(&s.output.name);
        if !in_downstream {
            continue;
        }
        let strip = |r: &mut ColRef| {
            if downstream_lists.contains(&r.list) {
                r.cols.retain(|c| !produced.contains(c));
            }
        };
        for (_, r) in s.op.refs_mut() {
            strip(r);
        }
        if downstream_lists.contains(&s.output.name) {
            s.output.cols.retain(|c| !produced.contains(c));
        }
    }
    true
}

/// A list name unused both in `prog` and among not-yet-inserted statements.
fn fresh_among(prog: &TcapProgram, pending: &[TcapStmt], prefix: &str) -> String {
    let mut i = 1;
    loop {
        let candidate = format!("{prefix}_{i}");
        if prog.producer(&candidate).is_none()
            && !pending.iter().any(|s| s.output.name == candidate)
        {
            return candidate;
        }
        i += 1;
    }
}

// ------------------------------------------------- rule 3: dead col/stmt

/// Drops columns never referenced by any consumer and removes statements
/// that no OUTPUT sink transitively depends on. Returns (columns pruned,
/// stmts removed). Programs without OUTPUT statements (fragments, as in the
/// §7 examples) are left untouched — there is no liveness root to prune
/// against.
fn prune_dead(prog: &mut TcapProgram) -> (usize, usize) {
    let mut pruned_cols = 0;
    let mut removed = 0;

    let Some(live) = live_stmts(prog) else {
        return (0, 0);
    };
    let mut i = prog.stmts.len();
    while i > 0 {
        i -= 1;
        if !live[i] {
            prog.stmts.remove(i);
            removed += 1;
        }
    }

    // Dead copied columns.
    let referenced = referenced_cols(prog);
    for s in prog.stmts.iter_mut() {
        let name = s.output.name.clone();
        let keep = |c: &String| referenced.contains(&(name.clone(), c.clone()));
        // Only prune *copied* columns; created columns define the statement
        // and INPUT's base object columns always stay.
        let Some(copy) = s.op.copy() else {
            continue;
        };
        let dead: Vec<String> = copy.cols.iter().filter(|c| !keep(c)).cloned().collect();
        if dead.is_empty() {
            continue;
        }
        pruned_cols += dead.len();
        s.output.cols.retain(|c| !dead.contains(c));
        if let Some(copy) = s.op.copy_mut() {
            copy.cols.retain(|c| !dead.contains(c));
        }
    }
    (pruned_cols, removed)
}
