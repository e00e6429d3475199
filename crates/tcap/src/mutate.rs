//! Seeded plan mutation for the verifier's gauntlet.
//!
//! A verifier is only worth its keep if it actually catches broken rewrites,
//! so this module plays the adversary: [`mutate`] applies one of ~11 classes
//! of deliberately-broken transformations — the kinds of bugs an optimizer
//! rule or plan generator could realistically introduce — to a well-formed
//! program, and names the `TV` error code the verifier is expected to raise.
//! The gauntlet (`tests/verifier_gauntlet.rs`, `repro verify`) applies these
//! over every workload's lowered plan and asserts a ≥95% rejection rate with
//! the expected code, and zero false positives on the unmutated plans.
//!
//! Site selection is a pure function of the seed (the same SplitMix64-style
//! mixer as the transport/budget chaos layers), so a surviving mutant
//! replays exactly from its seed.

use crate::ir::{ColRef, TcapOp, TcapProgram};

/// SplitMix64-style mixer: one seed convention across the chaos suites. A
/// copy of `pc_object::hash::mix`, because this crate has no dependencies.
fn mix(seed: u64, n: u64, salt: u64) -> u64 {
    let mut z =
        seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const MUTATE_SALT: u64 = 0x00C0_FFEE;

/// Picks index `mix(seed, n) % len`.
fn pick(seed: u64, n: u64, len: usize) -> usize {
    (mix(seed, n, MUTATE_SALT) % len.max(1) as u64) as usize
}

/// The classes of deliberately-broken rewrites the gauntlet applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Point one column reference at a list nothing produces.
    RenameListRef,
    /// Rename one referenced column to a name its list does not declare.
    RenameColRef,
    /// Give a statement the output name of an earlier statement.
    DuplicateListName,
    /// Declare one output column twice.
    DuplicateOutputCol,
    /// Delete a statement whose output has consumers.
    DropStmt,
    /// Rewire a statement to read its own output.
    IntroduceCycle,
    /// Duplicate a kernel input: arity no longer matches the kernel.
    KernelArity,
    /// Change a boolean kernel's metadata type to `arithmetic`, so the
    /// downstream FILTER condition is no longer boolean.
    RetypeOutput,
    /// Drop a copied column from a statement's output declaration.
    DropOutputCol,
    /// Retarget a HASH at a raw object column.
    HashObject,
    /// Retarget one JOIN key at a non-hash column of the same list.
    RewireJoinKey,
}

/// All mutation classes, in gauntlet order.
pub const ALL_MUTATIONS: &[MutationKind] = &[
    MutationKind::RenameListRef,
    MutationKind::RenameColRef,
    MutationKind::DuplicateListName,
    MutationKind::DuplicateOutputCol,
    MutationKind::DropStmt,
    MutationKind::IntroduceCycle,
    MutationKind::KernelArity,
    MutationKind::RetypeOutput,
    MutationKind::DropOutputCol,
    MutationKind::HashObject,
    MutationKind::RewireJoinKey,
];

impl MutationKind {
    /// The error code the verifier must raise for this class of breakage.
    pub fn expected_code(self) -> &'static str {
        match self {
            MutationKind::RenameListRef => "TV0001",
            MutationKind::RenameColRef => "TV0003",
            MutationKind::DuplicateListName => "TV0002",
            MutationKind::DuplicateOutputCol => "TV0004",
            MutationKind::DropStmt => "TV0001",
            MutationKind::IntroduceCycle => "TV0005",
            MutationKind::KernelArity => "TV0103",
            MutationKind::RetypeOutput => "TV0101",
            MutationKind::DropOutputCol => "TV0007",
            MutationKind::HashObject => "TV0105",
            MutationKind::RewireJoinKey => "TV0102",
        }
    }

    /// A short human label for gauntlet tables.
    pub fn label(self) -> &'static str {
        match self {
            MutationKind::RenameListRef => "rename-list-ref",
            MutationKind::RenameColRef => "rename-col-ref",
            MutationKind::DuplicateListName => "duplicate-list-name",
            MutationKind::DuplicateOutputCol => "duplicate-output-col",
            MutationKind::DropStmt => "drop-stmt",
            MutationKind::IntroduceCycle => "introduce-cycle",
            MutationKind::KernelArity => "kernel-arity",
            MutationKind::RetypeOutput => "retype-output",
            MutationKind::DropOutputCol => "drop-output-col",
            MutationKind::HashObject => "hash-object",
            MutationKind::RewireJoinKey => "rewire-join-key",
        }
    }
}

/// A mutation that was actually applied: its class plus a description of
/// the site, for gauntlet reporting.
#[derive(Debug, Clone)]
pub struct Mutation {
    pub kind: MutationKind,
    pub description: String,
}

/// Every mutable [`ColRef`] of a statement (mutably).
fn refs_mut(op: &mut TcapOp) -> Vec<&mut ColRef> {
    match op {
        TcapOp::Input { .. } => vec![],
        TcapOp::Apply { input, copy, .. }
        | TcapOp::FlatMap { input, copy, .. }
        | TcapOp::Hash { input, copy, .. } => vec![input, copy],
        TcapOp::Filter { bool_col, copy, .. } => vec![bool_col, copy],
        TcapOp::Join {
            lhs_hash,
            lhs_copy,
            rhs_hash,
            rhs_copy,
            ..
        } => vec![lhs_hash, lhs_copy, rhs_hash, rhs_copy],
        TcapOp::Aggregate { key, value, .. } => vec![key, value],
        TcapOp::Output { input, .. } => vec![input],
    }
}

/// Applies mutation class `kind` to a seed-chosen applicable site in `prog`.
/// Returns `None` when the program offers no applicable site (e.g. no JOIN
/// to rewire) — the gauntlet skips those, it does not count them as misses.
pub fn mutate(
    prog: &TcapProgram,
    kind: MutationKind,
    seed: u64,
) -> Option<(TcapProgram, Mutation)> {
    let mut p = prog.clone();
    let desc: String;
    match kind {
        MutationKind::RenameListRef => {
            // Statements with at least one input reference.
            let sites: Vec<usize> = (0..p.stmts.len())
                .filter(|&i| !p.stmts[i].op.input_lists().is_empty())
                .collect();
            let &i = sites.get(pick(seed, 0, sites.len()))?;
            let stmt = &mut p.stmts[i];
            let mut refs = refs_mut(&mut stmt.op);
            let ri = pick(seed, 1, refs.len());
            let r = refs.get_mut(ri)?;
            desc = format!("stmt {i}: list ref `{}` -> `Zz_void`", r.list);
            r.list = "Zz_void".to_string();
        }
        MutationKind::RenameColRef => {
            let sites: Vec<usize> = (0..p.stmts.len())
                .filter(|&i| {
                    let mut s = p.stmts[i].clone();
                    refs_mut(&mut s.op).iter().any(|r| !r.cols.is_empty())
                })
                .collect();
            let &i = sites.get(pick(seed, 0, sites.len()))?;
            let stmt = &mut p.stmts[i];
            let mut refs: Vec<&mut ColRef> = refs_mut(&mut stmt.op)
                .into_iter()
                .filter(|r| !r.cols.is_empty())
                .collect();
            let ri = pick(seed, 1, refs.len());
            let r = refs.get_mut(ri)?;
            let ci = pick(seed, 2, r.cols.len());
            desc = format!("stmt {i}: column ref `{}` -> `zz_ghost`", r.cols[ci]);
            r.cols[ci] = "zz_ghost".to_string();
        }
        MutationKind::DuplicateListName => {
            if p.stmts.len() < 2 {
                return None;
            }
            let j = 1 + pick(seed, 0, p.stmts.len() - 1);
            let i = pick(seed, 1, j);
            desc = format!(
                "stmt {j}: output `{}` renamed to earlier `{}`",
                p.stmts[j].output.name, p.stmts[i].output.name
            );
            p.stmts[j].output.name = p.stmts[i].output.name.clone();
        }
        MutationKind::DuplicateOutputCol => {
            let sites: Vec<usize> = (0..p.stmts.len())
                .filter(|&i| !p.stmts[i].output.cols.is_empty())
                .collect();
            let &i = sites.get(pick(seed, 0, sites.len()))?;
            let cols = &mut p.stmts[i].output.cols;
            let c = cols[pick(seed, 1, cols.len())].clone();
            desc = format!("stmt {i}: column `{c}` declared twice");
            cols.push(c);
        }
        MutationKind::DropStmt => {
            let sites: Vec<usize> = (0..p.stmts.len())
                .filter(|&i| !p.consumers(&p.stmts[i].output.name).is_empty())
                .collect();
            let &i = sites.get(pick(seed, 0, sites.len()))?;
            desc = format!(
                "stmt {i}: `{}` deleted (its consumers dangle)",
                p.stmts[i].output.name
            );
            p.stmts.remove(i);
        }
        MutationKind::IntroduceCycle => {
            let sites: Vec<usize> = (0..p.stmts.len())
                .filter(|&i| !p.stmts[i].op.input_lists().is_empty())
                .collect();
            let &i = sites.get(pick(seed, 0, sites.len()))?;
            let own = p.stmts[i].output.name.clone();
            let stmt = &mut p.stmts[i];
            // Only refs that form statement-graph edges: a JOIN's copy refs
            // don't (they must mirror the hash refs — that's TV0009's job).
            let is_join = matches!(stmt.op, TcapOp::Join { .. });
            let mut refs = refs_mut(&mut stmt.op);
            if is_join {
                refs = vec![refs.remove(2), refs.remove(0)];
            }
            let ri = pick(seed, 1, refs.len());
            let r = refs.get_mut(ri)?;
            desc = format!("stmt {i}: reads its own output `{own}`");
            r.list = own;
        }
        MutationKind::KernelArity => {
            // APPLYs whose metadata pins an arity.
            let sites: Vec<usize> = (0..p.stmts.len())
                .filter(|&i| {
                    if let TcapOp::Apply { input, meta, .. } = &p.stmts[i].op {
                        !input.cols.is_empty()
                            && matches!(
                                crate::ir::meta_get(meta, "type"),
                                Some(
                                    "equalityCheck"
                                        | "comparison"
                                        | "arithmetic"
                                        | "bool_and"
                                        | "bool_or"
                                        | "bool_not"
                                        | "const_comparison"
                                )
                            )
                    } else {
                        false
                    }
                })
                .collect();
            let &i = sites.get(pick(seed, 0, sites.len()))?;
            let TcapOp::Apply { input, .. } = &mut p.stmts[i].op else {
                return None;
            };
            let c = input.cols[pick(seed, 1, input.cols.len())].clone();
            desc = format!("stmt {i}: kernel input `{c}` duplicated (arity +1)");
            input.cols.push(c);
        }
        MutationKind::RetypeOutput => {
            // A FILTER whose condition column is created by a boolean APPLY.
            let mut sites: Vec<(usize, usize)> = Vec::new(); // (filter, apply)
            for fi in 0..p.stmts.len() {
                let TcapOp::Filter { bool_col, .. } = &p.stmts[fi].op else {
                    continue;
                };
                let Some(ai) = p.producer_index(&bool_col.list) else {
                    continue;
                };
                if let TcapOp::Apply { meta, copy, .. } = &p.stmts[ai].op {
                    let boolish = matches!(
                        crate::ir::meta_get(meta, "type"),
                        Some(
                            "equalityCheck"
                                | "comparison"
                                | "const_comparison"
                                | "bool_and"
                                | "bool_or"
                                | "bool_not"
                        )
                    );
                    // The condition must be the APPLY's *created* column.
                    let created = bool_col.cols.iter().any(|c| !copy.cols.contains(c));
                    if boolish && created {
                        sites.push((fi, ai));
                    }
                }
            }
            let &(fi, ai) = sites.get(pick(seed, 0, sites.len()))?;
            let TcapOp::Apply { meta, .. } = &mut p.stmts[ai].op else {
                return None;
            };
            desc = format!(
                "stmt {ai}: boolean kernel retyped `arithmetic` (FILTER at stmt {fi} now non-boolean)"
            );
            meta.retain(|(k, _)| k != "type");
            meta.push(("type".into(), "arithmetic".into()));
        }
        MutationKind::DropOutputCol => {
            // Statements with a copied column present in the output decl.
            let mut sites: Vec<(usize, String)> = Vec::new();
            for (i, s) in p.stmts.iter().enumerate() {
                let copy_cols: Vec<String> = match &s.op {
                    TcapOp::Apply { copy, .. }
                    | TcapOp::FlatMap { copy, .. }
                    | TcapOp::Hash { copy, .. }
                    | TcapOp::Filter { copy, .. } => copy.cols.clone(),
                    TcapOp::Join { lhs_copy, .. } => lhs_copy.cols.clone(),
                    _ => continue,
                };
                for c in copy_cols {
                    if s.output.cols.contains(&c) {
                        sites.push((i, c));
                    }
                }
            }
            let (i, c) = sites.get(pick(seed, 0, sites.len()))?.clone();
            desc = format!("stmt {i}: copied column `{c}` dropped from the output declaration");
            p.stmts[i].output.cols.retain(|x| *x != c);
        }
        MutationKind::HashObject => {
            // A HASH whose source list declares an object column: INPUT
            // columns reached directly, or any copy of one. Cheap proxy:
            // retarget the HASH input at one of its *copied* columns when
            // that column traces to an INPUT declaration by name.
            let mut sites: Vec<(usize, String)> = Vec::new();
            for (i, s) in p.stmts.iter().enumerate() {
                let TcapOp::Hash { copy, .. } = &s.op else {
                    continue;
                };
                for c in &copy.cols {
                    if col_is_object(&p, &copy.list, c) {
                        sites.push((i, c.clone()));
                    }
                }
            }
            let (i, c) = sites.get(pick(seed, 0, sites.len()))?.clone();
            let TcapOp::Hash { input, .. } = &mut p.stmts[i].op else {
                return None;
            };
            desc = format!("stmt {i}: HASH retargeted at object column `{c}`");
            input.cols = vec![c];
        }
        MutationKind::RewireJoinKey => {
            // A JOIN whose hash-side list carries a non-hash column.
            let mut sites: Vec<(usize, bool, String)> = Vec::new();
            for (i, s) in p.stmts.iter().enumerate() {
                let TcapOp::Join {
                    lhs_hash, rhs_hash, ..
                } = &s.op
                else {
                    continue;
                };
                for (left, h) in [(true, lhs_hash), (false, rhs_hash)] {
                    let Some(producer) = p.producer(&h.list) else {
                        continue;
                    };
                    for c in &producer.output.cols {
                        if !h.cols.contains(c) && col_is_object(&p, &h.list, c) {
                            sites.push((i, left, c.clone()));
                        }
                    }
                }
            }
            let (i, left, c) = sites.get(pick(seed, 0, sites.len()))?.clone();
            let TcapOp::Join {
                lhs_hash, rhs_hash, ..
            } = &mut p.stmts[i].op
            else {
                return None;
            };
            let side = if left { lhs_hash } else { rhs_hash };
            desc = format!(
                "stmt {i}: {} join key rewired to non-hash column `{c}`",
                if left { "lhs" } else { "rhs" }
            );
            side.cols = vec![c];
        }
    }
    Some((
        p,
        Mutation {
            kind,
            description: desc,
        },
    ))
}

/// Conservatively: does `(list, col)` provably carry objects? True when the
/// column's name-preserving copy chain bottoms out at an INPUT declaration.
fn col_is_object(prog: &TcapProgram, list: &str, col: &str) -> bool {
    let mut cur = list.to_string();
    for _ in 0..prog.stmts.len() + 1 {
        let Some(s) = prog.producer(&cur) else {
            return false;
        };
        match &s.op {
            TcapOp::Input { .. } => return s.output.cols.iter().any(|c| c == col),
            TcapOp::Apply { copy, .. }
            | TcapOp::FlatMap { copy, .. }
            | TcapOp::Hash { copy, .. }
            | TcapOp::Filter { copy, .. } => {
                if copy.cols.iter().any(|c| c == col) {
                    cur = copy.list.clone();
                } else {
                    return false;
                }
            }
            TcapOp::Join {
                lhs_copy, rhs_copy, ..
            } => {
                if lhs_copy.cols.iter().any(|c| c == col) {
                    cur = lhs_copy.list.clone();
                } else if rhs_copy.cols.iter().any(|c| c == col) {
                    cur = rhs_copy.list.clone();
                } else {
                    return false;
                }
            }
            TcapOp::Aggregate { .. } | TcapOp::Output { .. } => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;
    use crate::verify::verify;

    const PROG: &str = "\
In_0(in0) <= INPUT('db', 'a', 'ReadA', []);
In_1(in1) <= INPUT('db', 'b', 'ReadB', []);
W_1(in0,mt1) <= APPLY(In_0(in0), In_0(in0), 'J', 'key_l', [('type', 'methodCall'), ('methodName', 'k')]);
H_1(in0,hash1) <= HASH(W_1(mt1), W_1(in0), 'J', [('type', 'hashOne')]);
W_2(in1,mt2) <= APPLY(In_1(in1), In_1(in1), 'J', 'key_r', [('type', 'methodCall'), ('methodName', 'k')]);
H_2(in1,hash2) <= HASH(W_2(mt2), W_2(in1), 'J', [('type', 'hashOne')]);
J_1(in0,in1) <= JOIN(H_1(hash1), H_1(in0), H_2(hash2), H_2(in1), 'J', []);
W_3(in0,in1,mt3) <= APPLY(J_1(in0), J_1(in0,in1), 'J', 'get_1', [('type', 'methodCall'), ('methodName', 'v')]);
W_4(in0,in1,bl1) <= APPLY(W_3(mt3), W_3(in0,in1), 'J', 'gtc_1', [('type', 'const_comparison'), ('op', 'gt')]);
Flt_1(in0,in1) <= FILTER(W_4(bl1), W_4(in0,in1), 'J', []);
Out_0() <= OUTPUT(Flt_1(in0), 'db', 'out', 'Write', []);
";

    #[test]
    fn every_class_applies_and_is_caught_on_the_join_plan() {
        let prog = parse_program(PROG).unwrap();
        assert!(verify(&prog).is_clean(), "{}", verify(&prog).render());
        for &kind in ALL_MUTATIONS {
            let mut applied = 0;
            let mut caught = 0;
            for seed in 0..16 {
                let Some((mutant, m)) = mutate(&prog, kind, seed) else {
                    continue;
                };
                applied += 1;
                let report = verify(&mutant);
                if report.has_code(kind.expected_code()) {
                    caught += 1;
                } else {
                    eprintln!(
                        "MISSED {:?} ({}): expected {}\n{}",
                        kind,
                        m.description,
                        kind.expected_code(),
                        report.render()
                    );
                }
            }
            assert!(applied > 0, "{kind:?} never applied");
            assert_eq!(caught, applied, "{kind:?}: {caught}/{applied} caught");
        }
    }

    #[test]
    fn mutation_is_deterministic_in_the_seed() {
        let prog = parse_program(PROG).unwrap();
        for &kind in ALL_MUTATIONS {
            let a = mutate(&prog, kind, 42).map(|(p, _)| p);
            let b = mutate(&prog, kind, 42).map(|(p, _)| p);
            assert_eq!(a, b);
        }
    }
}
