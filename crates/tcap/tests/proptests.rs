//! Property tests: print→parse is the identity on arbitrary well-formed
//! TCAP programs, and the optimizer is idempotent and validity-preserving.

use pc_tcap::ir::{ColRef, TcapOp, TcapProgram, TcapStmt, VecListDecl};
use pc_tcap::{optimize, parse_program};
use proptest::prelude::*;

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
}

fn meta() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(("[a-zA-Z]{1,8}", "[a-zA-Z0-9_<>=]{0,10}"), 0..3)
        .prop_map(|v| v.into_iter().collect())
}

/// Builds a random but *well-formed* linear program: each statement reads
/// the previous statement's output list and existing columns.
fn program() -> impl Strategy<Value = TcapProgram> {
    (
        ident(),
        proptest::collection::vec((ident(), meta(), any::<bool>()), 1..8),
    )
        .prop_map(|(src_col, steps)| {
            let mut stmts = vec![TcapStmt {
                output: VecListDecl {
                    name: "In_0".into(),
                    cols: vec![src_col.clone()],
                },
                op: TcapOp::Input {
                    db: "db".into(),
                    set: "set".into(),
                    computation: "Reader_0".into(),
                    meta: vec![],
                },
            }];
            let mut cur_list = "In_0".to_string();
            let mut cur_cols = vec![src_col];
            for (i, (col, m, is_filter)) in steps.into_iter().enumerate() {
                let name = format!("W_{}", i + 1);
                if is_filter && cur_cols.len() > 1 {
                    let bool_col = cur_cols.last().unwrap().clone();
                    let keep: Vec<String> = cur_cols[..cur_cols.len() - 1].to_vec();
                    stmts.push(TcapStmt {
                        output: VecListDecl {
                            name: name.clone(),
                            cols: keep.clone(),
                        },
                        op: TcapOp::Filter {
                            bool_col: ColRef {
                                list: cur_list.clone(),
                                cols: vec![bool_col],
                            },
                            copy: ColRef {
                                list: cur_list.clone(),
                                cols: keep.clone(),
                            },
                            computation: format!("Comp_{i}"),
                            meta: m,
                        },
                    });
                    cur_cols = keep;
                } else {
                    let new_col = format!("{col}{}", i + 1);
                    let mut out_cols = cur_cols.clone();
                    out_cols.push(new_col.clone());
                    stmts.push(TcapStmt {
                        output: VecListDecl {
                            name: name.clone(),
                            cols: out_cols.clone(),
                        },
                        op: TcapOp::Apply {
                            input: ColRef {
                                list: cur_list.clone(),
                                cols: vec![cur_cols[0].clone()],
                            },
                            copy: ColRef {
                                list: cur_list.clone(),
                                cols: cur_cols.clone(),
                            },
                            computation: format!("Comp_{i}"),
                            stage: format!("stage_{i}"),
                            meta: m,
                        },
                    });
                    cur_cols = out_cols;
                }
                cur_list = name;
            }
            stmts.push(TcapStmt {
                output: VecListDecl {
                    name: "Out_z".into(),
                    cols: vec![],
                },
                op: TcapOp::Output {
                    input: ColRef {
                        list: cur_list,
                        cols: vec![cur_cols[0].clone()],
                    },
                    db: "db".into(),
                    set: "out".into(),
                    computation: "Writer_z".into(),
                    meta: vec![],
                },
            });
            TcapProgram { stmts }
        })
}

/// Every referenced list has a producer and every referenced column exists
/// in its producer's declaration.
fn is_well_formed(prog: &TcapProgram) -> bool {
    prog.stmts.iter().all(|s| {
        s.op.refs().into_iter().all(|(_, r)| {
            prog.producer(&r.list)
                .is_some_and(|p| r.cols.iter().all(|c| p.output.cols.contains(c)))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn print_parse_roundtrip(prog in program()) {
        let printed = prog.to_string();
        let parsed = parse_program(&printed).unwrap();
        prop_assert_eq!(prog, parsed);
    }

    #[test]
    fn optimizer_preserves_well_formedness(prog in program()) {
        prop_assert!(is_well_formed(&prog));
        let mut p = prog.clone();
        optimize(&mut p);
        prop_assert!(is_well_formed(&p), "optimizer broke:\n{}\ninto:\n{}", prog, p);
    }

    #[test]
    fn optimizer_is_idempotent(prog in program()) {
        let mut once = prog.clone();
        optimize(&mut once);
        let mut twice = once.clone();
        let report = optimize(&mut twice);
        prop_assert_eq!(once, twice, "second pass changed the program: {:?}", report);
    }
}
