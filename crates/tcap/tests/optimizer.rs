//! Optimizer tests built directly from the two worked examples of §7.

use pc_tcap::ir::{meta_get, TcapOp};
use pc_tcap::{optimize, parse_program};

/// §7's first example: `getSalary() > 50000 && getSalary() < 100000`
/// compiles to two `method_call` APPLYs on the same object column; the
/// second must be removed as redundant.
const REDUNDANT_CALL: &str = r#"
In(emp) <= INPUT('db', 'emps', 'Sel_43', []);
JK2_1(emp,mt1) <= APPLY(In(emp), In(emp), 'Sel_43', 'method_call_1',
    [('type', 'methodCall'), ('methodName', 'getSalary')]);
JK2_2(emp,bl1) <= APPLY(JK2_1(mt1), JK2_1(emp), 'Sel_43', 'gt_1',
    [('type', 'const_comparison'), ('op', 'gt')]);
JK2_3(emp,bl1,mt2) <= APPLY(JK2_2(emp), JK2_2(emp,bl1), 'Sel_43', 'method_call_2',
    [('type', 'methodCall'), ('methodName', 'getSalary')]);
JK2_4(emp,bl1,bl2) <= APPLY(JK2_3(mt2), JK2_3(emp,bl1), 'Sel_43', 'lt_1',
    [('type', 'const_comparison'), ('op', 'lt')]);
JK2_5(emp,bl3) <= APPLY(JK2_4(bl1,bl2), JK2_4(emp), 'Sel_43', 'and_1',
    [('type', 'bool_and')]);
JK2_6(emp) <= FILTER(JK2_5(bl3), JK2_5(emp), 'Sel_43', []);
"#;

#[test]
fn redundant_method_call_is_eliminated() {
    let mut prog = parse_program(REDUNDANT_CALL).unwrap();
    let report = optimize(&mut prog);
    assert_eq!(report.redundant_applies_removed, 1);

    // Exactly one method_call APPLY must remain.
    let method_calls = prog
        .stmts
        .iter()
        .filter(|s| {
            matches!(&s.op, TcapOp::Apply { meta, .. }
                if meta_get(meta, "type") == Some("methodCall"))
        })
        .count();
    assert_eq!(method_calls, 1, "optimized program:\n{prog}");

    // The paper's optimized shape has 6 statements (INPUT + 5).
    assert_eq!(prog.stmts.len(), 6, "optimized program:\n{prog}");

    // The `lt` comparison must now consume mt1 — the carried result of the
    // first call.
    let lt = prog
        .stmts
        .iter()
        .find(|s| matches!(&s.op, TcapOp::Apply { meta, .. } if meta_get(meta, "op") == Some("lt")))
        .expect("lt comparison survives");
    match &lt.op {
        TcapOp::Apply { input, .. } => assert_eq!(input.cols, vec!["mt1"]),
        _ => unreachable!(),
    }
}

#[test]
fn redundant_elimination_is_idempotent() {
    let mut prog = parse_program(REDUNDANT_CALL).unwrap();
    optimize(&mut prog);
    let once = prog.clone();
    let report = optimize(&mut prog);
    assert_eq!(report.redundant_applies_removed, 0);
    assert_eq!(prog, once);
}

/// §7's second example: a join of Emp and Sup where
/// `emp.getSalary() > 50000` can be evaluated before the join.
const PUSHDOWN: &str = r#"
InSup(sup) <= INPUT('db', 'sups', 'Join_42', []);
InEmp(emp) <= INPUT('db', 'emps', 'Join_42', []);
JK2_1(sup,mt1) <= APPLY(InSup(sup), InSup(sup), 'Join_42', 'att_access_1',
    [('type', 'attAccess'), ('attName', 'name')]);
JK2_2(sup,hash1) <= HASH(JK2_1(mt1), JK2_1(sup), 'Join_42', []);
JK2_3(emp,mt2) <= APPLY(InEmp(emp), InEmp(emp), 'Join_42', 'method_call_1',
    [('type', 'methodCall'), ('methodName', 'getSupervisor')]);
JK2_4(emp,hash2) <= HASH(JK2_3(mt2), JK2_3(emp), 'Join_42', []);
JK2_5(sup,emp) <= JOIN(JK2_2(hash1), JK2_2(sup), JK2_4(hash2), JK2_4(emp), 'Join_42', []);
JK2_6(sup,emp,mt3) <= APPLY(JK2_5(emp), JK2_5(sup,emp), 'Join_42', 'method_call_2',
    [('type', 'methodCall'), ('methodName', 'getSalary')]);
JK2_7(sup,emp,bool1) <= APPLY(JK2_6(mt3), JK2_6(sup,emp), 'Join_42', 'gt_1',
    [('type', 'const_comparison'), ('op', 'gt')]);
JK2_8(sup,emp,bool1,mt4) <= APPLY(JK2_7(emp), JK2_7(sup,emp,bool1), 'Join_42', 'method_call_3',
    [('type', 'methodCall'), ('methodName', 'getSupervisor')]);
JK2_9(sup,emp,bool1,mt4,mt5) <= APPLY(JK2_8(sup), JK2_8(sup,emp,bool1,mt4), 'Join_42', 'att_access_2',
    [('type', 'attAccess'), ('attName', 'name')]);
JK2_10(sup,emp,bool1,bool2) <= APPLY(JK2_9(mt4,mt5), JK2_9(sup,emp,bool1), 'Join_42', 'eq_1',
    [('type', 'equalityCheck')]);
JK2_11(sup,emp,bool3) <= APPLY(JK2_10(bool1,bool2), JK2_10(sup,emp), 'Join_42', 'and_1',
    [('type', 'bool_and')]);
JK2_12(sup,emp) <= FILTER(JK2_11(bool3), JK2_11(sup,emp), 'Join_42', []);
"#;

#[test]
fn single_input_conjunct_is_pushed_below_the_join() {
    let mut prog = parse_program(PUSHDOWN).unwrap();
    let report = optimize(&mut prog);
    assert!(
        report.selections_pushed_down >= 1,
        "report: {report:?}\n{prog}"
    );

    // A FILTER must now exist *before* the join in topological order, on the
    // employee side.
    let join_pos = prog
        .stmts
        .iter()
        .position(|s| matches!(s.op, TcapOp::Join { .. }))
        .expect("join survives");
    let pushed_filter = prog.stmts[..join_pos]
        .iter()
        .position(|s| matches!(s.op, TcapOp::Filter { .. }))
        .expect("a FILTER must be evaluated before the join");
    let _ = pushed_filter;

    // The salary comparison must happen before the join too.
    let salary_call = prog
        .stmts
        .iter()
        .position(|s| {
            matches!(&s.op, TcapOp::Apply { meta, .. }
                if meta_get(meta, "methodName") == Some("getSalary"))
        })
        .expect("salary call survives");
    assert!(
        salary_call < join_pos,
        "salary call must be pre-join:\n{prog}"
    );

    // The bool_and is gone: only one residual predicate remains after the join.
    let ands = prog
        .stmts
        .iter()
        .filter(|s| matches!(&s.op, TcapOp::Apply { meta, .. } if meta_get(meta, "type") == Some("bool_and")))
        .count();
    assert_eq!(ands, 0, "bool_and should collapse:\n{prog}");
}

#[test]
fn pushdown_keeps_a_runnable_dag() {
    let mut prog = parse_program(PUSHDOWN).unwrap();
    optimize(&mut prog);
    // Every referenced list must have a producer, and every referenced
    // column must be in its producer's output declaration.
    for s in &prog.stmts {
        for (_, r) in s.op.refs() {
            let p = prog
                .producer(&r.list)
                .unwrap_or_else(|| panic!("dangling list {} in:\n{prog}", r.list));
            for c in &r.cols {
                assert!(
                    p.output.cols.contains(c),
                    "column {c} not produced by {} in:\n{prog}",
                    r.list
                );
            }
        }
    }
}

#[test]
fn dead_columns_are_pruned_with_output_sinks() {
    let src = r#"
In(emp) <= INPUT('db', 'emps', 'Sel_1', []);
A(emp,x) <= APPLY(In(emp), In(emp), 'Sel_1', 'm1', [('type', 'methodCall'), ('methodName', 'getX')]);
B(emp,x,y) <= APPLY(A(emp), A(emp,x), 'Sel_1', 'm2', [('type', 'methodCall'), ('methodName', 'getY')]);
Out() <= OUTPUT(B(y), 'db', 'out', 'Writer_1', []);
"#;
    let mut prog = parse_program(src).unwrap();
    let report = optimize(&mut prog);
    // `x` is carried into B but never used downstream → pruned. `emp` in B
    // is also unused by the OUTPUT → pruned.
    assert!(report.dead_columns_pruned >= 2, "report {report:?}\n{prog}");
    let b = prog.producer("B").unwrap();
    assert!(!b.output.cols.contains(&"x".to_string()), "{prog}");
}

#[test]
fn unreachable_statements_are_removed() {
    let src = r#"
In(emp) <= INPUT('db', 'emps', 'Sel_1', []);
Dead(emp,z) <= APPLY(In(emp), In(emp), 'Sel_1', 'm3', [('type', 'methodCall'), ('methodName', 'getZ')]);
A(emp,x) <= APPLY(In(emp), In(emp), 'Sel_1', 'm1', [('type', 'methodCall'), ('methodName', 'getX')]);
Out() <= OUTPUT(A(x), 'db', 'out', 'Writer_1', []);
"#;
    let mut prog = parse_program(src).unwrap();
    let report = optimize(&mut prog);
    assert!(report.dead_statements_removed >= 1);
    assert!(prog.producer("Dead").is_none());
}
