//! Ablation: the optimizer must never change query *results*, only cost.
//! Runs the same queries with no rules, each single rule, and all rules,
//! and demands identical output sets. Also pins down planner shapes.

use pc_core::{ClusterConfig, Dataset, Job, PcCluster};
use pc_exec::{plan, ExecConfig, PipeOp, Sink, Source};
use pc_object::{make_object, pc_object, AnyObj, Handle, PcVec, SealedPage};
use pc_tcap::{optimize_with, OptimizerRule};

pc_object! {
    pub struct Item / ItemView {
        (key, set_key): i64,
        (weight, set_weight): i64,
    }
}

pc_object! {
    pub struct Tag / TagView {
        (key, set_key): i64,
        (code, set_code): i64,
    }
}

/// Single-node execution: a one-worker cluster over the in-process
/// transport.
fn setup() -> PcCluster {
    PcCluster::new(ClusterConfig {
        workers: 1,
        exec: ExecConfig {
            batch_size: 32,
            page_size: 1 << 15,
            partitions: 2,
            morsel_rows: 64,
            ..ExecConfig::default()
        },
        ..ClusterConfig::default()
    })
    .unwrap()
}

fn load(ex: &PcCluster) {
    ex.create_or_clear_set("db", "items").unwrap();
    let mut w = pc_lambda::SetWriter::new(1 << 15);
    for i in 0..400i64 {
        w.write_with(|| {
            let it = make_object::<Item>()?;
            it.v().set_key(i % 13)?;
            it.v().set_weight((i * 31) % 200)?;
            Ok(it.erase())
        })
        .unwrap();
    }
    ex.send_pages("db", "items", w.finish().unwrap()).unwrap();
    ex.create_or_clear_set("db", "tags").unwrap();
    let mut w = pc_lambda::SetWriter::new(1 << 15);
    for i in 0..13i64 {
        w.write_with(|| {
            let t = make_object::<Tag>()?;
            t.v().set_key(i)?;
            t.v().set_code(i * 1000)?;
            Ok(t.erase())
        })
        .unwrap();
    }
    ex.send_pages("db", "tags", w.finish().unwrap()).unwrap();
}

fn query() -> Job {
    // join + pushable single-input conjunct + redundant method calls.
    let joined = Dataset::<Item>::scan("db", "items").join(
        &Dataset::<Tag>::scan("db", "tags"),
        |x, t| {
            x.member("key", |x| x.v().key())
                .eq(t.member("key", |t| t.v().key()))
                .and(x.method("getWeight", |x| x.v().weight()).gt_const(60i64))
                .and(x.method("getWeight", |x| x.v().weight()).lt_const(180i64))
        },
        "mkRow",
        |x, t| {
            let v = make_object::<PcVec<i64>>()?;
            v.push(x.v().key())?;
            v.push(x.v().weight())?;
            v.push(t.v().code())?;
            Ok(v)
        },
    );
    Job::new().add(joined.write_to("db", "out"))
}

fn run_with(rules: &[OptimizerRule]) -> Vec<(i64, i64, i64)> {
    let ex = setup();
    load(&ex);
    ex.create_or_clear_set("db", "out").unwrap();
    let mut q = query().compile().unwrap();
    optimize_with(&mut q.tcap, rules);
    // Plan and run directly: `execute` would apply every rule, and the rule
    // subset chosen here (including none) is what is under test.
    let physical = plan(&q.tcap).unwrap();
    ex.run_physical(&physical, &q.stages, &q.aggs).unwrap();
    let mut rows = Vec::new();
    for page in ex.workers[0].storage.scan("db", "out").unwrap() {
        let (_b, root) = SealedPage::from_bytes(&page.to_bytes())
            .unwrap()
            .open()
            .unwrap();
        let v = root.downcast::<PcVec<Handle<AnyObj>>>().unwrap();
        for h in v.iter() {
            let row: Handle<PcVec<i64>> = h.assume();
            rows.push((row.get(0), row.get(1), row.get(2)));
        }
    }
    rows.sort_unstable();
    rows
}

#[test]
fn every_rule_combination_preserves_results() {
    let baseline = run_with(&[]);
    assert!(!baseline.is_empty());
    for rules in [
        &[OptimizerRule::RedundantApply][..],
        &[OptimizerRule::SelectionPushdown][..],
        &[OptimizerRule::DeadColumns][..],
        &[
            OptimizerRule::RedundantApply,
            OptimizerRule::SelectionPushdown,
            OptimizerRule::DeadColumns,
        ][..],
    ] {
        let got = run_with(rules);
        assert_eq!(got, baseline, "rules {rules:?} changed the result set");
    }
}

#[test]
fn optimization_shrinks_the_program() {
    let mut q1 = query().compile().unwrap();
    let unopt = q1.tcap.stmts.len();
    optimize_with(
        &mut q1.tcap,
        &[
            OptimizerRule::RedundantApply,
            OptimizerRule::SelectionPushdown,
            OptimizerRule::DeadColumns,
        ],
    );
    assert!(
        q1.tcap.stmts.len() < unopt,
        "optimizer should shrink {unopt} statements, got {}",
        q1.tcap.stmts.len()
    );
}

#[test]
fn planner_shapes_match_appendix_c() {
    // A join query plans into: build pipeline (ends JoinBuild), probe
    // pipeline (runs THROUGH the join to OUTPUT). The later input (tags)
    // builds; the first (items) streams and probes.
    let mut q = query().compile().unwrap();
    pc_tcap::optimize(&mut q.tcap);
    let physical = plan(&q.tcap).unwrap();
    assert_eq!(physical.pipelines.len(), 2);
    let source_set = |p: &pc_exec::PipelineSpec| match &p.source {
        Source::Set { set, .. } => set.clone(),
        other => panic!("pipeline {} reads {other:?}", p.id),
    };
    let build = &physical.pipelines[0];
    assert!(matches!(build.sink, Sink::JoinBuild { .. }));
    assert_eq!(source_set(build), "tags");
    let probe = &physical.pipelines[1];
    assert!(matches!(probe.sink, Sink::Output { .. }));
    assert_eq!(source_set(probe), "items");
    assert!(
        probe
            .ops
            .iter()
            .any(|op| matches!(op, PipeOp::Probe { .. })),
        "probe pipeline must run through the join: {probe:?}"
    );
    // The build pipeline must be ordered before its probe.
    assert!(build.id < probe.id);
}

#[test]
fn decomposition_enumeration_covers_both_sides() {
    let mut q = query().compile().unwrap();
    pc_tcap::optimize(&mut q.tcap);
    let decomps = pc_exec::describe_decompositions(&q.tcap);
    assert_eq!(decomps.len(), 2, "one join → two decompositions");
    assert_ne!(decomps[0], decomps[1]);
}
