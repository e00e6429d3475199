//! Figure generators (Figures 1–5).

use pc_core::prelude::*;
use pc_exec::describe_decompositions;
use pc_object::pc_object;

pc_object! {
    pub struct Dep / DepView {
        (dept_name, set_dept_name): Handle<PcString>,
    }
}

pc_object! {
    pub struct Emp / EmpView {
        (dept, set_dept): Handle<PcString>,
        (salary, set_salary): i64,
    }
}

pc_object! {
    pub struct Sup / SupView {
        (dept, set_dept): Handle<PcString>,
    }
}

/// The §5.2 three-way-join chain, compiled and printed (Figure 1: the
/// first stages extract `Dep.deptName` and `Emp::getDeptName()`, compare,
/// and filter). Built over *unbound* datasets — compiling a job needs no
/// live cluster. It keeps the paper's Dep, Emp, Sup order, so `deps` is
/// the input that streams.
fn join_job() -> Job {
    let dep = Dataset::<Dep>::scan("db", "deps");
    let emp = Dataset::<Emp>::scan("db", "emps");
    let sup = Dataset::<Sup>::scan("db", "sups");
    let joined = dep.join3(
        &emp,
        &sup,
        |d, e, s| {
            d.member("deptName", |d| d.v().dept_name().as_str().to_string())
                .eq(e.method("getDeptName", |e| e.v().dept().as_str().to_string()))
                .and(
                    d.member("deptName", |d| d.v().dept_name().as_str().to_string())
                        .eq(s.method("getDept", |s| s.v().dept().as_str().to_string())),
                )
        },
        "mkResult",
        |d, _e, _s| Ok(d.clone()),
    );
    Job::new().add(joined.write_to("db", "out"))
}

/// Figure 1: the TCAP program compiled from the §4/§5.2 join example, and
/// its physical pipelines.
pub fn figure1() {
    println!("Figure 1: TCAP compiled from the Dep/Emp/Sup join chain\n");
    let q = join_job().compile().unwrap();
    println!("--- unoptimized TCAP ---\n{}", q.tcap);
    let mut tcap = q.tcap.clone();
    let report = pc_tcap::optimize(&mut tcap);
    println!("--- after optimization ({report:?}) ---\n{tcap}");
    let plan = pc_exec::plan(&tcap).unwrap();
    println!("--- physical pipelines ---\n{plan}");
}

/// Figure 2: the LDA computation graph (init-only vs per-iteration parts).
pub fn figure2() {
    println!("Figure 2: PC LDA computation structure\n");
    println!("init-only (dashed edges in the paper):");
    println!("  [1] Writer(triples)          <- client sendData of (doc,word,count)");
    println!("  [2] Writer(theta)            <- Dirichlet-initialized doc topic probs");
    println!("  [3] Writer(phi_by_word)      <- Dirichlet-initialized word topic probs");
    println!("per-iteration (solid edges):");
    println!("  [4] Reader(triples)     ──┐");
    println!("  [5] Reader(theta)       ──┼─> [7] JoinComp (triples ⋈ theta on doc)");
    println!("  [6] Reader(phi_by_word) ──┘       ⋈ phi on word (3-way cascade)");
    println!("  [8] projection: multinomial assignment sampler (native lambda)");
    println!("  [9] Writer(assignments)                 (end of job 1)");
    println!("  [10] Reader(assignments)                (job 2: one job, two sinks)");
    println!("       ├─> [11] AggregateComp by doc  ─> [12] Writer(theta)");
    println!("       └─> [13] AggregateComp by word ─> [14] Writer(word_counts)");
    println!("  [15] driver: Dirichlet(beta + per-topic counts) ─> Writer(phi_by_word)");
    println!();
    println!("Two engine jobs per iteration: a 3-way JoinComp whose projection is");
    println!("the multinomial sampler, then two AggregateComps over one reader of");
    println!("its output, as in Figure 2 of the paper. The θ aggregation emits");
    println!("DocProbs rows straight into `theta`; the driver draws φ (K is tiny).");
}

/// Figure 3: alternative pipeline decompositions of a 3-join TCAP DAG.
pub fn figure3() {
    println!("Figure 3: pipeline decompositions of the 3-way join program\n");
    let mut q = join_job().compile().unwrap();
    pc_tcap::optimize(&mut q.tcap);
    for d in describe_decompositions(&q.tcap) {
        println!("{d}");
    }
    println!("(the executor runs the first decomposition: each later input builds,");
    println!(" the first input streams through every probe — Appendix D.3)");
}

/// Figure 4: the live component topology of a running cluster.
pub fn figure4() {
    println!("Figure 4: PC distributed runtime (live topology)\n");
    let client = PcClient::connect(ClusterConfig {
        workers: 4,
        ..Default::default()
    })
    .unwrap();
    println!("master node:");
    println!(
        "  catalog manager        (sets: {})",
        client.cluster().catalog.list_sets().len()
    );
    println!("  distributed storage manager");
    println!("  TCAP optimizer         (rule-based, fixpoint)");
    println!("  distributed query scheduler (JobStages)");
    for w in &client.cluster().workers {
        println!("worker {}:", w.id);
        println!(
            "  front-end: local catalog (type fetches: {}), local storage + buffer pool",
            w.types.fetches()
        );
        println!("  backend:   executor threads (vectorized pipelines over user code)");
    }
}

/// Figure 5: distributed aggregation phase statistics from a live run.
pub fn figure5() {
    println!("Figure 5: distributed aggregation workflow (live run)\n");
    use pc_ml::kmeans::{synthetic_points, PcKMeans};
    let client = PcClient::connect(ClusterConfig {
        workers: 3,
        exec: ExecConfig {
            batch_size: 256,
            page_size: 1 << 16,
            partitions: 8,
            ..ExecConfig::default()
        },
        ..ClusterConfig::default()
    })
    .unwrap();
    let pts = synthetic_points(3000, 8, 5, 23);
    let mut km = PcKMeans::init(&client, "fig5", "pts", &pts, 5).unwrap();
    let before = client.cluster().stats_snapshot();
    km.iterate().unwrap();
    let after = client.cluster().stats_snapshot();
    println!("producing stage: 3 workers x 2 pipelining threads pre-aggregate");
    println!("  into hash-partitioned Map pages (6 partitions)");
    println!("combining threads: merge per-thread partials per partition");
    println!(
        "shuffle: {} pages / {} bytes crossed the byte-copy network",
        after.pages_shuffled - before.pages_shuffled,
        after.bytes_shuffled - before.bytes_shuffled
    );
    println!("aggregation threads: each partition owner merged its inbox and");
    println!("  materialized Centroid objects — zero serialization end to end");
}
