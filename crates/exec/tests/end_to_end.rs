//! End-to-end tests: lambda calculus → TCAP → optimizer → physical plan →
//! vectorized execution, verified against straight-line Rust computations.

use pc_core::{ClusterConfig, Dataset, Job, PcCluster};
use pc_exec::{ExecConfig, PipeOp, Sink, Source};
use pc_lambda::AggregateSpec;
use pc_object::{
    make_object, pc_object, AnyObj, BlockRef, Handle, PcResult, PcString, PcVec, SealedPage,
};

pc_object! {
    /// Employee record.
    pub struct Emp / EmpView {
        (salary, set_salary): i64,
        (dept_id, set_dept_id): i64,
        (name, set_name): Handle<PcString>,
    }
}

pc_object! {
    /// Department record.
    pub struct Dept / DeptView {
        (id, set_id): i64,
        (dname, set_dname): Handle<PcString>,
    }
}

pc_object! {
    /// Join output: employee + department names.
    pub struct Placement / PlacementView {
        (emp_name, set_emp_name): Handle<PcString>,
        (dept_name, set_dept_name): Handle<PcString>,
        (salary, set_salary): i64,
    }
}

pc_object! {
    /// A row of the three-way join tests: an id and two join keys.
    pub struct Node / NodeView {
        (id, set_id): i64,
        (k1, set_k1): i64,
        (k2, set_k2): i64,
    }
}

pc_object! {
    /// Aggregation output.
    pub struct DeptStat / DeptStatView {
        (dept, set_dept): i64,
        (count, set_count): i64,
        (total, set_total): f64,
    }
}

/// Single-node execution: a one-worker cluster over the in-process
/// transport.
fn one_worker(exec: ExecConfig) -> PcCluster {
    PcCluster::new(ClusterConfig {
        workers: 1,
        exec,
        ..ClusterConfig::default()
    })
    .unwrap()
}

fn setup() -> PcCluster {
    one_worker(ExecConfig {
        batch_size: 64,
        page_size: 1 << 16,
        partitions: 4,
        morsel_rows: 128,
        ..ExecConfig::default()
    })
}

fn load_emps(ex: &PcCluster, n: usize) {
    ex.create_or_clear_set("db", "emps").unwrap();
    let mut writer = pc_lambda::SetWriter::new(1 << 16);
    for i in 0..n {
        writer
            .write_with(|| {
                let e = make_object::<Emp>()?;
                e.v().set_salary(30_000 + (i as i64 * 977) % 90_000)?;
                e.v().set_dept_id((i % 7) as i64)?;
                e.v().set_name(PcString::make(&format!("emp{i}"))?)?;
                Ok(e.erase())
            })
            .unwrap();
    }
    ex.send_pages("db", "emps", writer.finish().unwrap())
        .unwrap();
}

fn load_depts(ex: &PcCluster) {
    ex.create_or_clear_set("db", "depts").unwrap();
    let mut writer = pc_lambda::SetWriter::new(1 << 16);
    for d in 0..7i64 {
        writer
            .write_with(|| {
                let dept = make_object::<Dept>()?;
                dept.v().set_id(d)?;
                dept.v().set_dname(PcString::make(&format!("dept{d}"))?)?;
                Ok(dept.erase())
            })
            .unwrap();
    }
    ex.send_pages("db", "depts", writer.finish().unwrap())
        .unwrap();
}

fn read_all<T: pc_object::PcObjType>(ex: &PcCluster, db: &str, set: &str) -> Vec<Handle<T>> {
    let mut out = Vec::new();
    for page in ex.workers[0].storage.scan(db, set).unwrap() {
        let (_b, root) = SealedPage::from_bytes(&page.to_bytes())
            .unwrap()
            .open()
            .unwrap();
        let v = root.downcast::<PcVec<Handle<AnyObj>>>().unwrap();
        for h in v.iter() {
            out.push(h.assume::<T>());
        }
    }
    out
}

/// Asserts Appendix D.3's sides for a join query: the `JoinBuild`
/// pipelines read exactly `build_sets`, and the one pipeline that probes
/// starts at `probe_set` and runs through one table per build.
fn assert_join_sides(tcap: &pc_tcap::ir::TcapProgram, probe_set: &str, build_sets: &[&str]) {
    let mut tcap = tcap.clone();
    pc_tcap::optimize(&mut tcap);
    let physical = pc_exec::plan(&tcap).unwrap();
    let set_of = |src: &Source| match src {
        Source::Set { set, .. } => set.clone(),
        Source::Intermediate { list, .. } => format!("__tmp:{list}"),
    };
    let mut builds: Vec<String> = physical
        .pipelines
        .iter()
        .filter(|p| matches!(p.sink, Sink::JoinBuild { .. }))
        .map(|p| set_of(&p.source))
        .collect();
    builds.sort();
    let mut want: Vec<String> = build_sets.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(builds, want, "build pipelines:\n{physical}");
    let is_probe = |op: &PipeOp| matches!(op, PipeOp::Probe { .. });
    let probes: Vec<_> = physical
        .pipelines
        .iter()
        .filter(|p| p.ops.iter().any(is_probe))
        .collect();
    assert_eq!(probes.len(), 1, "one probe pipeline:\n{physical}");
    assert_eq!(set_of(&probes[0].source), probe_set, "{physical}");
    assert_eq!(
        probes[0].ops.iter().filter(|op| is_probe(op)).count(),
        build_sets.len(),
        "the probe runs through every table:\n{physical}"
    );
}

/// Expected salaries per the generator above.
fn expected_salaries(n: usize) -> Vec<(i64, i64)> {
    (0..n)
        .map(|i| (30_000 + (i as i64 * 977) % 90_000, (i % 7) as i64))
        .collect()
}

#[test]
fn selection_with_redundant_method_calls() {
    let ex = setup();
    load_emps(&ex, 500);
    ex.create_or_clear_set("db", "rich").unwrap();

    // The §7 example: salary > 50000 && salary < 100000 — two method calls
    // that the optimizer must fuse into one.
    let rich = Dataset::<Emp>::scan("db", "emps").filter(|e| {
        e.method("getSalary", |e| e.v().salary())
            .gt_const(50_000i64)
            .and(
                e.method("getSalary", |e| e.v().salary())
                    .lt_const(100_000i64),
            )
    });
    let mut q = Job::new()
        .add(rich.write_to("db", "rich"))
        .compile()
        .unwrap();
    let report = pc_tcap::optimize(&mut q.tcap);
    assert!(
        report.redundant_applies_removed >= 1,
        "CSE must fire: {report:?}\n{}",
        q.tcap
    );

    let stats = ex.execute(&q).unwrap().exec;
    let got = read_all::<Emp>(&ex, "db", "rich");
    let expected: Vec<i64> = expected_salaries(500)
        .into_iter()
        .map(|(s, _)| s)
        .filter(|s| *s > 50_000 && *s < 100_000)
        .collect();
    assert_eq!(got.len(), expected.len());
    let mut got_salaries: Vec<i64> = got.iter().map(|e| e.v().salary()).collect();
    let mut want = expected;
    got_salaries.sort_unstable();
    want.sort_unstable();
    assert_eq!(got_salaries, want);
    assert!(stats.rows_in >= 500);
}

#[test]
fn two_way_join_with_pushdown() {
    let ex = setup();
    load_emps(&ex, 300);
    load_depts(&ex);
    ex.create_or_clear_set("db", "placements").unwrap();

    // Join on dept id; also require salary > 60000 (pushable to the emp side).
    let joined = Dataset::<Emp>::scan("db", "emps").join(
        &Dataset::<Dept>::scan("db", "depts"),
        |e, d| {
            e.member("deptId", |e| e.v().dept_id())
                .eq(d.member("id", |d| d.v().id()))
                .and(
                    e.method("getSalary", |e| e.v().salary())
                        .gt_const(60_000i64),
                )
        },
        "mkPlacement",
        |e, d| {
            let p = make_object::<Placement>()?;
            p.v().set_emp_name(e.v().name())?;
            p.v().set_dept_name(d.v().dname())?;
            p.v().set_salary(e.v().salary())?;
            Ok(p)
        },
    );
    let mut q = Job::new()
        .add(joined.write_to("db", "placements"))
        .compile()
        .unwrap();
    let report = pc_tcap::optimize(&mut q.tcap);
    assert!(
        report.selections_pushed_down >= 1,
        "pushdown must fire:\n{}",
        q.tcap
    );

    // The first input (emps) streams and probes; depts builds.
    assert_join_sides(&q.tcap, "emps", &["depts"]);

    let stats = ex.execute(&q).unwrap().exec;
    let depts: std::collections::HashMap<i64, String> =
        (0..7).map(|d| (d, format!("dept{d}"))).collect();
    let mut want: Vec<(String, String, i64)> = expected_salaries(300)
        .into_iter()
        .enumerate()
        .filter(|(_, (s, _))| *s > 60_000)
        .map(|(i, (s, d))| (format!("emp{i}"), depts[&d].clone(), s))
        .collect();
    want.sort();
    let mut got: Vec<(String, String, i64)> = read_all::<Placement>(&ex, "db", "placements")
        .iter()
        .map(|p| {
            (
                p.v().emp_name().as_str().to_string(),
                p.v().dept_name().as_str().to_string(),
                p.v().salary(),
            )
        })
        .collect();
    got.sort();
    assert_eq!(got, want);
    // Every probe row is an employee that passed the pushed-down filter.
    assert_eq!(stats.rows_probed, want.len() as u64);
    // Each department is one build row, counted once.
    assert_eq!(stats.join_groups, 7);
}

struct DeptAgg;

impl AggregateSpec for DeptAgg {
    type In = Emp;
    type Key = i64;
    type Val = (i64, i64); // (count, total salary)
    type Out = DeptStat;

    fn key_of(&self, rec: &Handle<Emp>) -> PcResult<i64> {
        Ok(rec.v().dept_id())
    }

    fn init(&self, _b: &BlockRef, rec: &Handle<Emp>) -> PcResult<(i64, i64)> {
        Ok((1, rec.v().salary()))
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<Emp>) -> PcResult<()> {
        let (c, t): (i64, i64) = b.read(slot);
        b.write(slot, (c + 1, t + rec.v().salary()));
        Ok(())
    }

    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()> {
        let (c1, t1): (i64, i64) = dst.read(dst_slot);
        let (c2, t2): (i64, i64) = src.read(src_slot);
        dst.write(dst_slot, (c1 + c2, t1 + t2));
        Ok(())
    }

    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<DeptStat>> {
        let (c, t): (i64, i64) = b.read(slot);
        let out = make_object::<DeptStat>()?;
        out.v().set_dept(*key)?;
        out.v().set_count(c)?;
        out.v().set_total(t as f64)?;
        Ok(out)
    }
}

#[test]
fn aggregation_groups_and_sums() {
    let ex = setup();
    load_emps(&ex, 700);
    ex.create_or_clear_set("db", "deptstats").unwrap();

    let stats_ds = Dataset::<Emp>::scan("db", "emps").aggregate(DeptAgg);
    let q = Job::new()
        .add(stats_ds.write_to("db", "deptstats"))
        .compile()
        .unwrap();
    let stats = ex.execute(&q).unwrap().exec;
    assert_eq!(stats.agg_groups, 7);

    let got = read_all::<DeptStat>(&ex, "db", "deptstats");
    assert_eq!(got.len(), 7);
    let mut expect: std::collections::HashMap<i64, (i64, i64)> = Default::default();
    for (s, d) in expected_salaries(700) {
        let e = expect.entry(d).or_insert((0, 0));
        e.0 += 1;
        e.1 += s;
    }
    for stat in got {
        let (c, t) = expect[&stat.v().dept()];
        assert_eq!(stat.v().count(), c);
        assert_eq!(stat.v().total(), t as f64);
    }
}

#[test]
fn multi_selection_flatmap() {
    let ex = setup();
    load_emps(&ex, 100);
    ex.create_or_clear_set("db", "tokens").unwrap();

    // Emit one PcVec<i64> [dept, k] object per k in 0..dept_id.
    let tokens = Dataset::<Emp>::scan("db", "emps").flat_map("expandDept", |e| {
        let d = e.v().dept_id();
        let mut out = Vec::new();
        for k in 0..d {
            let v = make_object::<PcVec<i64>>()?;
            v.push(d)?;
            v.push(k)?;
            out.push(v);
        }
        Ok(out)
    });
    let q = Job::new()
        .add(tokens.write_to("db", "tokens"))
        .compile()
        .unwrap();
    ex.execute(&q).unwrap();

    let got = read_all::<PcVec<i64>>(&ex, "db", "tokens");
    let expected: usize = expected_salaries(100)
        .iter()
        .map(|(_, d)| *d as usize)
        .sum();
    assert_eq!(got.len(), expected);
    for v in &got {
        assert!(v.get(1) < v.get(0));
    }
}

fn load_nodes(ex: &PcCluster, set: &str, rows: &[(i64, i64, i64)]) {
    ex.create_or_clear_set("db", set).unwrap();
    let mut w = pc_lambda::SetWriter::new(1 << 16);
    for &(id, k1, k2) in rows {
        w.write_with(|| {
            let n = make_object::<Node>()?;
            n.v().set_id(id)?;
            n.v().set_k1(k1)?;
            n.v().set_k2(k2)?;
            Ok(n.erase())
        })
        .unwrap();
    }
    ex.send_pages("db", set, w.finish().unwrap()).unwrap();
}

/// A big input `a` joined with two small ones, `b` on `k1` and `c` on `k2`:
/// a star takes both keys from `a`, a chain takes `c`'s key from `b`.
#[test]
fn three_way_join_cascades() {
    let ex = setup();
    let a: Vec<(i64, i64, i64)> = (0..60).map(|i| (i, i % 5, i % 4)).collect();
    let b: Vec<(i64, i64, i64)> = (0..10).map(|i| (100 + i, i % 5, i % 3)).collect();
    let c: Vec<(i64, i64, i64)> = (0..6).map(|i| (200 + i, 0, i % 4)).collect();
    load_nodes(&ex, "a", &a);
    load_nodes(&ex, "b", &b);
    load_nodes(&ex, "c", &c);

    for star in [true, false] {
        ex.create_or_clear_set("db", "triples").unwrap();
        let k1 = |n: &Handle<Node>| n.v().k1();
        let k2 = |n: &Handle<Node>| n.v().k2();
        let triples = Dataset::<Node>::scan("db", "a").join3(
            &Dataset::<Node>::scan("db", "b"),
            &Dataset::<Node>::scan("db", "c"),
            move |x, y, z| {
                let second = if star {
                    x.member("k2", k2)
                } else {
                    y.member("k2", k2)
                };
                x.member("k1", k1)
                    .eq(y.member("k1", k1))
                    .and(second.eq(z.member("k2", k2)))
            },
            "mkTriple",
            |x, y, z| {
                let v = make_object::<PcVec<i64>>()?;
                v.push(x.v().id())?;
                v.push(y.v().id())?;
                v.push(z.v().id())?;
                Ok(v)
            },
        );
        let q = Job::new()
            .add(triples.write_to("db", "triples"))
            .compile()
            .unwrap();
        assert_join_sides(&q.tcap, "a", &["b", "c"]);
        let stats = ex.execute(&q).unwrap().exec;

        // Hash-map reference: b by k1, c by k2.
        let mut b_by_k1: std::collections::HashMap<i64, Vec<(i64, i64)>> = Default::default();
        for &(id, k1, k2) in &b {
            b_by_k1.entry(k1).or_default().push((id, k2));
        }
        let mut c_by_k2: std::collections::HashMap<i64, Vec<i64>> = Default::default();
        for &(id, _, k2) in &c {
            c_by_k2.entry(k2).or_default().push(id);
        }
        let mut a_join_b = 0u64;
        let mut want: Vec<(i64, i64, i64)> = Vec::new();
        for &(ai, ak1, ak2) in &a {
            for &(bi, bk2) in b_by_k1.get(&ak1).into_iter().flatten() {
                a_join_b += 1;
                let key = if star { ak2 } else { bk2 };
                for &ci in c_by_k2.get(&key).into_iter().flatten() {
                    want.push((ai, bi, ci));
                }
            }
        }
        want.sort_unstable();
        let mut got: Vec<(i64, i64, i64)> = read_all::<PcVec<i64>>(&ex, "db", "triples")
            .iter()
            .map(|v| (v.get(0), v.get(1), v.get(2)))
            .collect();
        got.sort_unstable();
        assert!(!want.is_empty());
        assert_eq!(got, want, "star: {star}");
        // `a` probes b's table, then the a ⋈ b rows probe c's.
        assert_eq!(stats.rows_probed, a.len() as u64 + a_join_b, "star: {star}");
        // `b` and `c` build one table each; every row is counted once.
        assert_eq!(
            stats.join_groups,
            (b.len() + c.len()) as u64,
            "star: {star}"
        );
    }
}

#[test]
fn tiny_pages_force_rolls_and_stay_correct() {
    let ex = one_worker(ExecConfig {
        batch_size: 16,
        page_size: 4096,
        partitions: 2,
        morsel_rows: 64,
        ..ExecConfig::default()
    });
    load_emps(&ex, 400);
    ex.create_or_clear_set("db", "all").unwrap();

    let all = Dataset::<Emp>::scan("db", "emps")
        .filter(|e| e.method("getSalary", |e| e.v().salary()).ge_const(0i64));
    let q = Job::new().add(all.write_to("db", "all")).compile().unwrap();
    let stats = ex.execute(&q).unwrap().exec;
    assert_eq!(stats.rows_out, 400);
    assert_eq!(
        stats.objects_copied, 400,
        "each stored object is copied once"
    );
    assert!(stats.pages_written > 1, "4 KiB pages must roll");
    assert!(
        stats.max_zombie_pages <= 2,
        "Appendix C zombie cap violated"
    );
    let got = read_all::<Emp>(&ex, "db", "all");
    assert_eq!(got.len(), 400);
}

#[test]
fn morsel_scheduler_reports_stats_and_matches_single_threaded() {
    // Pin the thread counts explicitly (independent of PC_THREADS): the
    // 1-thread and 4-thread runs of the same query must produce
    // byte-identical output pages, and the morsel counters must be live.
    let run = |threads: usize| -> (Vec<Vec<u8>>, pc_exec::ExecStats) {
        let ex = one_worker(ExecConfig {
            batch_size: 64,
            page_size: 1 << 16,
            partitions: 4,
            morsel_rows: 64,
            threads,
        });
        load_emps(&ex, 700);
        ex.create_or_clear_set("db", "out").unwrap();
        let big = Dataset::<Emp>::scan("db", "emps").filter(|e| {
            e.method("getSalary", |e| e.v().salary())
                .gt_const(60_000i64)
        });
        let q = Job::new().add(big.write_to("db", "out")).compile().unwrap();
        let stats = ex.execute(&q).unwrap().exec;
        let mut pages: Vec<Vec<u8>> = ex.workers[0]
            .storage
            .scan("db", "out")
            .unwrap()
            .iter()
            .map(|p| p.to_bytes())
            .collect();
        pages.sort();
        (pages, stats)
    };

    let (base, s1) = run(1);
    let (par, s4) = run(4);
    assert!(
        s1.morsels_dispatched > 0,
        "morsel queue must report dispatches: {s1:?}"
    );
    assert_eq!(s1.threads_used, 1);
    assert!(s4.morsels_dispatched > 0);
    assert!(
        s4.threads_used >= 1,
        "parallel run must report its thread count: {s4:?}"
    );
    assert_eq!(s1.rows_out, s4.rows_out);
    assert!(!base.is_empty());
    assert_eq!(
        base, par,
        "4-thread output pages must be byte-identical to the 1-thread run"
    );
}

#[test]
fn join_output_does_not_depend_on_the_partition_count() {
    // Employees build (many morsels, every department's bucket spread
    // over all of them) and departments probe, so each probe emits a long
    // run of matches whose order is the build's insertion order. Without a
    // budget nothing spills, and the output pages must be byte-identical
    // for every partition count.
    let run = |partitions: usize| -> Vec<Vec<u8>> {
        let ex = one_worker(ExecConfig {
            batch_size: 64,
            page_size: 1 << 16,
            partitions,
            morsel_rows: 64,
            ..ExecConfig::default()
        });
        load_emps(&ex, 700);
        load_depts(&ex);
        ex.create_or_clear_set("db", "placements").unwrap();
        let joined = Dataset::<Dept>::scan("db", "depts").join(
            &Dataset::<Emp>::scan("db", "emps"),
            |d, e| {
                d.member("id", |d| d.v().id())
                    .eq(e.member("deptId", |e| e.v().dept_id()))
            },
            "mkPlacement",
            |d, e| {
                let p = make_object::<Placement>()?;
                p.v().set_emp_name(e.v().name())?;
                p.v().set_dept_name(d.v().dname())?;
                p.v().set_salary(e.v().salary())?;
                Ok(p)
            },
        );
        let q = Job::new()
            .add(joined.write_to("db", "placements"))
            .compile()
            .unwrap();
        let stats = ex.execute(&q).unwrap().exec;
        assert_eq!(stats.join_matches, 700, "partitions={partitions}");
        assert_eq!(stats.join_partitions_spilled, 0);
        ex.workers[0]
            .storage
            .scan("db", "placements")
            .unwrap()
            .iter()
            .map(|p| p.to_bytes())
            .collect()
    };
    let base = run(1);
    assert!(!base.is_empty());
    for partitions in [2, 4, 8] {
        assert!(
            run(partitions) == base,
            "output pages at {partitions} partitions differ from 1 partition's"
        );
    }
}

/// Count and Σ`k1` of join-output rows per `id`.
struct NodeSum;

impl AggregateSpec for NodeSum {
    type In = Node;
    type Key = i64;
    type Val = (i64, i64);
    type Out = DeptStat;

    fn key_of(&self, rec: &Handle<Node>) -> PcResult<i64> {
        Ok(rec.v().id())
    }

    fn init(&self, _b: &BlockRef, rec: &Handle<Node>) -> PcResult<(i64, i64)> {
        Ok((1, rec.v().k1()))
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<Node>) -> PcResult<()> {
        let (c, s): (i64, i64) = b.read(slot);
        b.write(slot, (c + 1, s + rec.v().k1()));
        Ok(())
    }

    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()> {
        let (c1, s1): (i64, i64) = dst.read(dst_slot);
        let (c2, s2): (i64, i64) = src.read(src_slot);
        dst.write(dst_slot, (c1 + c2, s1 + s2));
        Ok(())
    }

    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<DeptStat>> {
        let (c, s): (i64, i64) = b.read(slot);
        let out = make_object::<DeptStat>()?;
        out.v().set_dept(*key)?;
        out.v().set_count(c)?;
        out.v().set_total(s as f64)?;
        Ok(out)
    }
}

/// A job's output: `(key, count, Σ)` rows and page bytes, both in storage
/// order.
type RowsAndPages = (Vec<(i64, i64, i64)>, Vec<Vec<u8>>);

/// Facts and groups of [`join_aggregate_run`]: 20 000 groups are enough
/// for an owner to finalize in four runs (`stages::GROUPS_PER_RUN`), so
/// it runs as many lanes as it has threads, up to four.
const FACTS: i64 = 40_000;
const KEYS: i64 = 20_000;

/// Runs `facts ⋈ dims` on `k1` → [`NodeSum`] → `write_to` on one worker.
fn join_aggregate_run(partitions: usize, threads: usize) -> RowsAndPages {
    let ex = one_worker(ExecConfig {
        batch_size: 256,
        page_size: 1 << 16,
        partitions,
        morsel_rows: 4096,
        threads,
    });
    let facts: Vec<(i64, i64, i64)> = (0..FACTS).map(|i| (i, i * 13 % KEYS, i % 100)).collect();
    let dims: Vec<(i64, i64, i64)> = (0..KEYS).map(|k| (k, k, k % 37)).collect();
    load_nodes(&ex, "facts", &facts);
    load_nodes(&ex, "dims", &dims);
    ex.create_or_clear_set("db", "sums").unwrap();
    let k1 = |n: &Handle<Node>| n.v().k1();
    let joined = Dataset::<Node>::scan("db", "facts").join(
        &Dataset::<Node>::scan("db", "dims"),
        move |f, d| f.member("k1", k1).eq(d.member("k1", k1)),
        "mkKeyed",
        |f, d| {
            let n = make_object::<Node>()?;
            n.v().set_id(f.v().k1())?;
            n.v().set_k1(f.v().k2() + d.v().k2())?;
            Ok(n)
        },
    );
    let q = Job::new()
        .add(joined.aggregate(NodeSum).write_to("db", "sums"))
        .compile()
        .unwrap();
    let stats = ex.execute(&q).unwrap().exec;
    assert_eq!(stats.agg_groups, KEYS as u64);
    let rows = read_all::<DeptStat>(&ex, "db", "sums")
        .iter()
        .map(|s| (s.v().dept(), s.v().count(), s.v().total() as i64))
        .collect();
    let pages = ex.workers[0]
        .storage
        .scan("db", "sums")
        .unwrap()
        .iter()
        .map(|p| p.to_bytes())
        .collect();
    (rows, pages)
}

#[test]
fn aggregation_rows_come_out_in_stored_hash_order_at_every_partition_and_thread_count() {
    // The reference: one map over every group, emitted in stored-hash
    // order (an i64 key's slot hash is `mix64` of its bits; a map stores
    // it without bit 63, its occupied flag).
    let mut groups: std::collections::HashMap<i64, (i64, i64)> = Default::default();
    for i in 0..FACTS {
        let key = i * 13 % KEYS;
        let g = groups.entry(key).or_default();
        g.0 += 1;
        g.1 += i % 100 + key % 37;
    }
    let mut want: Vec<(i64, i64, i64)> = groups.into_iter().map(|(k, (c, s))| (k, c, s)).collect();
    want.sort_unstable_by_key(|&(k, _, _)| (pc_object::hash::mix64(k as u64) << 1, k));
    for partitions in [1, 2, 4, 8] {
        for threads in [1, 4] {
            let (rows, _) = join_aggregate_run(partitions, threads);
            assert!(
                rows == want,
                "row sequence at {partitions} partitions x {threads} threads"
            );
        }
    }
}

#[test]
fn aggregation_pages_do_not_depend_on_the_thread_count() {
    let (_, base) = join_aggregate_run(4, 1);
    assert!(
        base.len() >= 4,
        "a page breaks at every run (here, every partition)"
    );
    for threads in [2, 4] {
        let (_, pages) = join_aggregate_run(4, threads);
        assert!(
            pages == base,
            "pages at {threads} threads differ from 1 thread's"
        );
    }
}
