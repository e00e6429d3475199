//! End-to-end tests: lambda calculus → TCAP → optimizer → physical plan →
//! vectorized execution, verified against straight-line Rust computations.

use pc_core::{ClusterConfig, Dataset, Job, PcCluster};
use pc_exec::ExecConfig;
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
        agg_partitions: 3,
        join_partitions: 4,
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

    ex.execute(&q).unwrap();
    let got = read_all::<Placement>(&ex, "db", "placements");
    let expected: Vec<(i64, i64)> = expected_salaries(300)
        .into_iter()
        .filter(|(s, _)| *s > 60_000)
        .collect();
    assert_eq!(
        got.len(),
        expected.len(),
        "one match per qualifying employee"
    );
    for p in &got {
        assert!(p.v().salary() > 60_000);
        // dept name must correspond to the employee's department
        let dn = p.v().dept_name();
        assert!(dn.as_str().starts_with("dept"), "{}", dn.as_str());
    }
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

#[test]
fn three_way_join_cascades() {
    let ex = setup();
    // Three tiny sets keyed to each other.
    for (set, n) in [("a", 10usize), ("b", 10), ("c", 10)] {
        ex.create_or_clear_set("db", set).unwrap();
        let mut w = pc_lambda::SetWriter::new(1 << 16);
        for i in 0..n {
            w.write_with(|| {
                let e = make_object::<Emp>()?;
                e.v().set_salary(i as i64 * 10)?;
                e.v().set_dept_id((i % 5) as i64)?;
                e.v().set_name(PcString::make(&format!("{set}{i}"))?)?;
                Ok(e.erase())
            })
            .unwrap();
        }
        ex.send_pages("db", set, w.finish().unwrap()).unwrap();
    }
    ex.create_or_clear_set("db", "triples").unwrap();

    let key = |e: &Handle<Emp>| e.v().dept_id();
    let triples = Dataset::<Emp>::scan("db", "a").join3(
        &Dataset::<Emp>::scan("db", "b"),
        &Dataset::<Emp>::scan("db", "c"),
        |a, b, c| {
            a.member("deptId", key)
                .eq(b.member("deptId", key))
                .and(b.member("deptId", key).eq(c.member("deptId", key)))
        },
        "mkTriple",
        |x, y, z| {
            let v = make_object::<PcVec<i64>>()?;
            v.push(x.v().dept_id())?;
            v.push(y.v().dept_id())?;
            v.push(z.v().dept_id())?;
            Ok(v)
        },
    );
    let q = Job::new()
        .add(triples.write_to("db", "triples"))
        .compile()
        .unwrap();
    ex.execute(&q).unwrap();

    let got = read_all::<PcVec<i64>>(&ex, "db", "triples");
    // Each dept 0..5 has 2 members in each set: 5 * 2^3 = 40 triples.
    assert_eq!(got.len(), 40);
    for v in &got {
        assert_eq!(v.get(0), v.get(1));
        assert_eq!(v.get(1), v.get(2));
    }
}

#[test]
fn tiny_pages_force_rolls_and_stay_correct() {
    let ex = one_worker(ExecConfig {
        batch_size: 16,
        page_size: 4096,
        agg_partitions: 2,
        join_partitions: 2,
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
            agg_partitions: 3,
            join_partitions: 4,
            morsel_rows: 64,
            threads,
            ..ExecConfig::default()
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
