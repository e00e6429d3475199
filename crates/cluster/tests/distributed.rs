//! Distributed execution tests: the same queries the local engine runs,
//! now across multiple workers with page shuffles over the byte-copy
//! network.

use pc_cluster::testkit::{assert_runs_identical, set_bytes_sorted};
use pc_cluster::{ClusterConfig, PcCluster};
use pc_core::{Dataset, Job};
use pc_exec::ExecConfig;
use pc_lambda::{AggregateSpec, SetWriter};
use pc_object::{make_object, pc_object, AnyObj, BlockRef, Handle, PcResult, PcString, PcVec};

pc_object! {
    pub struct Emp / EmpView {
        (salary, set_salary): i64,
        (dept_id, set_dept_id): i64,
        (name, set_name): Handle<PcString>,
    }
}

pc_object! {
    pub struct Dept / DeptView {
        (id, set_id): i64,
        (dname, set_dname): Handle<PcString>,
    }
}

pc_object! {
    pub struct DeptStat / DeptStatView {
        (dept, set_dept): i64,
        (count, set_count): i64,
        (total, set_total): i64,
    }
}

fn cluster() -> PcCluster {
    PcCluster::new(ClusterConfig {
        workers: 3,
        exec: ExecConfig {
            batch_size: 32,
            page_size: 1 << 15,
            agg_partitions: 5,
            join_partitions: 8,
            morsel_rows: 64,
            ..ExecConfig::default()
        },
        ..ClusterConfig::default()
    })
    .unwrap()
}

fn load_emps(c: &PcCluster, n: usize) {
    c.create_or_clear_set("db", "emps").unwrap();
    let mut w = SetWriter::new(1 << 14); // small pages → several per worker
    for i in 0..n {
        w.write_with(|| {
            let e = make_object::<Emp>()?;
            e.v().set_salary(30_000 + (i as i64 * 977) % 90_000)?;
            e.v().set_dept_id((i % 7) as i64)?;
            e.v().set_name(PcString::make(&format!("emp{i}"))?)?;
            Ok(e.erase())
        })
        .unwrap();
    }
    c.send_pages("db", "emps", w.finish().unwrap()).unwrap();
}

fn salaries(n: usize) -> Vec<(i64, i64)> {
    (0..n)
        .map(|i| (30_000 + (i as i64 * 977) % 90_000, (i % 7) as i64))
        .collect()
}

fn read_objs<T: pc_object::PcObjType>(c: &PcCluster, db: &str, set: &str) -> Vec<Handle<T>> {
    // Checked downcasts: a mistyped read is an error, not a garbage handle.
    c.scan_objects(db, set)
        .unwrap()
        .iter()
        .map(|h| h.downcast::<T>().unwrap())
        .collect()
}

/// A 0-worker cluster used to boot and then divide by zero in `send_pages`
/// (`% workers.len()`) and the aggregation shuffle (`% nworkers`).
#[test]
fn zero_workers_is_rejected_at_boot() {
    let booted = PcCluster::new(ClusterConfig {
        workers: 0,
        ..ClusterConfig::default()
    });
    match booted {
        Err(pc_object::PcError::Catalog(msg)) => assert!(msg.contains("at least one worker")),
        Err(e) => panic!("wrong error for 0 workers: {e}"),
        Ok(_) => panic!("a 0-worker cluster must not boot"),
    }
}

#[test]
fn pages_distribute_across_workers() {
    let c = cluster();
    load_emps(&c, 600);
    let with_pages = c
        .workers
        .iter()
        .filter(|w| w.storage.page_count("db", "emps") > 0)
        .count();
    assert_eq!(with_pages, 3, "round-robin must reach every worker");
    assert_eq!(c.set_size("db", "emps"), 600);
}

#[test]
fn distributed_selection() {
    let c = cluster();
    load_emps(&c, 600);
    c.create_or_clear_set("db", "rich").unwrap();

    let rich = Dataset::<Emp>::scan("db", "emps").filter(|e| {
        e.method("getSalary", |e| e.v().salary())
            .gt_const(70_000i64)
    });
    let q = Job::new()
        .add(rich.write_to("db", "rich"))
        .compile()
        .unwrap();
    c.execute(&q).unwrap();

    let got = read_objs::<Emp>(&c, "db", "rich");
    let want = salaries(600)
        .into_iter()
        .filter(|(s, _)| *s > 70_000)
        .count();
    assert_eq!(got.len(), want);
    // Results remain distributed: no single worker should hold everything.
    let holders = c
        .workers
        .iter()
        .filter(|w| w.storage.page_count("db", "rich") > 0)
        .count();
    assert!(holders >= 2, "output pages should stay on their workers");
}

struct SumAgg;

impl AggregateSpec for SumAgg {
    type In = Emp;
    type Key = i64;
    type Val = (i64, i64);
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
        out.v().set_total(t)?;
        Ok(out)
    }
}

#[test]
fn distributed_aggregation_shuffles_map_pages() {
    let c = cluster();
    load_emps(&c, 1000);
    c.create_or_clear_set("db", "stats").unwrap();

    let stats_ds = Dataset::<Emp>::scan("db", "emps").aggregate(SumAgg);
    let q = Job::new()
        .add(stats_ds.write_to("db", "stats"))
        .compile()
        .unwrap();
    let run = c.execute(&q).unwrap();
    assert!(
        run.bytes_shuffled > 0,
        "aggregation must shuffle partition pages"
    );
    assert_eq!(run.exec.agg_groups, 7);

    let got = read_objs::<DeptStat>(&c, "db", "stats");
    assert_eq!(got.len(), 7);
    let mut expect: std::collections::HashMap<i64, (i64, i64)> = Default::default();
    for (s, d) in salaries(1000) {
        let e = expect.entry(d).or_insert((0, 0));
        e.0 += 1;
        e.1 += s;
    }
    for stat in got {
        let (cnt, tot) = expect[&stat.v().dept()];
        assert_eq!(stat.v().count(), cnt, "dept {}", stat.v().dept());
        assert_eq!(stat.v().total(), tot);
    }
}

#[test]
fn distributed_aggregation_is_deterministic_byte_for_byte() {
    // Regression guard for the vectorized two-phase path: the same
    // aggregation over the same data must produce byte-identical result
    // pages on every run — partition radix, grouped bulk upserts, combining
    // threads, and page-at-a-time merges are all deterministic.
    let run = || -> Vec<Vec<u8>> {
        let c = cluster();
        load_emps(&c, 800);
        c.create_or_clear_set("db", "stats").unwrap();
        let stats_ds = Dataset::<Emp>::scan("db", "emps").aggregate(SumAgg);
        let q = Job::new()
            .add(stats_ds.write_to("db", "stats"))
            .compile()
            .unwrap();
        c.execute(&q).unwrap();
        set_bytes_sorted(&c, "db", "stats").unwrap()
    };
    let first = run();
    let second = run();
    assert_runs_identical("two-phase aggregation, repeated run", &first, &second);
}

#[test]
fn distributed_broadcast_join() {
    let c = cluster();
    load_emps(&c, 400);
    c.create_or_clear_set("db", "depts").unwrap();
    let mut w = SetWriter::new(1 << 14);
    for d in 0..7i64 {
        w.write_with(|| {
            let dept = make_object::<Dept>()?;
            dept.v().set_id(d)?;
            dept.v().set_dname(PcString::make(&format!("dept{d}"))?)?;
            Ok(dept.erase())
        })
        .unwrap();
    }
    c.send_pages("db", "depts", w.finish().unwrap()).unwrap();
    c.create_or_clear_set("db", "pairs").unwrap();

    // emps is the first dataset, so it streams and probes; depts (small)
    // is the build side.
    let joined = Dataset::<Emp>::scan("db", "emps").join(
        &Dataset::<Dept>::scan("db", "depts"),
        |e, d| {
            e.member("deptId", |e| e.v().dept_id())
                .eq(d.member("id", |d| d.v().id()))
        },
        "pair",
        |e, d| {
            let v = make_object::<PcVec<i64>>()?;
            v.push(d.v().id())?;
            v.push(e.v().dept_id())?;
            v.push(e.v().salary())?;
            Ok(v)
        },
    );
    let q = Job::new()
        .add(joined.write_to("db", "pairs"))
        .compile()
        .unwrap();
    let run = c.execute(&q).unwrap();
    assert!(
        run.tables_broadcast >= 1,
        "join must broadcast its build side"
    );

    let got = read_objs::<PcVec<i64>>(&c, "db", "pairs");
    assert_eq!(
        got.len(),
        400,
        "every employee matches exactly one department"
    );
    let mut total = 0i64;
    for v in &got {
        assert_eq!(v.get(0), v.get(1));
        total += v.get(2);
    }
    assert_eq!(total, salaries(400).iter().map(|(s, _)| *s).sum::<i64>());
}

#[test]
fn worker_type_catalogs_fault_like_so_shipping() {
    let c = cluster();
    load_emps(&c, 100);
    c.create_or_clear_set("db", "out").unwrap();

    let all = Dataset::<Emp>::scan("db", "emps")
        .filter(|e| e.method("getSalary", |e| e.v().salary()).ge_const(0i64));
    let q = Job::new().add(all.write_to("db", "out")).compile().unwrap();
    c.execute(&q).unwrap();
    // Every worker that processed pages resolved the root type exactly once.
    for w in &c.workers {
        assert!(
            w.types.fetches() <= 2,
            "type fetched repeatedly on worker {}",
            w.id
        );
    }
    let _ = <AnyObj as pc_object::PcObjType>::type_code();
}

#[test]
fn queries_survive_cold_storage() {
    // Evict everything to the file store, then query: pages must fault back
    // from disk byte-identically (the Table 3 "hot vs cold" axis).
    let c = cluster();
    load_emps(&c, 300);
    for w in &c.workers {
        w.storage.flush_all().unwrap();
    }
    let misses_before: u64 = c
        .workers
        .iter()
        .map(|w| w.storage.pool().stats().misses)
        .sum();
    c.create_or_clear_set("db", "cold_out").unwrap();

    let out = Dataset::<Emp>::scan("db", "emps").filter(|e| {
        e.method("getSalary", |e| e.v().salary())
            .gt_const(50_000i64)
    });
    let q = Job::new()
        .add(out.write_to("db", "cold_out"))
        .compile()
        .unwrap();
    c.execute(&q).unwrap();

    let got = read_objs::<Emp>(&c, "db", "cold_out");
    let want = salaries(300)
        .into_iter()
        .filter(|(s, _)| *s > 50_000)
        .count();
    assert_eq!(got.len(), want);
    let misses_after: u64 = c
        .workers
        .iter()
        .map(|w| w.storage.pool().stats().misses)
        .sum();
    assert!(
        misses_after > misses_before,
        "cold scan must fault pages from files"
    );
}
