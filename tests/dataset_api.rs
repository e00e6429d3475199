//! Integration tests for the typed `Dataset<T>` / `Job` query API:
//! fluent chains over every computation family, multi-sink jobs with
//! shared-upstream deduplication (asserted via `ExecStats`), and the
//! checked-downcast guarantees of `collect` / `iterate_set`.

use plinycompute::prelude::*;

pc_object! {
    pub struct Sale / SaleView {
        (region, set_region): i64,
        (amount, set_amount): i64,
    }
}

pc_object! {
    pub struct Tagged / TaggedView {
        (region, set_region): i64,
        (bucket, set_bucket): i64,
    }
}

pc_object! {
    pub struct RegionStat / RegionStatView {
        (region, set_region): i64,
        (count, set_count): i64,
        (total, set_total): i64,
    }
}

pc_object! {
    pub struct RegionName / RegionNameView {
        (id, set_id): i64,
        (name, set_name): Handle<PcString>,
    }
}

fn load_sales(client: &PcClient, n: usize) {
    client.create_or_clear_set("shop", "sales").unwrap();
    client
        .store("shop", "sales", n, |i| {
            let s = make_object::<Sale>()?;
            s.v().set_region((i % 7) as i64)?;
            s.v().set_amount((i as i64 * 37) % 1000)?;
            Ok(s.erase())
        })
        .unwrap();
}

struct StatAgg;

impl AggregateSpec for StatAgg {
    type In = Sale;
    type Key = i64;
    type Val = (i64, i64);
    type Out = RegionStat;

    fn key_of(&self, rec: &Handle<Sale>) -> PcResult<i64> {
        Ok(rec.v().region())
    }
    fn init(&self, _b: &BlockRef, rec: &Handle<Sale>) -> PcResult<(i64, i64)> {
        Ok((1, rec.v().amount()))
    }
    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<Sale>) -> PcResult<()> {
        let (c, t): (i64, i64) = b.read(slot);
        b.write(slot, (c + 1, t + rec.v().amount()));
        Ok(())
    }
    fn merge(&self, dst: &BlockRef, ds: u32, src: &BlockRef, ss: u32) -> PcResult<()> {
        let (c1, t1): (i64, i64) = dst.read(ds);
        let (c2, t2): (i64, i64) = src.read(ss);
        dst.write(ds, (c1 + c2, t1 + t2));
        Ok(())
    }
    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<RegionStat>> {
        let (c, t): (i64, i64) = b.read(slot);
        let out = make_object::<RegionStat>()?;
        out.v().set_region(*key)?;
        out.v().set_count(c)?;
        out.v().set_total(t)?;
        Ok(out)
    }
}

#[test]
fn filter_select_flatmap_chain() {
    let client = PcClient::local_small().unwrap();
    let n = 2000usize;
    load_sales(&client, n);

    // filter → select retypes each record → flat_map fans out per bucket.
    let tagged = client
        .set::<Sale>("shop", "sales")
        .filter(|s| s.member("amount", |s| s.v().amount()).ge_const(500i64))
        .select("tag", |s| {
            let t = make_object::<Tagged>()?;
            t.v().set_region(s.v().region())?;
            t.v().set_bucket(s.v().amount() / 250)?;
            Ok(t)
        })
        .flat_map("explode", |t| {
            let mut out = Vec::new();
            for b in 0..t.v().bucket() {
                let x = make_object::<Tagged>()?;
                x.v().set_region(t.v().region())?;
                x.v().set_bucket(b)?;
                out.push(x);
            }
            Ok(out)
        })
        .collect()
        .unwrap();

    let mut want = 0usize;
    for i in 0..n {
        let amount = (i as i64 * 37) % 1000;
        if amount >= 500 {
            want += (amount / 250) as usize;
        }
    }
    assert_eq!(tagged.len(), want);
    assert!(tagged.iter().all(|t| t.v().bucket() < 4));
}

#[test]
fn join_aggregate_chain() {
    let client = PcClient::local_small().unwrap();
    let n = 1500usize;
    load_sales(&client, n);
    client.create_or_clear_set("shop", "names").unwrap();
    client
        .store("shop", "names", 7, |i| {
            let r = make_object::<RegionName>()?;
            r.v().set_id(i as i64)?;
            r.v().set_name(PcString::make(&format!("region-{i}"))?)?;
            Ok(r.erase())
        })
        .unwrap();

    let stats = client
        .set::<Sale>("shop", "sales")
        .aggregate(StatAgg)
        .write_to("shop", "stats")
        .run(&client)
        .unwrap();
    assert_eq!(stats.exec.agg_groups, 7);

    // Join the aggregated stats against the name table.
    let rows = client
        .set::<RegionName>("shop", "names")
        .join(
            &client.set::<RegionStat>("shop", "stats"),
            |r, s| {
                r.member("id", |r| r.v().id())
                    .eq(s.member("region", |s| s.v().region()))
            },
            "mkRow",
            |r, s| {
                let v = make_object::<PcVec<i64>>()?;
                v.push(r.v().id())?;
                v.push(s.v().count())?;
                v.push(s.v().total())?;
                Ok(v)
            },
        )
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 7);

    let mut expect: std::collections::HashMap<i64, (i64, i64)> = Default::default();
    for i in 0..n {
        let e = expect.entry((i % 7) as i64).or_insert((0, 0));
        e.0 += 1;
        e.1 += (i as i64 * 37) % 1000;
    }
    for row in rows {
        let (region, count, total) = (row.get(0), row.get(1), row.get(2));
        assert_eq!(expect[&region], (count, total), "region {region}");
    }
}

#[test]
fn multi_sink_job_runs_shared_upstream_once() {
    let client = PcClient::connect(ClusterConfig {
        workers: 2,
        exec: ExecConfig {
            batch_size: 128,
            page_size: 1 << 16,
            agg_partitions: 2,
            join_partitions: 4,
            morsel_rows: 512,
            ..ExecConfig::default()
        },
        ..ClusterConfig::default()
    })
    .unwrap();
    let n = 3000usize;
    load_sales(&client, n);
    let m = (0..n).filter(|i| (*i as i64 * 37) % 1000 >= 500).count();

    // One shared filter feeding two sinks: the filter must execute once
    // (materialized), then each writer reads the materialized rows.
    let big = client
        .set::<Sale>("shop", "sales")
        .filter(|s| s.member("amount", |s| s.v().amount()).ge_const(500i64));
    let stats = Job::new()
        .add(big.write_to("shop", "big_a"))
        .add(big.write_to("shop", "big_b"))
        .run(&client)
        .unwrap();

    // Three pipelines: scan+filter→materialize, then one copy per sink. A
    // non-deduplicated lowering would run the n-row scan twice.
    assert_eq!(stats.exec.pipelines_run, 3, "shared stage must run once");
    assert_eq!(
        stats.exec.rows_in,
        (n + 2 * m) as u64,
        "the n-row source scan must happen exactly once"
    );
    let a = client.set::<Sale>("shop", "big_a").collect().unwrap();
    let b = client.set::<Sale>("shop", "big_b").collect().unwrap();
    assert_eq!(a.len(), m);
    assert_eq!(b.len(), m);

    // Back-to-back runs stay correct: intermediate tmp lists are cleared
    // per execution, never accumulated.
    let stats2 = Job::new()
        .add(big.write_to("shop", "big_a"))
        .add(big.write_to("shop", "big_b"))
        .run(&client)
        .unwrap();
    assert_eq!(stats2.exec.rows_in, (n + 2 * m) as u64);
    assert_eq!(
        client.set::<Sale>("shop", "big_a").collect().unwrap().len(),
        m
    );
}

#[test]
fn collecting_a_set_as_the_wrong_type_is_an_error() {
    let client = PcClient::local_small().unwrap();
    load_sales(&client, 50);

    // The set stores Sale objects; asking for RegionName must fail with a
    // type mismatch, not hand back garbage handles.
    let err = client
        .set::<RegionName>("shop", "sales")
        .collect()
        .unwrap_err();
    assert!(
        matches!(err, PcError::TypeMismatch { .. }),
        "want TypeMismatch, got {err:?}"
    );
    let err = client
        .iterate_set::<RegionName>("shop", "sales")
        .unwrap_err();
    assert!(matches!(err, PcError::TypeMismatch { .. }));

    // A derived chain collects through the same checked path.
    let ok = client
        .set::<Sale>("shop", "sales")
        .filter(|s| s.member("amount", |s| s.v().amount()).ge_const(0i64))
        .collect()
        .unwrap();
    assert_eq!(ok.len(), 50);
}

#[test]
fn drop_set_clears_the_catalog() {
    let client = PcClient::local_small().unwrap();
    load_sales(&client, 120);
    assert_eq!(client.set_size("shop", "sales"), 120);

    client.drop_set("shop", "sales").unwrap();
    assert_eq!(
        client.set_size("shop", "sales"),
        0,
        "set_size must not report stale counts after a drop"
    );
    assert!(!client.cluster().catalog.exists("shop", "sales"));
    // Dropping a nonexistent set is an error, not a silent no-op.
    assert!(client.drop_set("shop", "sales").is_err());
    // The name is free again.
    client.create_set("shop", "sales").unwrap();
}
