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

#[test]
fn two_sinks_naming_one_set_are_rejected() {
    let client = PcClient::local_small().unwrap();
    load_sales(&client, 15);
    let sales = client.set::<Sale>("shop", "sales");
    let lo = sales.filter(|s| s.member("amount", |s| s.v().amount()).lt_const(500i64));
    let hi = sales.filter(|s| s.member("amount", |s| s.v().amount()).ge_const(500i64));

    // Two sinks writing one set would silently merge their rows.
    let err = Job::new()
        .add(lo.write_to("shop", "out"))
        .add(hi.write_to("shop", "out"))
        .run(&client)
        .unwrap_err();
    assert!(
        matches!(err, PcError::Catalog(_)),
        "want Catalog, got {err:?}"
    );
    let err = Job::new()
        .add(lo.write_to("shop", "out"))
        .add(lo.write_to("shop", "out"))
        .compile()
        .err()
        .expect("the same sink added twice is rejected too");
    assert!(
        matches!(err, PcError::Catalog(_)),
        "want Catalog, got {err:?}"
    );
}

/// The TCAP text of a two-sink job whose sinks share an upstream `filter`
/// and `flat_map`, feeding a three-way join over an aggregation. Pins node
/// numbering, list names and statement order of the compiler's output, and
/// each `JOIN`'s sides: the later input is `lhs` and builds, the running
/// composite that starts at the aggregation is `rhs` and probes.
const GOLDEN_TCAP: &str = "\
In_0(in0) <= INPUT('shop', 'sales', 'Reader_0', []);\n\
W_1(in0,mt1) <= APPLY(In_0(in0), In_0(in0), 'Sel_1', 'att_acc_1', [('type', 'attAccess'), ('attName', 'amount')]);\n\
W_2(in0,mt1,bl2) <= APPLY(W_1(mt1), W_1(in0,mt1), 'Sel_1', '>=c_2', [('type', 'const_comparison'), ('op', '>='), ('value', '500')]);\n\
Flt_3(in0) <= FILTER(W_2(bl2), W_2(in0), 'Sel_1', []);\n\
FM_4(out2) <= FLATMAP(Flt_3(in0), Flt_3(), 'MSel_2', 'flat_1', [('type', 'multiSelect'), ('label', 'explode')]);\n\
Out_3() <= OUTPUT(FM_4(out2), 'shop', 'tagged', 'Writer_3', []);\n\
Ag_4(out4) <= AGGREGATE(Flt_3(in0), Flt_3(in0), 'Agg_4', [('outType', 'RegionStat')]);\n\
In_5(in5) <= INPUT('shop', 'names', 'Reader_5', []);\n\
W_5(out4,mt1) <= APPLY(Ag_4(out4), Ag_4(out4), 'Join_6', 'att_acc_1', [('type', 'attAccess'), ('attName', 'region')]);\n\
H_6(out4,mt1,hash2) <= HASH(W_5(mt1), W_5(out4,mt1), 'Join_6', [('type', 'hashOne')]);\n\
W_7(in5,mt3) <= APPLY(In_5(in5), In_5(in5), 'Join_6', 'att_acc_3', [('type', 'attAccess'), ('attName', 'id')]);\n\
H_8(in5,mt3,hash4) <= HASH(W_7(mt3), W_7(in5,mt3), 'Join_6', [('type', 'hashOne')]);\n\
J_9(out4,in5) <= JOIN(H_8(hash4), H_8(in5), H_6(hash2), H_6(out4), 'Join_6', []);\n\
W_10(out4,in5,mt5) <= APPLY(J_9(in5), J_9(out4,in5), 'Join_6', 'att_acc_5', [('type', 'attAccess'), ('attName', 'id')]);\n\
H_11(out4,in5,mt5,hash6) <= HASH(W_10(mt5), W_10(out4,in5,mt5), 'Join_6', [('type', 'hashOne')]);\n\
W_12(out2,mt7) <= APPLY(FM_4(out2), FM_4(out2), 'Join_6', 'att_acc_7', [('type', 'attAccess'), ('attName', 'region')]);\n\
H_13(out2,mt7,hash8) <= HASH(W_12(mt7), W_12(out2,mt7), 'Join_6', [('type', 'hashOne')]);\n\
J_14(out4,in5,out2) <= JOIN(H_13(hash8), H_13(out2), H_11(hash6), H_11(out4,in5), 'Join_6', []);\n\
W_15(out4,in5,out2,mt9) <= APPLY(J_14(out4), J_14(out4,in5,out2), 'Join_6', 'att_acc_9', [('type', 'attAccess'), ('attName', 'region')]);\n\
W_16(out4,in5,out2,mt9,mt10) <= APPLY(W_15(in5), W_15(out4,in5,out2,mt9), 'Join_6', 'att_acc_10', [('type', 'attAccess'), ('attName', 'id')]);\n\
W_17(out4,in5,out2,mt9,mt10,bl11) <= APPLY(W_16(mt9,mt10), W_16(out4,in5,out2,mt9,mt10), 'Join_6', '==_11', [('type', 'equalityCheck'), ('op', '==')]);\n\
W_18(out4,in5,out2,mt9,mt10,bl11,mt12) <= APPLY(W_17(in5), W_17(out4,in5,out2,mt9,mt10,bl11), 'Join_6', 'att_acc_12', [('type', 'attAccess'), ('attName', 'id')]);\n\
W_19(out4,in5,out2,mt9,mt10,bl11,mt12,mt13) <= APPLY(W_18(out2), W_18(out4,in5,out2,mt9,mt10,bl11,mt12), 'Join_6', 'att_acc_13', [('type', 'attAccess'), ('attName', 'region')]);\n\
W_20(out4,in5,out2,mt9,mt10,bl11,mt12,mt13,bl14) <= APPLY(W_19(mt12,mt13), W_19(out4,in5,out2,mt9,mt10,bl11,mt12,mt13), 'Join_6', '==_14', [('type', 'equalityCheck'), ('op', '==')]);\n\
W_21(out4,in5,out2,mt9,mt10,bl11,mt12,mt13,bl14,bl15) <= APPLY(W_20(bl11,bl14), W_20(out4,in5,out2,mt9,mt10,bl11,mt12,mt13,bl14), 'Join_6', '&&_15', [('type', 'bool_and'), ('op', '&&')]);\n\
Flt_22(out4,in5,out2) <= FILTER(W_21(bl15), W_21(out4,in5,out2), 'Join_6', []);\n\
W_23(out4,in5,out2,mt16) <= APPLY(Flt_22(out4,in5,out2), Flt_22(out4,in5,out2), 'Join_6', 'native_16', [('type', 'native'), ('label', 'mkRow')]);\n\
Out_7() <= OUTPUT(W_23(mt16), 'shop', 'rows', 'Writer_7', []);\n\
";

#[test]
fn compiled_tcap_is_pinned() {
    let big = Dataset::<Sale>::scan("shop", "sales")
        .filter(|s| s.member("amount", |s| s.v().amount()).ge_const(500i64));
    let tagged = big.flat_map("explode", |s| {
        let t = make_object::<Tagged>()?;
        t.v().set_region(s.v().region())?;
        t.v().set_bucket(s.v().amount() / 250)?;
        Ok(vec![t])
    });
    let rows = big.aggregate(StatAgg).join3(
        &Dataset::<RegionName>::scan("shop", "names"),
        &tagged,
        |s, n, t| {
            s.member("region", |s| s.v().region())
                .eq(n.member("id", |n| n.v().id()))
                .and(
                    n.member("id", |n| n.v().id())
                        .eq(t.member("region", |t| t.v().region())),
                )
        },
        "mkRow",
        |s, n, t| {
            let v = make_object::<PcVec<i64>>()?;
            v.push(n.v().id())?;
            v.push(s.v().total())?;
            v.push(t.v().bucket())?;
            Ok(v)
        },
    );
    let q = Job::new()
        .add(tagged.write_to("shop", "tagged"))
        .add(rows.write_to("shop", "rows"))
        .compile()
        .unwrap();
    assert_eq!(q.tcap.to_string(), GOLDEN_TCAP);
}
