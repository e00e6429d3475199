//! Cross-crate integration: a query mixing every computation family on the
//! distributed engine, validated against a straight-line computation.

use plinycompute::prelude::*;

pc_object! {
    pub struct Sale / SaleView {
        (region, set_region): i64,
        (amount, set_amount): i64,
    }
}

pc_object! {
    pub struct Region / RegionView {
        (id, set_id): i64,
        (name, set_name): Handle<PcString>,
    }
}

pc_object! {
    pub struct RegionTotal / RegionTotalView {
        (region, set_region): i64,
        (total, set_total): i64,
        (sales, set_sales): i64,
    }
}

struct TotalAgg;

impl AggregateSpec for TotalAgg {
    type In = Sale;
    type Key = i64;
    type Val = (i64, i64);
    type Out = RegionTotal;

    fn key_of(&self, rec: &Handle<Sale>) -> PcResult<i64> {
        Ok(rec.v().region())
    }
    fn init(&self, _b: &BlockRef, rec: &Handle<Sale>) -> PcResult<(i64, i64)> {
        Ok((rec.v().amount(), 1))
    }
    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<Sale>) -> PcResult<()> {
        let (t, n): (i64, i64) = b.read(slot);
        b.write(slot, (t + rec.v().amount(), n + 1));
        Ok(())
    }
    fn merge(&self, dst: &BlockRef, ds: u32, src: &BlockRef, ss: u32) -> PcResult<()> {
        let (t1, n1): (i64, i64) = dst.read(ds);
        let (t2, n2): (i64, i64) = src.read(ss);
        dst.write(ds, (t1 + t2, n1 + n2));
        Ok(())
    }
    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<RegionTotal>> {
        let (t, n): (i64, i64) = b.read(slot);
        let out = make_object::<RegionTotal>()?;
        out.v().set_region(*key)?;
        out.v().set_total(t)?;
        out.v().set_sales(n)?;
        Ok(out)
    }
}

#[test]
fn selection_then_aggregation_then_join_across_cluster() {
    let client = PcClient::connect(ClusterConfig {
        workers: 3,
        exec: ExecConfig {
            batch_size: 64,
            page_size: 1 << 16,
            partitions: 4,
            morsel_rows: 256,
            ..ExecConfig::default()
        },
        ..ClusterConfig::default()
    })
    .unwrap();

    // Load sales and regions.
    client.create_or_clear_set("shop", "sales").unwrap();
    let n = 5000usize;
    client
        .store("shop", "sales", n, |i| {
            let s = make_object::<Sale>()?;
            s.v().set_region((i % 11) as i64)?;
            s.v().set_amount((i as i64 * 37) % 1000)?;
            Ok(s.erase())
        })
        .unwrap();
    client.create_or_clear_set("shop", "regions").unwrap();
    client
        .store("shop", "regions", 11, |i| {
            let r = make_object::<Region>()?;
            r.v().set_id(i as i64)?;
            r.v().set_name(PcString::make(&format!("region-{i}"))?)?;
            Ok(r.erase())
        })
        .unwrap();

    // Stage 1: select big sales, aggregate totals per region.
    client
        .set::<Sale>("shop", "sales")
        .filter(|s| s.method("getAmount", |s| s.v().amount()).ge_const(500i64))
        .aggregate(TotalAgg)
        .write_to("shop", "totals")
        .run(&client)
        .unwrap();

    // Stage 2: join totals with region names.
    client
        .set::<Region>("shop", "regions")
        .join(
            &client.set::<RegionTotal>("shop", "totals"),
            |r, t| {
                r.member("id", |r| r.v().id())
                    .eq(t.member("region", |t| t.v().region()))
            },
            "mkReport",
            |r, t| {
                let v = make_object::<PcVec<i64>>()?;
                v.push(r.v().id())?;
                v.push(t.v().total())?;
                v.push(t.v().sales())?;
                Ok(v)
            },
        )
        .write_to("shop", "report")
        .run(&client)
        .unwrap();

    // Validate against straight-line Rust.
    let mut expect: std::collections::HashMap<i64, (i64, i64)> = Default::default();
    for i in 0..n {
        let (region, amount) = ((i % 11) as i64, (i as i64 * 37) % 1000);
        if amount >= 500 {
            let e = expect.entry(region).or_insert((0, 0));
            e.0 += amount;
            e.1 += 1;
        }
    }
    let report = client
        .set::<PcVec<i64>>("shop", "report")
        .collect()
        .unwrap();
    assert_eq!(report.len(), expect.len());
    for row in report {
        let (region, total, count) = (row.get(0), row.get(1), row.get(2));
        assert_eq!(expect[&region], (total, count), "region {region}");
    }
}

#[test]
fn paper_quickstart_shapes_compile_and_run() {
    // The README snippet must actually work.
    let client = PcClient::local_small().unwrap();
    client.create_or_clear_set("Mydb", "Myset").unwrap();
    let _block = AllocScope::new(1024 * 1024);
    let my_vec = make_object::<PcVec<Handle<Sale>>>().unwrap();
    for i in 0..100 {
        let s = make_object::<Sale>().unwrap();
        s.v().set_region(i % 3).unwrap();
        s.v().set_amount(i).unwrap();
        my_vec.push(s).unwrap();
    }
    client.send_data("Mydb", "Myset", my_vec).unwrap();
    assert_eq!(client.set_size("Mydb", "Myset"), 100);
}
