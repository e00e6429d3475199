//! `tpch_nested` (paper §8.3): denormalized customers (Customer → Order →
//! LineItem handles, strings, `PcVec`s); a job is customers-per-supplier
//! plus top-k Jaccard. Handle dereference, nested allocation, string keys
//! and FLATMAP fan-out do the work, over tiny scans and with no spill.

use super::{cluster_config, library_job, Counters, Env, Workload};
use crate::trace::Tracer;
use pc_baseline::{Rdd, SparkConfig, SparkLike};
use pc_core::prelude::*;
use pc_tpch::baseline_impl::{self, BCustomer};
use pc_tpch::gen::{self, CustomerData, TpchConfig};
use pc_tpch::pc_impl::{self, Customer, LineItem, Order};
use std::collections::BTreeMap;

pub const CUSTOMERS: usize = 2_000;
const PAGE_SIZE: usize = 256 << 10;
const DB: &str = "tpch";
const SET: &str = "customers";

type CpsResult = BTreeMap<String, BTreeMap<String, Vec<i64>>>;

pub fn generate(seed: u64) -> Vec<CustomerData> {
    gen::generate(&TpchConfig {
        customers: CUSTOMERS,
        seed,
        ..TpchConfig::default()
    })
}

/// One denormalized customer built with `make_object`, as `pc_impl::load`
/// builds it; the object probe needs the construction without the cluster.
fn make_customer(c: &CustomerData) -> PcResult<AnyHandle> {
    let cust = make_object::<Customer>()?;
    cust.v().set_cust_key(c.cust_key)?;
    cust.v().set_name(PcString::make(&c.name)?)?;
    let orders = make_object::<PcVec<Handle<Order>>>()?;
    for o in &c.orders {
        let order = make_object::<Order>()?;
        order.v().set_order_key(o.order_key)?;
        let lines = make_object::<PcVec<Handle<LineItem>>>()?;
        for l in &o.lines {
            let li = make_object::<LineItem>()?;
            li.v().set_part_id(l.part_id)?;
            li.v().set_supplier_id(l.supplier_id)?;
            li.v().set_line_number(l.line_number)?;
            lines.push(li)?;
        }
        order.v().set_lineitems(lines)?;
        orders.push(order)?;
    }
    cust.v().set_orders(orders)?;
    Ok(cust.erase())
}

pub struct Tpch {
    client: PcClient,
    data: Vec<CustomerData>,
    query: Vec<i64>,
    k: usize,
    want_cps: CpsResult,
    want_topk: Vec<(f64, i64)>,
    got_counts: Vec<(String, usize)>,
    got_topk: Vec<(f64, i64)>,
    baseline: Option<Rdd<BCustomer>>,
}

impl Tpch {
    pub fn setup(env: Env) -> PcResult<Self> {
        let data = generate(env.seed);
        let query = gen::unique_parts(&data[0]);
        let k = CUSTOMERS / 50;
        let client = PcClient::connect(cluster_config(1, env.threads, PAGE_SIZE))?;
        pc_impl::load(&client, DB, SET, &data)?;
        Ok(Tpch {
            want_cps: gen::reference_customers_per_supplier(&data),
            want_topk: gen::reference_top_k(&data, &query, k),
            client,
            data,
            query,
            k,
            got_counts: Vec::new(),
            got_topk: Vec::new(),
            baseline: None,
        })
    }
}

impl Workload for Tpch {
    fn rows(&self) -> u64 {
        CUSTOMERS as u64
    }

    fn client(&self) -> &PcClient {
        &self.client
    }

    fn job(&mut self, tr: &mut Tracer) -> Result<Counters, String> {
        let (client, query, k) = (self.client.clone(), &self.query, self.k);
        let (mut counts, mut topk) = (Vec::new(), Vec::new());
        let counters = library_job(&self.client, tr, |tr| {
            counts = tr.span("tpch.cps", |_| {
                pc_impl::customers_per_supplier(&client, DB, SET)
            })?;
            topk = tr.span("tpch.topk", |_| {
                pc_impl::top_k_jaccard(&client, DB, SET, query, k)
            })?;
            Ok(())
        })?;
        (self.got_counts, self.got_topk) = (counts, topk);
        Ok(counters)
    }

    fn check(&mut self) -> Result<(), String> {
        let want_counts: Vec<(String, usize)> = self
            .want_cps
            .iter()
            .map(|(s, m)| (s.clone(), m.len()))
            .collect();
        if self.got_counts != want_counts {
            return Err("customers-per-supplier counts differ from the reference".into());
        }
        let full =
            pc_impl::customers_per_supplier_full(&self.client, DB).map_err(|e| e.to_string())?;
        if full != self.want_cps {
            return Err("customers-per-supplier nested result differs from the reference".into());
        }
        let same_topk = self.got_topk.len() == self.want_topk.len()
            && self
                .got_topk
                .iter()
                .zip(&self.want_topk)
                .all(|(g, w)| g.1 == w.1 && (g.0 - w.0).abs() < 1e-9);
        if !same_topk {
            return Err(format!(
                "top-{} differs from the reference: {:?} vs {:?}",
                self.k,
                self.got_topk.first(),
                self.want_topk.first()
            ));
        }
        Ok(())
    }

    fn build_pages(&self) -> PcResult<(u64, Vec<SealedPage>)> {
        let mut w = SetWriter::new(PAGE_SIZE);
        for c in &self.data {
            w.write_with(|| make_customer(c))?;
        }
        Ok((CUSTOMERS as u64, w.finish()?))
    }

    fn baseline_job(&mut self) -> Option<Result<(), String>> {
        let rdd = self.baseline.get_or_insert_with(|| {
            SparkLike::new(SparkConfig::default()).parallelize(baseline_impl::to_rows(&self.data))
        });
        let counts = baseline_impl::customers_per_supplier(rdd);
        let topk = baseline_impl::top_k_jaccard(rdd, &self.query, self.k);
        Some(
            if counts.len() == self.want_cps.len() && topk.len() == self.want_topk.len() {
                Ok(())
            } else {
                Err("baseline tpch result has the wrong shape".into())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::digest;

    fn input_digest(seed: u64) -> u64 {
        digest(generate(seed).iter().flat_map(|c| {
            c.orders.iter().flat_map(|o| {
                o.lines
                    .iter()
                    .flat_map(|l| [l.part_id as u64, l.supplier_id as u64])
            })
        }))
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(input_digest(42), input_digest(42));
        assert_ne!(input_digest(42), input_digest(43));
    }
}
