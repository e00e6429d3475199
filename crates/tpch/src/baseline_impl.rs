//! The baseline (Spark-style) TPC-H workloads over codec-backed structs.

use crate::gen::{jaccard, supplier_name, CustomerData};
use pc_baseline::codec::{get_u32, put_u32, Codec};
use pc_baseline::Rdd;
use std::collections::{BTreeMap, HashMap};

/// The baseline's boxed customer row (its "Java object").
#[derive(Debug, Clone, PartialEq)]
pub struct BCustomer {
    pub cust_key: i64,
    pub name: String,
    /// (order_key, Vec<(part_id, supplier_id)>)
    pub orders: Vec<(i64, Vec<(i64, i64)>)>,
}

impl Codec for BCustomer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cust_key.encode(out);
        self.name.encode(out);
        put_u32(out, self.orders.len() as u32);
        for (ok, lines) in &self.orders {
            ok.encode(out);
            put_u32(out, lines.len() as u32);
            for (p, s) in lines {
                p.encode(out);
                s.encode(out);
            }
        }
    }

    fn decode(inp: &mut &[u8]) -> Self {
        let cust_key = i64::decode(inp);
        let name = String::decode(inp);
        let n = get_u32(inp) as usize;
        let orders = (0..n)
            .map(|_| {
                let ok = i64::decode(inp);
                let m = get_u32(inp) as usize;
                (
                    ok,
                    (0..m)
                        .map(|_| (i64::decode(inp), i64::decode(inp)))
                        .collect(),
                )
            })
            .collect();
        BCustomer {
            cust_key,
            name,
            orders,
        }
    }
}

/// Converts the shared instance into baseline rows.
pub fn to_rows(data: &[CustomerData]) -> Vec<BCustomer> {
    data.iter()
        .map(|c| BCustomer {
            cust_key: c.cust_key,
            name: c.name.clone(),
            orders: c
                .orders
                .iter()
                .map(|o| {
                    (
                        o.order_key,
                        o.lines.iter().map(|l| (l.part_id, l.supplier_id)).collect(),
                    )
                })
                .collect(),
        })
        .collect()
}

/// A customer's name and the parts it bought from one supplier.
type CustomerParts = (String, Vec<i64>);

/// Workload 1 on the baseline: flat-map to (supplier, (customer, parts)),
/// shuffle, group. Returns (supplier, customer count).
pub fn customers_per_supplier(rdd: &Rdd<BCustomer>) -> Vec<(String, usize)> {
    let infos: Rdd<(String, CustomerParts)> = rdd.flat_map(|c| {
        let mut per: HashMap<i64, Vec<i64>> = HashMap::new();
        for (_ok, lines) in &c.orders {
            for (p, s) in lines {
                let e = per.entry(*s).or_default();
                if !e.contains(p) {
                    e.push(*p);
                }
            }
        }
        per.into_iter()
            .map(|(s, parts)| (supplier_name(s), (c.name.clone(), parts)))
            .collect()
    });
    let grouped: Rdd<(String, Vec<CustomerParts>)> = infos
        .map(|(s, cv)| (s, vec![cv]))
        .reduce_by_key(|mut a, mut b| {
            // merge customer entries (dedup parts per customer)
            for (name, parts) in b.drain(..) {
                if let Some((_, existing)) = a.iter_mut().find(|(n, _)| *n == name) {
                    for p in parts {
                        if !existing.contains(&p) {
                            existing.push(p);
                        }
                    }
                } else {
                    a.push((name, parts));
                }
            }
            a
        });
    let mut out: Vec<(String, usize)> = grouped
        .collect()
        .into_iter()
        .map(|(s, v)| (s, v.len()))
        .collect();
    out.sort();
    out
}

/// Full nested result of workload 1 (for validation).
pub fn customers_per_supplier_full(
    rdd: &Rdd<BCustomer>,
) -> BTreeMap<String, BTreeMap<String, Vec<i64>>> {
    let infos: Rdd<(String, (String, Vec<i64>))> = rdd.flat_map(|c| {
        let mut per: HashMap<i64, Vec<i64>> = HashMap::new();
        for (_ok, lines) in &c.orders {
            for (p, s) in lines {
                let e = per.entry(*s).or_default();
                if !e.contains(p) {
                    e.push(*p);
                }
            }
        }
        per.into_iter()
            .map(|(s, parts)| (supplier_name(s), (c.name.clone(), parts)))
            .collect()
    });
    let mut out: BTreeMap<String, BTreeMap<String, Vec<i64>>> = Default::default();
    for (s, (cust, parts)) in infos.collect() {
        let mut parts = parts;
        parts.sort_unstable();
        parts.dedup();
        out.entry(s).or_default().insert(cust, parts);
    }
    out
}

/// Workload 2 on the baseline: score every customer, shuffle the per-
/// partition top-k lists, and merge. Returns `(similarity, cust_key)`.
pub fn top_k_jaccard(rdd: &Rdd<BCustomer>, query: &[i64], k: usize) -> Vec<(f64, i64)> {
    let mut q = query.to_vec();
    q.sort_unstable();
    q.dedup();
    let q2 = q.clone();
    let scored: Rdd<(i64, Vec<(f64, i64)>)> = rdd.map_partitions(move |part| {
        let mut best: Vec<(f64, i64)> = Vec::new();
        for c in part {
            let mut parts: Vec<i64> = c
                .orders
                .iter()
                .flat_map(|(_, lines)| lines.iter().map(|(p, _)| *p))
                .collect();
            parts.sort_unstable();
            parts.dedup();
            best.push((jaccard(&parts, &q2), c.cust_key));
        }
        best.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        best.truncate(k);
        vec![(0i64, best)]
    });
    let merged = scored.reduce_by_key(move |mut a, b| {
        a.extend(b);
        a.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap().then(x.1.cmp(&y.1)));
        a.truncate(k);
        a
    });
    merged
        .collect()
        .into_iter()
        .next()
        .map(|(_, v)| v)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, reference_customers_per_supplier, reference_top_k, TpchConfig};
    use pc_baseline::{SparkConfig, SparkLike, StorageLevel};

    #[test]
    fn baseline_matches_reference() {
        let data = generate(&TpchConfig {
            customers: 60,
            ..Default::default()
        });
        let eng = SparkLike::new(SparkConfig {
            partitions: 3,
            storage: StorageLevel::Serialized,
            ..Default::default()
        });
        let rdd = eng.parallelize(to_rows(&data));
        let got = customers_per_supplier_full(&rdd);
        let want = reference_customers_per_supplier(&data);
        assert_eq!(got, want);

        let query = crate::gen::unique_parts(&data[3]);
        let got = top_k_jaccard(&rdd, &query, 7);
        let want = reference_top_k(&data, &query, 7);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g.0 - w.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bcustomer_codec_roundtrip() {
        let data = generate(&TpchConfig {
            customers: 5,
            ..Default::default()
        });
        for row in to_rows(&data) {
            let bytes = row.to_bytes();
            let mut slice = bytes.as_slice();
            assert_eq!(BCustomer::decode(&mut slice), row);
        }
    }
}
