//! PC-vs-reference validation of both §8.4 workloads.

use pc_core::prelude::*;
use pc_tpch::gen::{
    generate, reference_customers_per_supplier, reference_top_k, unique_parts, TpchConfig,
};
use pc_tpch::pc_impl;

#[test]
fn pc_customers_per_supplier_matches_reference() {
    let data = generate(&TpchConfig {
        customers: 80,
        ..Default::default()
    });
    let client = PcClient::local_small().unwrap();
    pc_impl::load(&client, "tpch", "customers", &data).unwrap();
    let counts = pc_impl::customers_per_supplier(&client, "tpch", "customers").unwrap();
    let full = pc_impl::customers_per_supplier_full(&client, "tpch").unwrap();
    let want = reference_customers_per_supplier(&data);
    assert_eq!(full, want);
    let want_counts: Vec<(String, usize)> =
        want.iter().map(|(s, m)| (s.clone(), m.len())).collect();
    assert_eq!(counts, want_counts);
}

/// The supplier names must hash into both of `local_small`'s aggregation
/// partitions, so the combine stage ships one merged page per partition.
/// Under a hash whose partition bit is the same for every `Supplier#NNNN`
/// the whole aggregation runs in one partition and ships a single page.
#[test]
fn customers_per_supplier_uses_every_aggregation_partition() {
    let data = generate(&TpchConfig {
        customers: 80,
        ..Default::default()
    });
    let client = PcClient::local_small().unwrap();
    pc_impl::load(&client, "skew", "customers", &data).unwrap();
    let before = client.cluster().stats_snapshot().pages_shuffled;
    let counts = pc_impl::customers_per_supplier(&client, "skew", "customers").unwrap();
    let shipped = client.cluster().stats_snapshot().pages_shuffled - before;
    assert_eq!(shipped, 2, "combined pages shipped");
    let want: Vec<(String, usize)> = reference_customers_per_supplier(&data)
        .iter()
        .map(|(s, m)| (s.clone(), m.len()))
        .collect();
    assert_eq!(counts, want);
}

#[test]
fn pc_top_k_matches_reference() {
    let data = generate(&TpchConfig {
        customers: 120,
        seed: 9,
        ..Default::default()
    });
    let client = PcClient::local_small().unwrap();
    pc_impl::load(&client, "tpch2", "customers", &data).unwrap();
    let query = unique_parts(&data[17]);
    let got = pc_impl::top_k_jaccard(&client, "tpch2", "customers", &query, 10).unwrap();
    let want = reference_top_k(&data, &query, 10);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert!(
            (g.0 - w.0).abs() < 1e-9,
            "similarity mismatch {g:?} vs {w:?}"
        );
        assert_eq!(g.1, w.1, "customer order mismatch");
    }
}
