//! Verifier-on-everything: every workload in the tree lowers to a plan the
//! TCAP verifier accepts.
//!
//! `Job::compile` verifies every lowered plan, and the cluster re-verifies
//! after optimization before planning (`PcError::PlanRejected` otherwise) —
//! so a successful run of each workload *is* the proof that its plans
//! verify clean, pre- and post-optimize.
//!
//! Sizes are tiny: the point is plan coverage (every computation family the
//! compilers emit), not throughput.

use plinycompute::cluster::ClusterConfig;
use plinycompute::lillinalg::{DenseMatrix, DistMatrix, LilLinAlg};
use plinycompute::ml::gmm::PcGmm;
use plinycompute::ml::kmeans::{synthetic_points, PcKMeans};
use plinycompute::ml::lda::{synthetic_corpus, PcLda};
use plinycompute::tpch::gen::{generate, unique_parts, TpchConfig};
use plinycompute::tpch::pc_impl;
use plinycompute::PcClient;

fn verifying_client() -> PcClient {
    PcClient::connect(ClusterConfig {
        workers: 2,
        ..ClusterConfig::default()
    })
    .expect("cluster boots")
}

#[test]
fn ml_kmeans_plans_verify_clean() {
    let client = verifying_client();
    let pts = synthetic_points(60, 4, 3, 17);
    let mut km = PcKMeans::init(&client, "ml", "kmpts", &pts, 3).expect("init verifies + runs");
    for _ in 0..2 {
        km.iterate().expect("aggregate plan verifies + runs");
    }
    assert!(km.centroids.iter().flatten().all(|x| x.is_finite()));
}

#[test]
fn ml_gmm_plans_verify_clean() {
    let client = verifying_client();
    let pts = synthetic_points(120, 4, 3, 5);
    let mut gmm = PcGmm::init(&client, "ml", "gmmpts", &pts, 3).expect("init verifies + runs");
    for _ in 0..2 {
        gmm.iterate().expect("E/M plan verifies + runs");
    }
}

#[test]
fn ml_lda_plans_verify_clean() {
    let client = verifying_client();
    let (docs, vocab, topics) = (20, 60, 3);
    let triples = synthetic_corpus(docs, vocab, 3, 12, 11);
    let mut lda = PcLda::init(&client, "lda", &triples, docs, vocab, topics, 0.1, 0.1, 5)
        .expect("init verifies + runs");
    for _ in 0..2 {
        lda.iterate().expect("Gibbs-round plan verifies + runs");
    }
}

#[test]
fn tpch_plans_verify_clean() {
    let client = verifying_client();
    let data = generate(&TpchConfig {
        customers: 200,
        ..Default::default()
    });
    pc_impl::load(&client, "tpch", "customers", &data).expect("load runs");

    let cps = pc_impl::customers_per_supplier(&client, "tpch", "customers")
        .expect("flat_map+aggregate plan verifies + runs");
    assert!(!cps.is_empty(), "cps query returned no suppliers");

    let query = unique_parts(&data[0]);
    let topk = pc_impl::top_k_jaccard(&client, "tpch", "customers", &query, 4)
        .expect("top-k plan verifies + runs");
    assert!(!topk.is_empty(), "top-k query returned nothing");
}

#[test]
fn lillinalg_plans_verify_clean() {
    let client = verifying_client();
    let (n, d) = (48, 3);
    let x = DenseMatrix::from_rows(
        (0..n)
            .map(|i| (0..d).map(|j| ((i * d + j) % 7) as f64 - 3.0).collect())
            .collect(),
    );
    let beta_true = DenseMatrix::from_rows((0..d).map(|i| vec![i as f64 - 1.0]).collect());
    let y = x.matmul(&beta_true);

    let mut la = LilLinAlg::new(client.clone());
    la.load(
        "X",
        DistMatrix::from_dense(&client, "la", "x", &x, 16, d).expect("load plan verifies + runs"),
    );
    la.load(
        "y",
        DistMatrix::from_dense(&client, "la", "y", &y, 16, 1).expect("load plan verifies + runs"),
    );
    // Least squares: multiply, transpose-multiply, and inverse plans.
    let out = la
        .run("beta = (X '* X)^-1 %*% (X '* y)")
        .expect("every DSL-emitted plan verifies + runs");
    let beta = la
        .get(&out)
        .expect("result bound")
        .to_dense()
        .expect("gather runs");
    assert!(
        beta.max_abs_diff(&beta_true) < 1e-6,
        "solver drifted: {}",
        beta.max_abs_diff(&beta_true)
    );
}
