//! PC LDA draws the same sample for every stage thread count: each join row
//! and each aggregated key samples from its own seeded stream, so the
//! morsel schedule cannot reorder the draws.

use pc_core::prelude::*;
use pc_ml::lda::{synthetic_corpus, PcLda};

/// θ after two Gibbs iterations with `threads` stage threads.
fn theta_after_two_iterations(threads: usize) -> Vec<(i64, Vec<f64>)> {
    let client = PcClient::connect(ClusterConfig {
        workers: 1,
        exec: ExecConfig {
            page_size: 1 << 18,
            threads,
            morsel_rows: 16,
            ..ExecConfig::default()
        },
        ..ClusterConfig::default()
    })
    .unwrap();
    let triples = synthetic_corpus(40, 60, 2, 50, 3);
    let mut lda = PcLda::init(&client, "lda", &triples, 40, 60, 2, 0.1, 0.1, 7).unwrap();
    for _ in 0..2 {
        lda.iterate().unwrap();
    }
    let mut theta = lda.theta().unwrap();
    theta.sort_by_key(|(doc, _)| *doc);
    theta
}

#[test]
fn pc_lda_theta_is_identical_at_one_and_four_threads() {
    let want = theta_after_two_iterations(1);
    assert_eq!(want.len(), 40);
    for run in 0..20 {
        assert_eq!(
            theta_after_two_iterations(4),
            want,
            "run {run}: 4 threads sampled a different θ than 1 thread"
        );
    }
}
