//! What one `PcLda` Gibbs iteration must produce: pinned factor bits, the
//! token-conservation facts its stored sets satisfy, and the corpus checks
//! `PcLda::init` makes before anything is stored.

use pc_core::prelude::*;
use pc_ml::lda::{synthetic_corpus, Assignment, PcLda, WordProbs};
use std::collections::BTreeMap;

const DOCS: usize = 12;
const VOCAB: usize = 16;
const TOPICS: usize = 3;

fn corpus() -> Vec<(i64, i64, i64)> {
    synthetic_corpus(DOCS, VOCAB, 2, 20, 3)
}

fn init(client: &PcClient, triples: &[(i64, i64, i64)]) -> PcResult<PcLda> {
    PcLda::init(client, "lda", triples, DOCS, VOCAB, TOPICS, 0.1, 0.1, 7)
}

/// A stored set of `(id, vector)` rows, sorted by id.
fn rows_by_id(mut rows: Vec<(i64, Vec<f64>)>) -> Vec<(i64, Vec<f64>)> {
    rows.sort_by_key(|(id, _)| *id);
    rows
}

fn word_rows(client: &PcClient, set: &str) -> Vec<(i64, Vec<f64>)> {
    let rows = client.iterate_set::<WordProbs>("lda", set).unwrap();
    rows_by_id(
        rows.iter()
            .map(|r| (r.v().word(), r.v().probs().iter().collect()))
            .collect(),
    )
}

fn bits(rows: &[(i64, Vec<f64>)]) -> Vec<u64> {
    rows.iter()
        .flat_map(|(_, p)| p.iter().map(|x| x.to_bits()))
        .collect()
}

/// θ (by doc) and φ (by word) after two iterations at seed 7. Every draw is
/// keyed by doc, word or iteration seed and the φ sums are order-free, so
/// how the iteration is split into jobs must not change a single bit.
#[test]
fn two_iterations_reproduce_the_golden_factors() {
    #[rustfmt::skip]
    const THETA: [u64; DOCS * TOPICS] = [
        0x3fc17c5ffbdfa05b, 0x3fd06811a83d1f87, 0x3fe36cdf2ce98827,
        0x3fd36fc9de14e4f9, 0x3fc3d671daacade5, 0x3fe1527e9a4a620a,
        0x3d20a451d37b3987, 0x3fe8e78e9df49ffd, 0x3fcc61c5882d7be2,
        0x3fa27c5e4f98dea3, 0x3fddf362f2a8db7a, 0x3fdfbd11436408b2,
        0x3fbf9d1d8f0df590, 0x3fe439229e94063e, 0x3fcf4ce6be28ec3d,
        0x3fd5377573ba8c9f, 0x3fb860ad7e6898b2, 0x3fe2582f9655a69b,
        0x3fb0cd5a87c9add4, 0x3fc55bbc4e71fba9, 0x3fe88f659b6a4b5b,
        0x3fca6786379dd7b7, 0x3eafddbce7504b1f, 0x3fe9661c743cbb9d,
        0x3fbf53ea0e528b66, 0x3fde9af9ddbee237, 0x3fd9900b9eac7aef,
        0x3fc9b481b8fc26f9, 0x3fab782b818cedd8, 0x3fe7db5cd9a82765,
        0x3f875e7df83573ec, 0x3fefa253116b5317, 0x3ef97b59eb8c83fa,
        0x3fde15ac2ffada58, 0x3fb2534ea0ded04b, 0x3fdd558027cd7194,
    ];
    #[rustfmt::skip]
    const PHI: [u64; VOCAB * TOPICS] = [
        0x3ef2cf5d08868d63, 0x3fbbea8581df7418, 0x3f74a0b449fca49a,
        0x3fa8a949ff0f4b87, 0x3fb051b2901e627d, 0x3fa78ba247b5b25b,
        0x3f79e9dfb4bd1048, 0x3fc08115450519b9, 0x3f1d93826f46035f,
        0x3f73dd8117683846, 0x3fc21a6695d81cf5, 0x3faa0cd61596e639,
        0x3fbe9deb4f1958d6, 0x3fbf9d9d2eddfc1c, 0x3fad8bd926336da5,
        0x3f32d0c6670a50fc, 0x3fb136e71581527b, 0x3f9f13ccca94a451,
        0x3f4342108da762d0, 0x3fa1080c321db490, 0x3fadbf3dfadc98c5,
        0x3f91082b80a2a0e0, 0x3fb645e49047168c, 0x3f8f92d5ad427983,
        0x3fa54305cef46dd7, 0x3e42ffaffb6f3f01, 0x3fc05ed42b4bdf93,
        0x3fb591af93f274cd, 0x3f98a459a997e2ae, 0x3fb4f8f253dca0a0,
        0x3fc4e983d8722f33, 0x3fbc74b1c24848ad, 0x3f813d1c37e0a07a,
        0x3f8f5be0861223aa, 0x3fa30adfdd60254e, 0x3fb80d369bd1de4e,
        0x3fac014a2cda1ae7, 0x3ebb9da816868058, 0x3fa954c4da6cc713,
        0x3fc8d4b759b99f93, 0x3fa02564dfe838cf, 0x3fc631f39cc09aef,
        0x3fa728df185d43bd, 0x3db8540df207fa8f, 0x3fc63f51bb2bf214,
        0x3fca4219a9ff7310, 0x3fa570b5f700834e, 0x3f9c346123db3321,
    ];
    let client = PcClient::local_small().unwrap();
    let mut lda = init(&client, &corpus()).unwrap();
    lda.iterate().unwrap();
    lda.iterate().unwrap();
    let theta = rows_by_id(lda.theta().unwrap());
    assert_eq!(theta.len(), DOCS);
    assert_eq!(bits(&theta), THETA, "θ changed");
    let phi = word_rows(&client, "phi_by_word");
    assert_eq!(phi.len(), VOCAB);
    assert_eq!(bits(&phi), PHI, "φ changed");
}

/// The sampled assignments conserve every document's tokens, the per-word
/// counts add up to the corpus, and every θ row is a distribution.
#[test]
fn an_iteration_conserves_tokens_and_keeps_theta_a_distribution() {
    let triples = corpus();
    let tokens: i64 = triples.iter().map(|t| t.2).sum();
    let mut doc_len: BTreeMap<i64, f64> = BTreeMap::new();
    for &(doc, _, count) in &triples {
        *doc_len.entry(doc).or_default() += count as f64;
    }
    let client = PcClient::local_small().unwrap();
    let mut lda = init(&client, &triples).unwrap();
    for iteration in 1..=3 {
        lda.iterate().unwrap();
        let mut assigned: BTreeMap<i64, f64> = BTreeMap::new();
        for a in client
            .iterate_set::<Assignment>("lda", "assignments")
            .unwrap()
        {
            let counts = a.v().counts();
            assert_eq!(counts.len(), TOPICS);
            *assigned.entry(a.v().doc()).or_default() += counts.as_slice().iter().sum::<f64>();
        }
        assert_eq!(assigned, doc_len, "iteration {iteration}: per-doc sums");
        assert_eq!(assigned.values().sum::<f64>(), tokens as f64);

        let word_counts = word_rows(&client, "word_counts");
        let counted: f64 = word_counts.iter().flat_map(|(_, c)| c).sum();
        assert_eq!(counted, tokens as f64, "iteration {iteration}: word counts");

        let theta = lda.theta().unwrap();
        assert_eq!(theta.len(), DOCS);
        for (doc, p) in &theta {
            assert_eq!(p.len(), TOPICS);
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "θ[{doc}] sums to {s}");
        }
    }
}

fn init_error(triples: &[(i64, i64, i64)]) -> String {
    let client = PcClient::local_small().unwrap();
    match init(&client, triples) {
        Ok(_) => panic!("PcLda::init accepted {triples:?}"),
        Err(e @ PcError::Catalog(_)) => e.to_string(),
        Err(e) => panic!("PcLda::init rejected {triples:?} with {e:?}"),
    }
}

#[test]
fn init_rejects_a_doc_outside_the_corpus() {
    let doc = DOCS as i64;
    assert!(init_error(&[(0, 0, 3), (doc, 1, 2)]).contains("doc"));
    assert!(init_error(&[(-1, 0, 3)]).contains("doc"));
}

#[test]
fn init_rejects_a_word_outside_the_vocabulary() {
    let word = VOCAB as i64;
    assert!(init_error(&[(0, 0, 3), (1, 1, 2), (0, word, 4)]).contains("word"));
    assert!(init_error(&[(0, -1, 3)]).contains("word"));
}

#[test]
fn init_rejects_a_count_the_sampler_cannot_draw() {
    assert!(init_error(&[(0, 0, 3), (1, 1, -2)]).contains("count"));
    assert!(init_error(&[(0, 0, 1 << 32)]).contains("count"));
}
