//! Word-based, non-collapsed Gibbs LDA (§8.5.1, Figure 2).
//!
//! The fundamental records are `(docID, wordID, count)` triples. Each
//! iteration runs two engine jobs:
//!
//! 1. a **three-way join** pairs every triple with its document's topic
//!    probabilities θ_d and its word's per-topic probabilities φ_{·,w}
//!    (the "many-to-one join between words and the
//!    topic-probability-per-document vectors" the paper calls out as the
//!    hard part). Its projection samples the word's topic assignments from
//!    a multinomial over θ_d ⊙ φ_{·,w}, and the job stores them in
//!    `assignments`;
//! 2. one job runs two aggregations over `assignments`: per-document
//!    topic counts → θ'_d ~ Dirichlet(α + counts), written straight to
//!    `theta`, and per-word topic counts, written to `word_counts`;
//! 3. the driver reads `word_counts`, draws φ'_k ~ Dirichlet(β + counts)
//!    for each of the K topics, and stores the per-word transpose in
//!    `phi_by_word` for the next iteration's join.
//!
//! The baseline implementation exposes Table 4's tuning ladder via
//! [`LdaTuning`]: vanilla shuffle joins with a generic allocation-heavy
//! multinomial, then the broadcast-join hint, then forced persistence of
//! the iteration-invariant triples, then the hand-coded sampler.

use crate::sampling;
use pc_baseline::{Rdd, SparkLike};
use pc_core::prelude::*;
use pc_object::PcValue;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::marker::PhantomData;

pc_object! {
    /// One (docID, wordID, count) triple.
    pub struct Triple / TripleView {
        (doc, set_doc): i64,
        (word, set_word): i64,
        (count, set_count): i64,
    }
}

pc_object! {
    /// θ_d: a document's topic probabilities.
    pub struct DocProbs / DocProbsView {
        (doc, set_doc): i64,
        (probs, set_probs): Handle<PcVec<f64>>,
    }
}

pc_object! {
    /// φ_{·,w}: one word's probability under each topic (the transposed
    /// factor used by the join). The `word_counts` set reuses it for one
    /// word's raw topic counts.
    pub struct WordProbs / WordProbsView {
        (word, set_word): i64,
        (probs, set_probs): Handle<PcVec<f64>>,
    }
}

pc_object! {
    /// Sampled topic assignment counts for one (doc, word) pair.
    pub struct Assignment / AssignmentView {
        (doc, set_doc): i64,
        (word, set_word): i64,
        (counts, set_counts): Handle<PcVec<f64>>,
    }
}

/// The generator for one keyed draw of one iteration. Every join row and
/// every aggregated key draws from its own stream, so what it samples does
/// not depend on which thread runs it or in what order.
fn keyed_rng(seed: u64, key: &[i64]) -> StdRng {
    StdRng::seed_from_u64(
        key.iter()
            .fold(seed, |h, &k| StdRng::seed_from_u64(h ^ k as u64).random()),
    )
}

/// A factor row keyed by one id of an [`Assignment`]: θ rows by doc, the
/// per-word topic counts by word.
trait Factor: PcObjType + Sized {
    fn key(a: &Handle<Assignment>) -> i64;
    fn row(id: i64, values: &[f64]) -> PcResult<Handle<Self>>;
}

impl Factor for DocProbs {
    fn key(a: &Handle<Assignment>) -> i64 {
        a.v().doc()
    }

    fn row(id: i64, values: &[f64]) -> PcResult<Handle<Self>> {
        let row = make_object::<DocProbs>()?;
        row.v().set_doc(id)?;
        let pv = make_object::<PcVec<f64>>()?;
        pv.extend_from_slice(values)?;
        row.v().set_probs(pv)?;
        Ok(row)
    }
}

impl Factor for WordProbs {
    fn key(a: &Handle<Assignment>) -> i64 {
        a.v().word()
    }

    fn row(id: i64, values: &[f64]) -> PcResult<Handle<Self>> {
        let row = make_object::<WordProbs>()?;
        row.v().set_word(id)?;
        let pv = make_object::<PcVec<f64>>()?;
        pv.extend_from_slice(values)?;
        row.v().set_probs(pv)?;
        Ok(row)
    }
}

/// Aggregation rebuilding a factor: sums count vectors per key into one
/// `O` row.
struct FactorAgg<O> {
    width: usize,
    /// `Some((prior, seed))`: finalize draws key `k`'s row from
    /// Dirichlet(prior + counts) with `keyed_rng(seed, [k])`. `None`: the
    /// row holds the raw summed counts.
    dirichlet: Option<(f64, u64)>,
    out: PhantomData<fn() -> O>,
}

impl<O> FactorAgg<O> {
    fn new(width: usize, dirichlet: Option<(f64, u64)>) -> Self {
        FactorAgg {
            width,
            dirichlet,
            out: PhantomData,
        }
    }
}

impl<O: Factor> AggregateSpec for FactorAgg<O> {
    type In = Assignment;
    type Key = i64;
    type Val = Handle<PcVec<f64>>;
    type Out = O;

    fn key_of(&self, rec: &Handle<Assignment>) -> PcResult<i64> {
        Ok(O::key(rec))
    }

    fn init(&self, b: &BlockRef, rec: &Handle<Assignment>) -> PcResult<Handle<PcVec<f64>>> {
        let v = b.make_object::<PcVec<f64>>()?;
        v.reserve(self.width)?;
        v.extend_from_slice(&vec![0.0; self.width])?;
        let c = rec.v().counts();
        for (d, s) in v.as_mut_slice().iter_mut().zip(c.as_slice()) {
            *d += s;
        }
        Ok(v)
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<Assignment>) -> PcResult<()> {
        let acc = <Handle<PcVec<f64>> as PcValue>::load(b, slot);
        let c = rec.v().counts();
        for (d, s) in acc.as_mut_slice().iter_mut().zip(c.as_slice()) {
            *d += s;
        }
        Ok(())
    }

    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()> {
        let a = <Handle<PcVec<f64>> as PcValue>::load(dst, dst_slot);
        let b2 = <Handle<PcVec<f64>> as PcValue>::load(src, src_slot);
        for (x, y) in a.as_mut_slice().iter_mut().zip(b2.as_slice()) {
            *x += y;
        }
        Ok(())
    }

    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<O>> {
        let acc = <Handle<PcVec<f64>> as PcValue>::load(b, slot);
        let counts = acc.as_slice();
        let Some((prior, seed)) = self.dirichlet else {
            return O::row(*key, counts);
        };
        let alpha: Vec<f64> = counts.iter().map(|c| c + prior).collect();
        let mut probs = vec![0.0; self.width];
        sampling::sample_dirichlet(&mut keyed_rng(seed, &[*key]), &alpha, &mut probs);
        O::row(*key, &probs)
    }
}

/// LDA on PlinyCompute.
pub struct PcLda {
    pub client: PcClient,
    pub db: String,
    pub topics: usize,
    pub vocab: usize,
    pub docs: usize,
    pub alpha: f64,
    pub beta: f64,
    /// Driver-side stream: initial factors, one seed per iteration, and the
    /// φ resampling, all drawn sequentially.
    rng: StdRng,
}

impl PcLda {
    /// Loads triples and Dirichlet-initializes both factors. A triple whose
    /// doc is outside `0..docs` or whose word is outside `0..vocab` is an
    /// error, since the join would silently drop it; so is a count the
    /// sampler cannot draw as a `u32`.
    #[allow(clippy::too_many_arguments)]
    pub fn init(
        client: &PcClient,
        db: &str,
        triples: &[(i64, i64, i64)],
        docs: usize,
        vocab: usize,
        topics: usize,
        alpha: f64,
        beta: f64,
        seed: u64,
    ) -> PcResult<Self> {
        for &(d, w, c) in triples {
            let bad = if !(0..docs as i64).contains(&d) {
                format!("doc {d} is outside 0..{docs}")
            } else if !(0..vocab as i64).contains(&w) {
                format!("word {w} is outside 0..{vocab}")
            } else if u32::try_from(c).is_err() {
                format!("count {c} is outside 0..={}", u32::MAX)
            } else {
                continue;
            };
            return Err(PcError::Catalog(format!(
                "LDA triple ({d}, {w}, {c}): {bad}"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        client.create_or_clear_set(db, "triples")?;
        client.store(db, "triples", triples.len(), |i| {
            let (d, w, c) = &triples[i];
            let t = make_object::<Triple>()?;
            t.v().set_doc(*d)?;
            t.v().set_word(*w)?;
            t.v().set_count(*c)?;
            Ok(t.erase())
        })?;
        let mut draw = || {
            let mut probs = vec![0.0; topics];
            sampling::sample_dirichlet(&mut rng, &vec![1.0; topics], &mut probs);
            probs
        };
        client.create_or_clear_set(db, "theta")?;
        client.store(db, "theta", docs, |d| {
            Ok(DocProbs::row(d as i64, &draw())?.erase())
        })?;
        client.create_or_clear_set(db, "phi_by_word")?;
        client.store(db, "phi_by_word", vocab, |w| {
            Ok(WordProbs::row(w as i64, &draw())?.erase())
        })?;
        Ok(PcLda {
            client: client.clone(),
            db: db.to_string(),
            topics,
            vocab,
            docs,
            alpha,
            beta,
            rng,
        })
    }

    /// One Gibbs iteration: two engine jobs, then the φ draw on the driver.
    pub fn iterate(&mut self) -> PcResult<()> {
        let db = self.db.clone();
        let k = self.topics;

        // --- job 1: 3-way join + multinomial projection → assignments ---
        let triples = self.client.set::<Triple>(&db, "triples");
        let theta = self.client.set::<DocProbs>(&db, "theta");
        let phi = self.client.set::<WordProbs>(&db, "phi_by_word");
        let seed: u64 = self.rng.random();
        triples
            .join3(
                &theta,
                &phi,
                |t, d, w| {
                    t.member("doc", |t| t.v().doc())
                        .eq(d.member("doc", |p| p.v().doc()))
                        .and(
                            t.member("word", |t| t.v().word())
                                .eq(w.member("word", |p| p.v().word())),
                        )
                },
                "sampleAssignments",
                move |t, dp, wp| {
                    let theta = dp.v().probs();
                    let phi = wp.v().probs();
                    let weights: Vec<f64> = theta
                        .as_slice()
                        .iter()
                        .zip(phi.as_slice())
                        .map(|(a, b)| a * b)
                        .collect();
                    let mut counts = vec![0u32; k];
                    sampling::sample_multinomial(
                        &mut keyed_rng(seed, &[t.v().doc(), t.v().word()]),
                        &weights,
                        t.v().count() as u32,
                        &mut counts,
                    );
                    let a = make_object::<Assignment>()?;
                    a.v().set_doc(t.v().doc())?;
                    a.v().set_word(t.v().word())?;
                    let cv = make_object::<PcVec<f64>>()?;
                    cv.reserve(k)?;
                    cv.extend_from_slice(&counts.iter().map(|c| *c as f64).collect::<Vec<_>>())?;
                    a.v().set_counts(cv)?;
                    Ok(a)
                },
            )
            .write_to(&db, "assignments")
            .run(&self.client)?;

        // --- job 2: both aggregations over the stored assignments ---
        // θ'_d ~ Dirichlet(α + per-doc counts) goes straight to `theta`,
        // which this job does not read; the per-word topic counts go to
        // `word_counts`.
        let assignments = self.client.set::<Assignment>(&db, "assignments");
        Job::new()
            .add(
                assignments
                    .aggregate(FactorAgg::<DocProbs>::new(k, Some((self.alpha, seed))))
                    .write_to(&db, "theta"),
            )
            .add(
                assignments
                    .aggregate(FactorAgg::<WordProbs>::new(k, None))
                    .write_to(&db, "word_counts"),
            )
            .run(&self.client)?;

        // --- φ'_k ~ Dirichlet(β + per-topic word counts), on the driver ---
        // The topic count K is tiny, so the driver draws each topic's row
        // and stores the per-word transpose the next join reads.
        let mut per_topic: Vec<Vec<f64>> = vec![vec![self.beta; self.vocab]; k];
        for row in self.client.iterate_set::<WordProbs>(&db, "word_counts")? {
            let w = row.v().word() as usize;
            for (t, c) in row.v().probs().as_slice().iter().enumerate() {
                per_topic[t][w] += c;
            }
        }
        let phi_rows: Vec<Vec<f64>> = per_topic
            .iter()
            .map(|counts| {
                let mut probs = vec![0.0; self.vocab];
                sampling::sample_dirichlet(&mut self.rng, counts, &mut probs);
                probs
            })
            .collect();
        self.client.create_or_clear_set(&db, "phi_by_word")?;
        self.client.store(&db, "phi_by_word", self.vocab, |w| {
            let probs: Vec<f64> = phi_rows.iter().map(|topic| topic[w]).collect();
            Ok(WordProbs::row(w as i64, &probs)?.erase())
        })
    }

    /// Gathers θ (doc → topic distribution).
    pub fn theta(&self) -> PcResult<Vec<(i64, Vec<f64>)>> {
        Ok(self
            .client
            .iterate_set::<DocProbs>(&self.db, "theta")?
            .iter()
            .map(|r| (r.v().doc(), r.v().probs().iter().collect()))
            .collect())
    }
}

// ----------------------------------------------------------------- baseline

/// Table 4's tuning ladder for the baseline LDA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LdaTuning {
    /// Shuffle joins, serialized stages, generic multinomial.
    Vanilla,
    /// + broadcast-join hint.
    JoinHint,
    /// + persist the iteration-invariant triples (skip their codec).
    ForcedPersist,
    /// + hand-coded multinomial sampler.
    HandCodedSampler,
}

/// Baseline (Spark-style) LDA.
pub struct BaselineLda {
    eng: SparkLike,
    pub tuning: LdaTuning,
    pub topics: usize,
    pub vocab: usize,
    triples: Rdd<(i64, i64, i64)>,
    theta: Vec<Vec<f64>>,
    phi_by_word: Vec<Vec<f64>>,
    rng: rand::rngs::StdRng,
    alpha: f64,
    beta: f64,
    docs: usize,
}

impl BaselineLda {
    #[allow(clippy::too_many_arguments)]
    pub fn init(
        eng: &SparkLike,
        tuning: LdaTuning,
        triples: Vec<(i64, i64, i64)>,
        docs: usize,
        vocab: usize,
        topics: usize,
        alpha: f64,
        beta: f64,
        seed: u64,
    ) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut theta = vec![vec![0.0; topics]; docs];
        for row in theta.iter_mut() {
            sampling::sample_dirichlet(&mut rng, &vec![1.0; topics], row);
        }
        let mut phi_by_word = vec![vec![0.0; topics]; vocab];
        for row in phi_by_word.iter_mut() {
            sampling::sample_dirichlet(&mut rng, &vec![1.0; topics], row);
        }
        let rdd = eng.parallelize(triples);
        let rdd = if tuning >= LdaTuning::ForcedPersist {
            rdd.cache()
        } else {
            rdd
        };
        BaselineLda {
            eng: eng.clone(),
            tuning,
            topics,
            vocab,
            triples: rdd,
            theta,
            phi_by_word,
            rng,
            alpha,
            beta,
            docs,
        }
    }

    pub fn iterate(&mut self) {
        let k = self.topics;
        // Model join: distribute θ and φ as keyed RDDs and join, or
        // broadcast (JoinHint+) — the same dataflow PC's 3-way join runs.
        let theta_rdd: Rdd<(i64, Vec<f64>)> = self.eng.parallelize(
            self.theta
                .iter()
                .cloned()
                .enumerate()
                .map(|(d, v)| (d as i64, v))
                .collect(),
        );
        let phi_rdd: Rdd<(i64, Vec<f64>)> = self.eng.parallelize(
            self.phi_by_word
                .iter()
                .cloned()
                .enumerate()
                .map(|(w, v)| (w as i64, v))
                .collect(),
        );
        let use_broadcast = self.tuning >= LdaTuning::JoinHint;
        let eng = if use_broadcast {
            let mut cfg = self.eng.config.clone();
            cfg.broadcast_join_hint = true;
            SparkLike::new(cfg)
        } else {
            self.eng.clone()
        };
        let by_doc: Rdd<(i64, (i64, i64))> = self.triples.map(|(d, w, c)| (d, (w, c)));
        // Rebuild under the (possibly broadcast-hinted) engine.
        let by_doc = eng.parallelize(by_doc.collect());
        let theta_rdd = eng.parallelize(theta_rdd.collect());
        let phi_rdd = eng.parallelize(phi_rdd.collect());
        let j1 = by_doc.join(&theta_rdd); // (doc, ((word,count), θ_d))
        let by_word: Rdd<(i64, (i64, i64, Vec<f64>))> = j1.map(|(d, ((w, c), th))| (w, (d, c, th)));
        let j2 = by_word.join(&phi_rdd); // (word, ((doc,count,θ), φ_w))
        let seed: u64 = self.rng.random();
        let fast = self.tuning >= LdaTuning::HandCodedSampler;
        let assignments: Rdd<(i64, (i64, Vec<f64>))> = j2.map_partitions(move |part| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut out = Vec::with_capacity(part.len());
            for (w, ((d, c, th), ph)) in part {
                let weights: Vec<f64> = th.iter().zip(&ph).map(|(a, b)| a * b).collect();
                let mut counts = vec![0u32; k];
                if fast {
                    sampling::sample_multinomial(&mut rng, &weights, c as u32, &mut counts);
                } else {
                    sampling::sample_multinomial_generic(&mut rng, &weights, c as u32, &mut counts);
                }
                out.push((
                    d,
                    (w, counts.iter().map(|x| *x as f64).collect::<Vec<f64>>()),
                ));
            }
            out
        });

        // θ update. `reduce_by_key` emits in hash-map order, so sort by doc
        // before drawing: θ must be a function of the seed alone.
        let mut doc_counts = assignments
            .map(|(d, (_w, counts))| (d, counts))
            .reduce_by_key(|mut a, b| {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
                a
            })
            .collect();
        doc_counts.sort_unstable_by_key(|(d, _)| *d);
        for (d, counts) in doc_counts {
            let alpha: Vec<f64> = counts.iter().map(|c| c + self.alpha).collect();
            sampling::sample_dirichlet(&mut self.rng, &alpha, &mut self.theta[d as usize]);
        }
        // φ update.
        let word_counts = assignments
            .map(|(_d, (w, counts))| (w, counts))
            .reduce_by_key(|mut a, b| {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
                a
            })
            .collect();
        let mut per_topic = vec![vec![self.beta; self.vocab]; k];
        for (w, counts) in word_counts {
            for (t, c) in counts.iter().enumerate() {
                per_topic[t][w as usize] += c;
            }
        }
        let mut phi_rows = vec![vec![0.0; self.vocab]; k];
        for (t, counts) in per_topic.iter().enumerate() {
            sampling::sample_dirichlet(&mut self.rng, counts, &mut phi_rows[t]);
        }
        for (w, probs) in self.phi_by_word.iter_mut().enumerate() {
            for (p, row) in probs.iter_mut().zip(&phi_rows) {
                *p = row[w];
            }
        }
        let _ = self.docs;
    }

    pub fn theta(&self) -> &[Vec<f64>] {
        &self.theta
    }
}

/// Semi-synthetic corpus in the 20-newsgroups style: `docs` documents, each
/// drawn from one of `true_topics` disjoint word pools.
pub fn synthetic_corpus(
    docs: usize,
    vocab: usize,
    true_topics: usize,
    words_per_doc: usize,
    seed: u64,
) -> Vec<(i64, i64, i64)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pool = vocab / true_topics;
    let mut triples = Vec::new();
    for d in 0..docs {
        let topic = d % true_topics;
        let mut counts: std::collections::BTreeMap<i64, i64> = Default::default();
        for _ in 0..words_per_doc {
            let w = (topic * pool + rng.random_range(0..pool)) as i64;
            *counts.entry(w).or_insert(0) += 1;
        }
        for (w, c) in counts {
            triples.push((d as i64, w, c));
        }
    }
    triples
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_baseline::{SparkConfig, StorageLevel};

    fn topic_sharpness(theta: &[(i64, Vec<f64>)]) -> f64 {
        let s: f64 = theta
            .iter()
            .map(|(_, p)| p.iter().cloned().fold(0.0, f64::max))
            .sum();
        s / theta.len() as f64
    }

    #[test]
    fn pc_lda_concentrates_topics() {
        let triples = synthetic_corpus(40, 60, 2, 50, 3);
        let client = PcClient::local_small().unwrap();
        let mut lda = PcLda::init(&client, "lda", &triples, 40, 60, 2, 0.1, 0.1, 7).unwrap();
        for _ in 0..12 {
            lda.iterate().unwrap();
        }
        let theta = lda.theta().unwrap();
        assert_eq!(theta.len(), 40);
        for (_, p) in &theta {
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "θ must be a distribution");
        }
        let sharp = topic_sharpness(&theta);
        assert!(sharp > 0.65, "topics should concentrate, sharpness {sharp}");
    }

    #[test]
    fn baseline_lda_is_a_function_of_its_seed() {
        let triples = synthetic_corpus(30, 40, 2, 25, 5);
        assert_eq!(triples, synthetic_corpus(30, 40, 2, 25, 5));
        for tuning in [
            LdaTuning::Vanilla,
            LdaTuning::JoinHint,
            LdaTuning::ForcedPersist,
            LdaTuning::HandCodedSampler,
        ] {
            let run = || {
                let eng = SparkLike::new(SparkConfig {
                    partitions: 2,
                    storage: StorageLevel::Serialized,
                    ..Default::default()
                });
                let mut lda =
                    BaselineLda::init(&eng, tuning, triples.clone(), 30, 40, 2, 0.1, 0.1, 9);
                for _ in 0..3 {
                    lda.iterate();
                }
                lda.theta().to_vec()
            };
            assert_eq!(run(), run(), "{tuning:?}: same seed, different θ");
        }
    }

    #[test]
    fn baseline_ladder_all_rungs_agree_statistically() {
        let triples = synthetic_corpus(30, 40, 2, 25, 5);
        for tuning in [
            LdaTuning::Vanilla,
            LdaTuning::JoinHint,
            LdaTuning::ForcedPersist,
            LdaTuning::HandCodedSampler,
        ] {
            let eng = SparkLike::new(SparkConfig {
                partitions: 2,
                storage: StorageLevel::Serialized,
                ..Default::default()
            });
            let mut lda = BaselineLda::init(&eng, tuning, triples.clone(), 30, 40, 2, 0.1, 0.1, 9);
            // 10 sweeps (not 6): the vendored RNG stream differs from
            // crates.io rand's, and the slowest rung needs the extra burn-in
            // to clear the sharpness bar.
            for _ in 0..10 {
                lda.iterate();
            }
            let theta: Vec<(i64, Vec<f64>)> = lda
                .theta()
                .iter()
                .cloned()
                .enumerate()
                .map(|(d, p)| (d as i64, p))
                .collect();
            let sharp = topic_sharpness(&theta);
            assert!(sharp > 0.7, "{tuning:?}: sharpness {sharp}");
        }
    }
}
