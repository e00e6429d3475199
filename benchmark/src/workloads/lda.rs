//! `lda_iter` (paper §8.4 / Table 4): one `PcLda::iterate` per job — a
//! three-way join and two aggregations, i.e. several small multi-stage jobs.
//! It has the most jobs and stages per second of any workload, so fixed
//! per-job cost (`lambda` compile, `tcap` optimize/verify, `exec` plan,
//! per-stage thread spawn, tmp-set clearing) has its largest share here and
//! next to none in `rel_*`.

use super::{cluster_config, library_job, plan_phases, Counters, Env, Workload};
use crate::trace::Tracer;
use pc_baseline::{SparkConfig, SparkLike};
use pc_core::prelude::*;
use pc_ml::lda::{
    synthetic_corpus, Assignment, BaselineLda, DocProbs, LdaTuning, PcLda, Triple, WordProbs,
};

pub const DOCS: usize = 400;
pub const VOCAB: usize = 1_000;
pub const TOPICS: usize = 10;
pub const WORDS_PER_DOC: usize = 100;
const TRUE_TOPICS: usize = 4;
const PRIOR: f64 = 0.1;
const PAGE_SIZE: usize = 256 << 10;
const DB: &str = "lda";

/// `(doc, word, count)` triples, sorted: `synthetic_corpus` drains a
/// `HashMap`, whose order changes from process to process.
pub fn generate(seed: u64) -> Vec<(i64, i64, i64)> {
    let mut triples = synthetic_corpus(DOCS, VOCAB, TRUE_TOPICS, WORDS_PER_DOC, seed);
    triples.sort_unstable();
    triples
}

pub struct Lda {
    client: PcClient,
    seed: u64,
    triples: Vec<(i64, i64, i64)>,
    lda: PcLda,
    baseline: Option<BaselineLda>,
}

impl Lda {
    pub fn setup(env: Env) -> PcResult<Self> {
        let triples = generate(env.seed);
        let client = PcClient::connect(cluster_config(1, env.threads, PAGE_SIZE))?;
        let lda = PcLda::init(
            &client, DB, &triples, DOCS, VOCAB, TOPICS, PRIOR, PRIOR, env.seed,
        )?;
        Ok(Lda {
            client,
            seed: env.seed,
            triples,
            lda,
            baseline: None,
        })
    }
}

impl Workload for Lda {
    fn rows(&self) -> u64 {
        (DOCS * WORDS_PER_DOC) as u64
    }

    fn client(&self) -> &PcClient {
        &self.client
    }

    fn job(&mut self, tr: &mut Tracer) -> Result<Counters, String> {
        let lda = &mut self.lda;
        library_job(&self.client, tr, |tr| {
            tr.span("ml.lda_iterate", |_| lda.iterate())
        })
    }

    /// Every θ row is a distribution, and the sampled topic assignments
    /// conserve the corpus's token total.
    fn check(&mut self) -> Result<(), String> {
        let theta = self.lda.theta().map_err(|e| e.to_string())?;
        if theta.len() != DOCS {
            return Err(format!("θ has {} rows, expected {DOCS}", theta.len()));
        }
        if let Some((doc, row)) = theta
            .iter()
            .find(|(_, p)| p.len() != TOPICS || (p.iter().sum::<f64>() - 1.0).abs() > 1e-9)
        {
            return Err(format!(
                "θ[{doc}] is not a distribution over {TOPICS} topics: {row:?}"
            ));
        }
        let assigned: f64 = self
            .client
            .iterate_set::<Assignment>(DB, "assignments")
            .map_err(|e| e.to_string())?
            .iter()
            .map(|a| a.v().counts().as_slice().iter().sum::<f64>())
            .sum();
        let tokens = self.rows() as f64;
        if assigned != tokens {
            return Err(format!(
                "{assigned} tokens assigned to topics, corpus has {tokens}"
            ));
        }
        Ok(())
    }

    fn build_pages(&self) -> PcResult<(u64, Vec<SealedPage>)> {
        let mut w = SetWriter::new(PAGE_SIZE);
        for &(doc, word, count) in &self.triples {
            w.write_with(|| {
                let t = make_object::<Triple>()?;
                t.v().set_doc(doc)?;
                t.v().set_word(word)?;
                t.v().set_count(count)?;
                Ok(t.erase())
            })?;
        }
        Ok((self.triples.len() as u64, w.finish()?))
    }

    /// The fully tuned rung of Table 4's baseline ladder (broadcast-join
    /// hint, forced persist, hand-coded sampler): the fairest opponent.
    fn baseline_job(&mut self) -> Option<Result<(), String>> {
        let lda = self.baseline.get_or_insert_with(|| {
            BaselineLda::init(
                &SparkLike::new(SparkConfig::default()),
                LdaTuning::HandCodedSampler,
                self.triples.clone(),
                DOCS,
                VOCAB,
                TOPICS,
                PRIOR,
                PRIOR,
                self.seed,
            )
        });
        lda.iterate();
        Some(if lda.theta().len() == DOCS {
            Ok(())
        } else {
            Err("baseline LDA lost θ rows".into())
        })
    }

    /// `PcLda::iterate` builds its jobs internally, so their compile →
    /// optimize → verify → plan phases cannot be timed from outside. This
    /// replays those phases, without executing, on a job of the same shape
    /// as the iteration's largest one (the `join3` that samples topic
    /// assignments), built here from the library's public record types.
    fn layer_probe(&mut self, tr: &mut Tracer) -> Result<Counters, String> {
        let triples = self.client.set::<Triple>(DB, "triples");
        let theta = self.client.set::<DocProbs>(DB, "theta");
        let phi = self.client.set::<WordProbs>(DB, "phi_by_word");
        let sink = triples
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
                |t, _theta, phi| {
                    let a = make_object::<Assignment>()?;
                    a.v().set_doc(t.v().doc())?;
                    a.v().set_word(t.v().word())?;
                    a.v().set_counts(phi.v().probs())?;
                    Ok(a)
                },
            )
            .write_to(DB, "probe_assignments");
        let job = Job::new().add(sink);
        tr.span("compile_probe", |tr| plan_phases(tr, &job))
            .map(|p| p.counts)
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::digest;

    fn input_digest(seed: u64) -> u64 {
        digest(
            generate(seed)
                .iter()
                .flat_map(|(d, w, c)| [*d as u64, *w as u64, *c as u64]),
        )
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(input_digest(42), input_digest(42));
        assert_ne!(input_digest(42), input_digest(43));
    }

    #[test]
    fn corpus_has_the_stated_token_total() {
        let tokens: i64 = generate(5).iter().map(|t| t.2).sum();
        assert_eq!(tokens as usize, DOCS * WORDS_PER_DOC);
    }
}
