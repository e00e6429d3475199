//! `linalg_gram` (paper §8.2 / Table 2): lilLinAlg `X '* X` on a
//! row-blocked `DistMatrix`. `lillinalg::kernels` do nearly all the work
//! and the engine moves a handful of pages, so a kernel change shows here
//! and nowhere else, and an engine change shows everywhere else.

use super::{cluster_config, library_job, Counters, Env, SplitMix64, Workload};
use crate::trace::Tracer;
use lillinalg::matrix::make_matrix_block;
use lillinalg::{kernels, DenseMatrix, DistMatrix};
use pc_baseline::{Rdd, SparkConfig, SparkLike};
use pc_core::prelude::*;
use std::time::Instant;

pub const ROWS: usize = 2_048;
pub const COLS: usize = 512;
const BLOCK_ROWS: usize = 256;
const PAGE_SIZE: usize = 1 << 20;
const DB: &str = "la";

pub fn generate(seed: u64) -> DenseMatrix {
    let mut rng = SplitMix64(seed);
    DenseMatrix {
        rows: ROWS,
        cols: COLS,
        data: (0..ROWS * COLS).map(|_| rng.centered_f64()).collect(),
    }
}

/// `XᵀX` straight through the single-thread kernel: the reference result,
/// and (timed) the `lillinalg.kernel_s` probe.
pub fn kernel_gram(x: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(x.cols, x.cols);
    kernels::matmul_at_b(&x.data, &x.data, &mut out.data, x.rows, x.cols, x.cols);
    out
}

pub struct Gram {
    client: PcClient,
    x: DenseMatrix,
    dist: DistMatrix,
    reference: DenseMatrix,
    result: Option<DistMatrix>,
    baseline: Option<Rdd<Vec<f64>>>,
}

impl Gram {
    pub fn setup(env: Env) -> PcResult<Self> {
        let x = generate(env.seed);
        let client = PcClient::connect(cluster_config(1, env.threads, PAGE_SIZE))?;
        let dist = DistMatrix::from_dense(&client, DB, "x", &x, BLOCK_ROWS, COLS)?;
        Ok(Gram {
            reference: kernel_gram(&x),
            client,
            x,
            dist,
            result: None,
            baseline: None,
        })
    }
}

impl Workload for Gram {
    fn rows(&self) -> u64 {
        ROWS as u64
    }

    fn client(&self) -> &PcClient {
        &self.client
    }

    fn job(&mut self, tr: &mut Tracer) -> Result<Counters, String> {
        let dist = &self.dist;
        let mut result = None;
        let counters = library_job(&self.client, tr, |tr| {
            result = Some(tr.span("lillinalg.transpose_multiply", |_| {
                dist.transpose_multiply(dist)
            })?);
            Ok(())
        })?;
        self.result = result;
        Ok(counters)
    }

    /// Compares against the kernel result, then drops the job's output set:
    /// every `transpose_multiply` writes a fresh one, and leaving them would
    /// grow memory job after job.
    fn check(&mut self) -> Result<(), String> {
        let result = self.result.take().ok_or("no result to check")?;
        let got = result.to_dense().map_err(|e| e.to_string())?;
        self.client
            .drop_set(&result.db, &result.set)
            .map_err(|e| e.to_string())?;
        let diff = got.max_abs_diff(&self.reference);
        let tolerance = 1e-8 * ROWS as f64;
        if (got.rows, got.cols) != (COLS, COLS) || diff.is_nan() || diff > tolerance {
            return Err(format!(
                "{}x{} result, max |diff| {diff} vs kernel reference (tolerance {tolerance})",
                got.rows, got.cols
            ));
        }
        Ok(())
    }

    fn build_pages(&self) -> PcResult<(u64, Vec<SealedPage>)> {
        let mut w = SetWriter::new(PAGE_SIZE);
        for (i, block) in self.x.data.chunks(BLOCK_ROWS * COLS).enumerate() {
            w.write_with(|| {
                Ok(make_matrix_block(i as i64, 0, block.len() / COLS, COLS, block)?.erase())
            })?;
        }
        Ok((ROWS as u64, w.finish()?))
    }

    /// The same product through the single-thread kernel alone: what is
    /// left of the job once the engine is taken away.
    fn layer_probe(&mut self, _tr: &mut Tracer) -> Result<Counters, String> {
        let t = Instant::now();
        std::hint::black_box(kernel_gram(std::hint::black_box(&self.x)));
        let secs = t.elapsed().as_secs_f64();
        let flop = 2.0 * (ROWS * COLS * COLS) as f64;
        Ok(vec![
            ("lillinalg.kernel_s", secs),
            ("lillinalg.kernel_gflops", flop / 1e9 / secs),
        ])
    }

    /// Table 2's row-RDD ("mllib") Gram: per-partition partial `dᵀd` sums,
    /// then a driver-side reduce.
    fn baseline_job(&mut self) -> Option<Result<(), String>> {
        let rows = self.baseline.get_or_insert_with(|| {
            SparkLike::new(SparkConfig::default())
                .parallelize(self.x.data.chunks(COLS).map(<[f64]>::to_vec).collect())
        });
        let gram = rows
            .map_partitions(|part| {
                let mut acc = vec![0.0; COLS * COLS];
                for r in &part {
                    kernels::matmul_at_b(r, r, &mut acc, 1, COLS, COLS);
                }
                vec![acc]
            })
            .reduce(|mut a, b| {
                a.iter_mut().zip(&b).for_each(|(x, y)| *x += y);
                a
            });
        Some(match gram {
            Some(g) if g.len() == COLS * COLS => Ok(()),
            _ => Err("baseline Gram has the wrong shape".into()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::digest;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let d = |seed| digest(generate(seed).data.iter().map(|v| v.to_bits()));
        assert_eq!(d(42), d(42));
        assert_ne!(d(42), d(43));
    }
}
