//! Gaussian mixture model learning via EM (§8.5.1).
//!
//! One `AggregateComp` per iteration carries the current model inside it
//! (as the paper's implementation does); the E-step computes log-space soft
//! assignments ("the standard log-space trick to avoid underflow"), the
//! M-step accumulates per-component responsibilities, weighted sums, and
//! weighted squared sums (diagonal covariance — a documented substitution
//! for the paper's GSL-backed dense covariance; the data flow is
//! identical).

use crate::kmeans::DataPoint;
use pc_baseline::{Rdd, SparkLike};
use pc_core::prelude::*;
use pc_object::PcValue;
use std::sync::Arc;

/// A diagonal-covariance Gaussian mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct GmmModel {
    pub weights: Vec<f64>,
    pub means: Vec<Vec<f64>>,
    pub vars: Vec<Vec<f64>>,
}

impl GmmModel {
    /// Initializes from the first `k` points (the shared "same random
    /// initialization" of §8.5.1).
    pub fn init(points: &[Vec<f64>], k: usize) -> Self {
        let d = points[0].len();
        GmmModel {
            weights: vec![1.0 / k as f64; k],
            means: points.iter().take(k).cloned().collect(),
            vars: vec![vec![1.0; d]; k],
        }
    }

    /// Log density of one component at `x`, up to the shared constant.
    fn log_comp(&self, k: usize, x: &[f64]) -> f64 {
        let mut acc = self.weights[k].max(1e-300).ln();
        for ((xi, mi), vi) in x.iter().zip(&self.means[k]).zip(&self.vars[k]) {
            let v = vi.max(1e-6);
            acc -= 0.5 * ((xi - mi) * (xi - mi) / v + v.ln());
        }
        acc
    }

    /// Soft assignment in log space: responsibilities of each component.
    pub fn responsibilities(&self, x: &[f64], out: &mut [f64]) {
        let mut mx = f64::NEG_INFINITY;
        for (c, o) in out.iter_mut().enumerate().take(self.weights.len()) {
            *o = self.log_comp(c, x);
            mx = mx.max(*o);
        }
        let mut sum = 0.0;
        for o in out.iter_mut() {
            *o = (*o - mx).exp();
            sum += *o;
        }
        for o in out.iter_mut() {
            *o /= sum;
        }
    }

    /// Applies accumulated sufficient statistics
    /// `[resp, sum(d), sumsq(d)]` per component.
    pub fn update(&mut self, stats: &[(usize, Vec<f64>)], total: f64) {
        let d = self.means[0].len();
        for (k, s) in stats {
            let nk = s[0];
            if nk <= 0.0 {
                continue;
            }
            self.weights[*k] = nk / total;
            for j in 0..d {
                let mean = s[1 + j] / nk;
                self.means[*k][j] = mean;
                self.vars[*k][j] = (s[1 + d + j] / nk - mean * mean).max(1e-6);
            }
        }
    }

    pub fn max_abs_diff(&self, other: &GmmModel) -> f64 {
        let mut m: f64 = 0.0;
        for (a, b) in self
            .means
            .iter()
            .flatten()
            .zip(other.means.iter().flatten())
        {
            m = m.max((a - b).abs());
        }
        for (a, b) in self.vars.iter().flatten().zip(other.vars.iter().flatten()) {
            m = m.max((a - b).abs());
        }
        m
    }
}

/// Accumulates per-point sufficient statistics into per-component packed
/// vectors `[resp, sum(d), sumsq(d)]`. All points contribute to all
/// components (soft assignment), so the flat-map key is the component id.
struct GmmAgg {
    model: Arc<GmmModel>,
}

pc_object! {
    /// One component's sufficient statistics after an iteration.
    pub struct GmmStat / GmmStatView {
        (component, set_component): i64,
        (stats, set_stats): Handle<PcVec<f64>>,
    }
}

impl AggregateSpec for GmmAgg {
    type In = DataPoint;
    type Key = i64;
    type Val = Handle<PcVec<f64>>;
    type Out = GmmStat;

    // Soft assignment: each record contributes to ONE key per call, so the
    // engine calls us once per (record, component) via key fan-out... PC's
    // AggregateComp maps each record to one key, so instead we fold the
    // whole per-record contribution into component `argmax` — no: we fold
    // into EVERY component by storing the full K×(1+2d) statistics under a
    // single key and updating all components per record. Key 0 = "the
    // model"; the value is the concatenated per-component stats, exactly
    // how the paper's single AggregateComp carries the whole update.
    fn key_of(&self, _rec: &Handle<DataPoint>) -> PcResult<i64> {
        Ok(0)
    }

    fn init(&self, b: &BlockRef, rec: &Handle<DataPoint>) -> PcResult<Handle<PcVec<f64>>> {
        let k = self.model.weights.len();
        let d = self.model.means[0].len();
        let v = b.make_object::<PcVec<f64>>()?;
        v.extend_zeroed(k * (1 + 2 * d))?;
        // fold the first record immediately
        let data = rec.v().data();
        fold_point(&self.model, data.as_slice(), v.as_mut_slice());
        Ok(v)
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<DataPoint>) -> PcResult<()> {
        let acc = <Handle<PcVec<f64>> as PcValue>::load(b, slot);
        let data = rec.v().data();
        fold_point(&self.model, data.as_slice(), acc.as_mut_slice());
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

    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<GmmStat>> {
        let acc = <Handle<PcVec<f64>> as PcValue>::load(b, slot);
        let out = make_object::<GmmStat>()?;
        out.v().set_component(*key)?;
        let v = make_object::<PcVec<f64>>()?;
        v.extend_from_slice(acc.as_slice())?;
        out.v().set_stats(v)?;
        Ok(out)
    }
}

/// Folds one point's soft-assigned statistics into the packed accumulator.
fn fold_point(model: &GmmModel, x: &[f64], acc: &mut [f64]) {
    let k = model.weights.len();
    let d = model.means[0].len();
    let mut resp = vec![0.0; k];
    model.responsibilities(x, &mut resp);
    for (c, r) in resp.iter().enumerate() {
        let base = c * (1 + 2 * d);
        acc[base] += r;
        for (j, xi) in x.iter().enumerate() {
            acc[base + 1 + j] += r * xi;
            acc[base + 1 + d + j] += r * xi * xi;
        }
    }
}

/// GMM/EM on PlinyCompute.
pub struct PcGmm {
    pub client: PcClient,
    pub db: String,
    pub set: String,
    pub model: GmmModel,
    n: usize,
}

impl PcGmm {
    pub fn init(
        client: &PcClient,
        db: &str,
        set: &str,
        points: &[Vec<f64>],
        k: usize,
    ) -> PcResult<Self> {
        client.create_or_clear_set(db, set)?;
        client.store(db, set, points.len(), |i| {
            let p = &points[i];
            let obj = make_object::<DataPoint>()?;
            let v = make_object::<PcVec<f64>>()?;
            v.extend_from_slice(p)?;
            obj.v().set_data(v)?;
            Ok(obj.erase())
        })?;
        Ok(PcGmm {
            client: client.clone(),
            db: db.to_string(),
            set: set.to_string(),
            model: GmmModel::init(points, k),
            n: points.len(),
        })
    }

    pub fn iterate(&mut self) -> PcResult<()> {
        let stats = self
            .client
            .set::<DataPoint>(&self.db, &self.set)
            .aggregate(GmmAgg {
                model: Arc::new(self.model.clone()),
            })
            .collect()?;
        // One packed stat object comes back; unpack per component.
        let k = self.model.weights.len();
        let d = self.model.means[0].len();
        for stat in stats {
            let sv = stat.v().stats();
            let s = sv.as_slice();
            let per: Vec<(usize, Vec<f64>)> = (0..k)
                .map(|c| (c, s[c * (1 + 2 * d)..(c + 1) * (1 + 2 * d)].to_vec()))
                .collect();
            self.model.update(&per, self.n as f64);
        }
        Ok(())
    }
}

/// The baseline (mllib-style) GMM over the RDD API.
pub struct BaselineGmm {
    pub points: Rdd<Vec<f64>>,
    pub model: GmmModel,
    n: usize,
}

impl BaselineGmm {
    pub fn init(eng: &SparkLike, points: Vec<Vec<f64>>, k: usize) -> Self {
        let model = GmmModel::init(&points, k);
        let n = points.len();
        BaselineGmm {
            points: eng.parallelize(points),
            model,
            n,
        }
    }

    pub fn iterate(&mut self) {
        let model = Arc::new(self.model.clone());
        let k = model.weights.len();
        let d = model.means[0].len();
        let stats: Rdd<(i64, Vec<f64>)> = self.points.map_partitions(move |part| {
            let mut acc = vec![0.0; k * (1 + 2 * d)];
            for x in &part {
                fold_point(&model, x, &mut acc);
            }
            vec![(0i64, acc)]
        });
        let reduced = stats.reduce_by_key(|mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        });
        for (_, s) in reduced.collect() {
            let per: Vec<(usize, Vec<f64>)> = (0..k)
                .map(|c| (c, s[c * (1 + 2 * d)..(c + 1) * (1 + 2 * d)].to_vec()))
                .collect();
            self.model.update(&per, self.n as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::synthetic_points;
    use pc_baseline::{SparkConfig, StorageLevel};

    #[test]
    fn pc_and_baseline_gmm_learn_identically() {
        let pts = synthetic_points(200, 3, 2, 5);
        let client = PcClient::local_small().unwrap();
        let mut pc = PcGmm::init(&client, "ml", "gmmpts", &pts, 2).unwrap();
        let eng = SparkLike::new(SparkConfig {
            partitions: 2,
            storage: StorageLevel::Serialized,
            ..Default::default()
        });
        let mut base = BaselineGmm::init(&eng, pts, 2);
        for _ in 0..4 {
            pc.iterate().unwrap();
            base.iterate();
        }
        assert!(
            pc.model.max_abs_diff(&base.model) < 1e-9,
            "diff {}",
            pc.model.max_abs_diff(&base.model)
        );
        // Components must have separated onto the two clusters.
        assert!(pc.model.means[0] != pc.model.means[1]);
    }
}
