//! `rel_inmem`, `rel_spill`, `rel_shuffle_tcp`: one query (`build ⋈ dim` on
//! key → `aggregate(sum, count)` → `write_to`), one dataset, one page size.
//! The variants differ in exactly one setting each, so a number that moves
//! on one and not on the others names the layer that moved it.

use super::{
    cluster_config, counter, counters_of, gate_no_spill, leaked_spill_files, plan_phases,
    reserved_bytes, rows_to_pages, BenchRow, Counters, Env, SplitMix64, Workload,
};
use crate::trace::Tracer;
use pc_cluster::{TcpConfig, TransportKind};
use pc_core::prelude::*;
use std::collections::HashMap;

/// Build-side rows; every key appears `BUILD_ROWS / KEYS` times.
pub const BUILD_ROWS: usize = 60_000;
/// Distinct keys = dim-side rows (one per key).
pub const KEYS: usize = 30_000;
/// `ExecConfig`'s default page size. Larger pages mean fewer, larger spill
/// files for the same bytes; creating a file costs 0.3–0.6 ms on the
/// measuring host's disk and that cost varies run to run, so a spill path made of
/// hundreds of small files measures the disk, not the engine.
const PAGE_SIZE: usize = 1 << 20;
/// `rel_spill`'s pool: two pages, against ~5 MB of input and a ~12 MB join
/// table, so the build side spills whole and the probe re-runs in ~28
/// budget-sized waves. (A tenth of the data floored at 8 pages, the issue's
/// formula, is larger than everything at this row count and never spills.)
const SPILL_POOL: usize = 2 * PAGE_SIZE;
const DB: &str = "rel";
const OUT: &str = "out";

#[derive(Clone, Copy, PartialEq)]
pub enum Variant {
    /// 1 worker, `Local`, pool 1 GiB: kernels do all the work.
    InMem,
    /// Identical, but the pool holds two pages.
    Spill,
    /// Identical, but 2 workers × 1 thread over loopback TCP.
    ShuffleTcp,
}

pc_object! {
    /// One output group: the key, Σ(a.val + b.val) and the row count.
    pub struct KeySum / KeySumView {
        (key, set_key): i64,
        (sum, set_sum): i64,
        (count, set_count): i64,
    }
}

struct SumCount;

impl AggregateSpec for SumCount {
    type In = BenchRow;
    type Key = i64;
    type Val = (i64, i64);
    type Out = KeySum;

    fn key_of(&self, rec: &Handle<BenchRow>) -> PcResult<i64> {
        Ok(rec.v().key())
    }

    fn init(&self, _b: &BlockRef, rec: &Handle<BenchRow>) -> PcResult<(i64, i64)> {
        Ok((rec.v().val(), 1))
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<BenchRow>) -> PcResult<()> {
        let (sum, count): (i64, i64) = b.read(slot);
        b.write(slot, (sum + rec.v().val(), count + 1));
        Ok(())
    }

    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()> {
        let (s1, c1): (i64, i64) = dst.read(dst_slot);
        let (s2, c2): (i64, i64) = src.read(src_slot);
        dst.write(dst_slot, (s1 + s2, c1 + c2));
        Ok(())
    }

    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<KeySum>> {
        let (sum, count): (i64, i64) = b.read(slot);
        let out = make_object::<KeySum>()?;
        out.v().set_key(*key)?;
        out.v().set_sum(sum)?;
        out.v().set_count(count)?;
        Ok(out)
    }
}

/// The generated inputs: `(key, val)` rows of both sides.
pub struct RelData {
    pub build: Vec<(i64, i64)>,
    pub dim: Vec<(i64, i64)>,
}

pub fn generate(seed: u64, build_rows: usize, keys: usize) -> RelData {
    let mut rng = SplitMix64(seed);
    let offset = rng.below(keys as u64) as usize;
    RelData {
        // A stride walk over the key space: every key is hit equally often
        // in an order that defeats locality, whatever the seed.
        build: (0..build_rows)
            .map(|i| (((i * 997 + offset) % keys) as i64, rng.below(1000) as i64))
            .collect(),
        dim: (0..keys)
            .map(|k| (k as i64, rng.below(1000) as i64))
            .collect(),
    }
}

/// `(groups, Σkey, Σsum, Σcount)` of the query's output.
type Summary = (usize, i64, i64, i64);

/// The reference computation: a `HashMap` fold of the generated inputs.
pub fn reference(data: &RelData) -> Summary {
    let dim: HashMap<i64, i64> = data.dim.iter().copied().collect();
    let mut groups: HashMap<i64, (i64, i64)> = HashMap::new();
    for (key, val) in &data.build {
        if let Some(d) = dim.get(key) {
            let g = groups.entry(*key).or_default();
            g.0 += val + d;
            g.1 += 1;
        }
    }
    groups
        .iter()
        .fold((groups.len(), 0, 0, 0), |acc, (k, (s, c))| {
            (acc.0, acc.1 + k, acc.2 + s, acc.3 + c)
        })
}

pub struct Rel {
    variant: Variant,
    client: PcClient,
    sink: Sink,
    data: RelData,
    expected: Summary,
    dataset_bytes: u64,
}

impl Rel {
    pub fn setup(env: Env, variant: Variant) -> PcResult<Self> {
        let data = generate(env.seed, BUILD_ROWS, KEYS);
        let expected = reference(&data);
        let build_pages = rows_to_pages(PAGE_SIZE, &data.build)?;
        let dim_pages = rows_to_pages(PAGE_SIZE, &data.dim)?;
        let dataset_bytes: u64 = build_pages
            .iter()
            .chain(&dim_pages)
            .map(|p| p.used() as u64)
            .sum();

        let (workers, threads, transport) = match variant {
            Variant::ShuffleTcp => (2, 1, TransportKind::Tcp(TcpConfig::default())),
            _ => (1, env.threads, TransportKind::Local),
        };
        let pool_capacity = match variant {
            Variant::Spill => SPILL_POOL,
            _ => 1 << 30,
        };
        let client = PcClient::connect(ClusterConfig {
            transport,
            pool_capacity,
            ..cluster_config(workers, threads, PAGE_SIZE)
        })?;
        for (set, pages) in [("build", build_pages), ("dim", dim_pages)] {
            client.create_or_clear_set(DB, set)?;
            client.cluster().send_pages(DB, set, pages)?;
        }

        let key_of = |r: Var<BenchRow>| r.member("key", |r| r.v().key());
        let sink = client
            .set::<BenchRow>(DB, "build")
            .join(
                &client.set::<BenchRow>(DB, "dim"),
                move |a, b| key_of(a).eq(key_of(b)),
                "sumPair",
                |a, b| {
                    let p = make_object::<BenchRow>()?;
                    p.v().set_key(a.v().key())?;
                    p.v().set_val(a.v().val() + b.v().val())?;
                    Ok(p)
                },
            )
            .aggregate(SumCount)
            .write_to(DB, OUT);
        Ok(Rel {
            variant,
            client,
            sink,
            data,
            expected,
            dataset_bytes,
        })
    }

    /// `Job::run` split at its public phase boundaries.
    fn traced_job(&self, tr: &mut Tracer) -> PcResult<(ClusterStats, Counters)> {
        tr.span("job", |tr| {
            tr.span("core.clear", |_| self.client.create_or_clear_set(DB, OUT))?;
            let p = plan_phases(tr, &Job::new().add(self.sink.clone()))?;
            let stats = tr.span("cluster.run", |_| {
                let cluster = self.client.cluster();
                cluster.run_physical(&p.physical, &p.query.stages, &p.query.aggs)
            })?;
            Ok((stats, p.counts))
        })
    }
}

impl Workload for Rel {
    fn rows(&self) -> u64 {
        (BUILD_ROWS + KEYS) as u64
    }

    fn client(&self) -> &PcClient {
        &self.client
    }

    fn job(&mut self, tr: &mut Tracer) -> Result<Counters, String> {
        let (stats, mut counters) = if tr.enabled() {
            self.traced_job(tr)
        } else {
            self.sink.run(&self.client).map(|s| (s, Vec::new()))
        }
        .map_err(|e| e.to_string())?;
        counters.extend(counters_of(&stats, self.client.cluster()));
        Ok(counters)
    }

    fn check(&mut self) -> Result<(), String> {
        let rows = self
            .client
            .iterate_set::<KeySum>(DB, OUT)
            .map_err(|e| e.to_string())?;
        let got = rows.iter().fold((rows.len(), 0, 0, 0), |acc, r| {
            let r = r.v();
            (acc.0, acc.1 + r.key(), acc.2 + r.sum(), acc.3 + r.count())
        });
        if got != self.expected {
            return Err(format!(
                "(groups, Σkey, Σsum, Σcount) = {got:?}, reference {:?}",
                self.expected
            ));
        }
        Ok(())
    }

    fn gate(&self, c: &Counters) -> Result<(), String> {
        let get = |name| counter(c, name).unwrap_or(0.0);
        match self.variant {
            Variant::InMem => gate_no_spill(c),
            Variant::Spill => {
                let cluster = self.client.cluster();
                let spilled = get("exec.join_bytes_spilled")
                    + get("exec.agg_bytes_spilled")
                    + get("storage.pool_spills");
                if spilled == 0.0 {
                    return Err(
                        "spills: the pool never spilled, the out-of-core path is cold".into(),
                    );
                }
                match (leaked_spill_files(cluster), reserved_bytes(cluster)) {
                    (0, 0) => Ok(()),
                    (leaked, reserved) => Err(format!(
                        "spill_cleanup: {leaked} spill file(s) leaked, {reserved} byte(s) still reserved"
                    )),
                }
            }
            Variant::ShuffleTcp => {
                gate_no_spill(c)?;
                if get("cluster.bytes_shuffled") < self.dataset_bytes as f64 {
                    return Err(format!(
                        "crosses_wire: {} bytes shuffled < {} dataset bytes",
                        get("cluster.bytes_shuffled"),
                        self.dataset_bytes
                    ));
                }
                match get("cluster.stages_replayed") {
                    0.0 => Ok(()),
                    n => Err(format!("no_replay: {n} stage(s) replayed")),
                }
            }
        }
    }

    /// With everything resident no spill decision depends on timing, so
    /// the work counts are a pure function of the inputs.
    fn exact_counters(&self) -> &'static [&'static str] {
        match self.variant {
            Variant::InMem => &[
                "exec.rows_in",
                "exec.rows_out",
                "exec.batches",
                "exec.pages_written",
                "exec.rows_probed",
                "exec.join_matches",
                "exec.build_pages_sealed",
                "exec.rows_aggregated",
                "exec.map_pages_sealed",
            ],
            _ => &[],
        }
    }

    fn build_pages(&self) -> PcResult<(u64, Vec<SealedPage>)> {
        let mut pages = rows_to_pages(PAGE_SIZE, &self.data.build)?;
        pages.extend(rows_to_pages(PAGE_SIZE, &self.data.dim)?);
        Ok((self.rows(), pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::digest;

    fn input_digest(seed: u64) -> u64 {
        let d = generate(seed, 500, 100);
        digest(
            d.build
                .iter()
                .chain(&d.dim)
                .flat_map(|(k, v)| [*k as u64, *v as u64]),
        )
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(input_digest(42), input_digest(42));
        assert_ne!(input_digest(42), input_digest(43));
    }

    #[test]
    fn every_key_is_hit_equally_and_the_reference_counts_every_build_row() {
        let d = generate(9, 400, 100);
        let (groups, key_sum, _, count) = reference(&d);
        assert_eq!(groups, 100);
        assert_eq!(key_sum, (0..100).sum::<i64>());
        assert_eq!(count, 400);
    }
}
