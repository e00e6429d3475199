//! Table generators (Tables 1–8 of §8).

use crate::util::{fmt_dur, row, time_once};
use lillinalg::{kernels, DenseMatrix, DistMatrix, LilLinAlg};
use pc_baseline::{Rdd, SparkConfig, SparkLike, StorageLevel};
use pc_core::prelude::*;
use pc_ml::gmm::{BaselineGmm, PcGmm};
use pc_ml::kmeans::{synthetic_points, BaselineKMeans, PcKMeans};
use pc_ml::lda::{synthetic_corpus, BaselineLda, LdaTuning, PcLda};
use pc_tpch::gen::{generate, unique_parts, TpchConfig};
use pc_tpch::{baseline_impl, pc_impl};
use rand::{RngExt, SeedableRng};
use std::time::Duration;

fn bench_client() -> PcClient {
    PcClient::connect(ClusterConfig {
        workers: 2,
        exec: ExecConfig {
            batch_size: 1024,
            page_size: 1 << 20,
            partitions: 4,
            ..ExecConfig::default()
        },
        ..ClusterConfig::default()
    })
    .expect("cluster boot")
}

fn spark(storage: StorageLevel) -> SparkLike {
    SparkLike::new(SparkConfig {
        partitions: 4,
        storage,
        ..Default::default()
    })
}

/// Table 1: the baseline configurations each experiment runs with (the
/// paper's workload-specific Spark configurations).
pub fn table1() {
    println!("Table 1: workload-specific baseline configurations");
    let w = [14usize, 12, 14, 14, 14];
    row(
        &[
            "workload".into(),
            "partitions".into(),
            "storage".into(),
            "join hint".into(),
            "persist".into(),
        ],
        &w,
    );
    for (name, parts, storage, hint, persist) in [
        ("lilLinAlg", 4, "serialized", "auto", "no"),
        ("TPC-H", 4, "serialized/RAM", "-", "no"),
        ("LDA", 4, "serialized", "ladder", "ladder"),
        ("GMM", 4, "serialized", "-", "no"),
        ("k-means", 4, "serialized", "-", "no"),
    ] {
        row(
            &[
                name.into(),
                parts.to_string(),
                storage.into(),
                hint.into(),
                persist.into(),
            ],
            &w,
        );
    }
}

fn rand_dense(r: usize, c: usize, seed: u64) -> DenseMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    DenseMatrix {
        rows: r,
        cols: c,
        data: (0..r * c).map(|_| rng.random::<f64>() - 0.5).collect(),
    }
}

/// Gram matrix on the row-RDD baseline (mllib-like): per-partition partial
/// dᵀd sums, then a driver reduce.
fn baseline_gram(eng: &SparkLike, rows: &Rdd<Vec<f64>>, d: usize) -> Vec<f64> {
    let partials = rows.map_partitions(move |part| {
        let mut acc = vec![0.0; d * d];
        for r in &part {
            for i in 0..d {
                let ri = r[i];
                for j in 0..d {
                    acc[i * d + j] += ri * r[j];
                }
            }
        }
        vec![acc]
    });
    let _ = eng;
    partials
        .reduce(|mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        })
        .unwrap_or_else(|| vec![0.0; d * d])
}

/// Panics unless `got` equals `want` element-wise within `tol` (a NaN
/// anywhere fails).
fn assert_close(what: &str, got: &[f64], want: &[f64], tol: f64) {
    assert_eq!(got.len(), want.len(), "{what}: lengths differ");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= tol,
            "{what}: element {i} is {g}, the reference {w} (tolerance {tol})"
        );
    }
}

/// Table 2: distributed linear algebra (Gram, least squares, nearest
/// neighbor) across dimensionalities, on four systems:
/// PC(lilLinAlg), a row-RDD baseline ("mllib"), a single-machine dense
/// solver ("SystemML local mode"), and a chunked+codec engine ("SciDB").
pub fn table2(quick: bool) {
    println!("Table 2: linear algebra benchmark (lower is better)");
    let dims: &[(usize, usize)] = if quick {
        &[(10, 4000), (100, 2000)]
    } else {
        &[(10, 20000), (100, 8000), (1000, 2000)]
    };
    let w = [10usize, 6, 14, 14, 16, 14];
    row(
        &[
            "task".into(),
            "dim".into(),
            "PC(lilLinAlg)".into(),
            "row-RDD".into(),
            "local(SystemML)".into(),
            "chunk(SciDB)".into(),
        ],
        &w,
    );
    for &(d, n) in dims {
        let x = rand_dense(n, d, 7);
        let beta_true =
            DenseMatrix::from_rows((0..d).map(|i| vec![(i % 5) as f64 - 2.0]).collect());
        let y = x.matmul(&beta_true);
        let client = bench_client();
        let block_rows = (n / 8).max(64);
        let dx = DistMatrix::from_dense(&client, "la", "x", &x, block_rows, d).unwrap();
        let dy = DistMatrix::from_dense(&client, "la", "y", &y, block_rows, 1).unwrap();

        let eng = spark(StorageLevel::Serialized);
        let rows_rdd: Rdd<Vec<f64>> = eng.parallelize(
            (0..n)
                .map(|i| x.data[i * d..(i + 1) * d].to_vec())
                .collect(),
        );
        let xy: Rdd<(Vec<f64>, f64)> = eng.parallelize(
            (0..n)
                .map(|i| (x.data[i * d..(i + 1) * d].to_vec(), y.data[i]))
                .collect(),
        );
        // Chunked ("SciDB"): blocks of 512 rows, codec at every boundary.
        let chunked: Rdd<Vec<f64>> = eng.parallelize(
            x.data
                .chunks(512 * d)
                .map(|c| c.to_vec())
                .collect::<Vec<Vec<f64>>>(),
        );

        // ---- Gram matrix ----
        let (pc, t_pc) = time_once(|| dx.transpose_multiply(&dx).unwrap());
        let (rdd, t_rdd) = time_once(|| baseline_gram(&eng, &rows_rdd, d));
        let (local, t_local) = time_once(|| {
            let mut acc = vec![0.0; d * d];
            kernels::matmul_at_b(&x.data, &x.data, &mut acc, n, d, d);
            acc
        });
        let (chunk, t_chunk) = time_once(|| {
            chunked
                .map(move |block| {
                    let rows = block.len() / d;
                    let mut acc = vec![0.0; d * d];
                    kernels::matmul_at_b(&block, &block, &mut acc, rows, d, d);
                    acc
                })
                .reduce(|mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                })
        });
        let tol = 1e-8 * n as f64;
        let pc = pc.to_dense().unwrap().data;
        assert_close(&format!("gram d={d}: PC"), &pc, &local, tol);
        assert_close(&format!("gram d={d}: row-RDD"), &rdd, &local, tol);
        let chunk = chunk.expect("chunked Gram has partitions");
        assert_close(&format!("gram d={d}: chunked"), &chunk, &local, tol);
        row(
            &[
                "gram".into(),
                d.to_string(),
                fmt_dur(t_pc),
                fmt_dur(t_rdd),
                fmt_dur(t_local),
                fmt_dur(t_chunk),
            ],
            &w,
        );

        // ---- least squares ----
        let mut la = LilLinAlg::new(client.clone());
        la.load("X", dx.clone());
        la.load("y", dy.clone());
        let (_, t_pc) = time_once(|| la.run("beta = (X '* X)^-1 %*% (X '* y)").unwrap());
        let (rdd, t_rdd) = time_once(|| {
            let g = baseline_gram(&eng, &rows_rdd, d);
            let xty = xy
                .map_partitions(move |part| {
                    let mut acc = vec![0.0; d];
                    for (r, yv) in &part {
                        for (a, x) in acc.iter_mut().zip(r) {
                            *a += x * yv;
                        }
                    }
                    vec![acc]
                })
                .reduce(|mut a, b| {
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                })
                .unwrap();
            let gram = DenseMatrix {
                rows: d,
                cols: d,
                data: g,
            };
            let inv = gram.inverse().unwrap();
            inv.matmul(&DenseMatrix {
                rows: d,
                cols: 1,
                data: xty,
            })
        });
        let (local, t_local) = time_once(|| {
            let mut g = vec![0.0; d * d];
            kernels::matmul_at_b(&x.data, &x.data, &mut g, n, d, d);
            let mut xty = vec![0.0; d];
            kernels::matmul_at_b(&x.data, &y.data, &mut xty, n, d, 1);
            DenseMatrix {
                rows: d,
                cols: d,
                data: g,
            }
            .inverse()
            .unwrap()
            .matmul(&DenseMatrix {
                rows: d,
                cols: 1,
                data: xty,
            })
        });
        let pc = la.get("beta").expect("beta assigned").to_dense().unwrap();
        assert_close(&format!("linreg d={d}: PC"), &pc.data, &local.data, 1e-6);
        assert_close(
            &format!("linreg d={d}: row-RDD"),
            &rdd.data,
            &local.data,
            1e-6,
        );
        row(
            &[
                "linreg".into(),
                d.to_string(),
                fmt_dur(t_pc),
                fmt_dur(t_rdd),
                fmt_dur(t_local),
                "-".into(),
            ],
            &w,
        );

        // ---- nearest neighbor (Euclidean metric: A = I) ----
        let query: Vec<f64> = x.data[0..d].to_vec();
        let q1 = query.clone();
        let ((pc, _), t_pc) = time_once(|| {
            // Distributed scan over MatrixBlocks: min distance per chunk,
            // then a driver min — the scan shape lilLinAlg compiles to.
            let blocks = client
                .iterate_set::<lillinalg::MatrixBlock>("la", "x")
                .unwrap();
            let mut best = (f64::INFINITY, 0i64);
            for b in blocks {
                let h = b.v().height() as usize;
                let wd = b.v().width() as usize;
                let vals = b.v().values();
                let s = vals.as_slice();
                for r in 0..h {
                    let dist: f64 = s[r * wd..(r + 1) * wd]
                        .iter()
                        .zip(&q1)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum();
                    if dist < best.0 {
                        best = (dist, b.v().chunk_row() * block_rows as i64 + r as i64);
                    }
                }
            }
            best
        });
        let q2 = query.clone();
        let (rdd, t_rdd) = time_once(|| {
            rows_rdd
                .map_partitions(move |part| {
                    let mut best = f64::INFINITY;
                    for r in &part {
                        let dist: f64 = r.iter().zip(&q2).map(|(a, b)| (a - b) * (a - b)).sum();
                        best = best.min(dist);
                    }
                    vec![best]
                })
                .reduce(f64::min)
        });
        let q3 = query.clone();
        let (local, t_local) = time_once(|| {
            let mut best = f64::INFINITY;
            for i in 0..n {
                let dist: f64 = x.data[i * d..(i + 1) * d]
                    .iter()
                    .zip(&q3)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                best = best.min(dist);
            }
            best
        });
        assert_eq!(pc, local, "nn d={d}: PC and local minimum distances differ");
        assert_eq!(
            rdd,
            Some(local),
            "nn d={d}: row-RDD and local minimum distances differ"
        );
        row(
            &[
                "nn".into(),
                d.to_string(),
                fmt_dur(t_pc),
                fmt_dur(t_rdd),
                fmt_dur(t_local),
                "-".into(),
            ],
            &w,
        );
    }
}

/// Panics unless PC's top-k names the baseline's customers in the same
/// order with similarities within 1e-9 (PC ships them as fixed-point).
fn assert_same_top_k(pc: &[(f64, i64)], base: &[(f64, i64)], n: usize) {
    let ids = |v: &[(f64, i64)]| v.iter().map(|&(_, id)| id).collect::<Vec<_>>();
    assert_eq!(ids(pc), ids(base), "top-k at {n} customers: ids differ");
    for (&(p, id), &(b, _)) in pc.iter().zip(base) {
        assert!(
            (p - b).abs() <= 1e-9,
            "top-k at {n} customers: customer {id} scores {p} in PC, {b} in the baseline"
        );
    }
}

/// Table 3: denormalized TPC-H, PC hot storage vs baseline hot-serialized
/// vs baseline in-RAM deserialized, across scale points. Every row is
/// printed only after PC's answer is checked against both baselines'.
pub fn table3(quick: bool) {
    println!("Table 3: PC vs baseline for large-scale OO computation");
    let sizes: &[usize] = if quick {
        &[500, 1000]
    } else {
        &[1000, 2000, 4000, 8000]
    };
    let w = [10usize, 8, 16, 20, 22];
    row(
        &[
            "query".into(),
            "custs".into(),
            "PC hot storage".into(),
            "base: hot serialized".into(),
            "base: in-RAM deserialized".into(),
        ],
        &w,
    );
    for &n in sizes {
        let data = generate(&TpchConfig {
            customers: n,
            ..Default::default()
        });
        let client = bench_client();
        pc_impl::load(&client, "tpch", "customers", &data).unwrap();
        let eng_ser = spark(StorageLevel::Serialized);
        let rdd_ser = eng_ser.parallelize(baseline_impl::to_rows(&data));
        let eng_ram = spark(StorageLevel::Deserialized);
        let rdd_ram = eng_ram.parallelize(baseline_impl::to_rows(&data)).cache();

        let (pc, t_pc) =
            time_once(|| pc_impl::customers_per_supplier(&client, "tpch", "customers").unwrap());
        let (ser, t_ser) = time_once(|| baseline_impl::customers_per_supplier(&rdd_ser));
        let (ram, t_ram) = time_once(|| baseline_impl::customers_per_supplier(&rdd_ram));
        for base in [&ser, &ram] {
            assert_eq!(&pc, base, "cps at {n} customers: PC and baseline differ");
        }
        row(
            &[
                "cps".into(),
                n.to_string(),
                fmt_dur(t_pc),
                fmt_dur(t_ser),
                fmt_dur(t_ram),
            ],
            &w,
        );

        let query = unique_parts(&data[0]);
        let k = (n / 50).max(4);
        let (pc, t_pc) =
            time_once(|| pc_impl::top_k_jaccard(&client, "tpch", "customers", &query, k).unwrap());
        let (ser, t_ser) = time_once(|| baseline_impl::top_k_jaccard(&rdd_ser, &query, k));
        let (ram, t_ram) = time_once(|| baseline_impl::top_k_jaccard(&rdd_ram, &query, k));
        for base in [&ser, &ram] {
            assert_same_top_k(&pc, base, n);
        }
        row(
            &[
                "topk".into(),
                n.to_string(),
                fmt_dur(t_pc),
                fmt_dur(t_ser),
                fmt_dur(t_ram),
            ],
            &w,
        );
    }
}

/// The bar `pc-ml`'s `baseline_ladder_all_rungs_agree_statistically` sets
/// for the mean of each document's largest topic probability.
const LDA_SHARPNESS: f64 = 0.7;

/// Gibbs sweeps every Table 4 system has run when its θ is checked: the
/// full-size corpus first clears [`LDA_SHARPNESS`] after about 12.
const LDA_SWEEPS: usize = 16;

/// Mean of each θ row's largest probability, after asserting every row sums
/// to 1; panics unless it clears [`LDA_SHARPNESS`].
fn lda_sharpness<'a>(system: &str, theta: impl ExactSizeIterator<Item = &'a [f64]>) -> f64 {
    let docs = theta.len();
    let mut sum = 0.0;
    for (d, p) in theta.enumerate() {
        let total: f64 = p.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{system}: θ row {d} sums to {total}"
        );
        sum += p.iter().cloned().fold(0.0, f64::max);
    }
    let sharp = sum / docs as f64;
    assert!(
        sharp > LDA_SHARPNESS,
        "{system}: topic sharpness {sharp:.3} is not above {LDA_SHARPNESS}"
    );
    sharp
}

/// Table 4: LDA per-iteration times, PC vs the baseline tuning ladder.
/// After `LDA_SWEEPS` sweeps (the untimed ones follow the timed ones),
/// every system's θ must be a distribution per document and clear the
/// sharpness bar, or the table panics. The corpus draws each document from
/// one of `topics` word pools, so a converged θ row is nearly one-hot.
pub fn table4(quick: bool) {
    println!("Table 4: PC vs baseline for LDA (per-iteration average)");
    let (docs, vocab, topics, wpd, iters) = if quick {
        (60, 120, 5, 40, 2)
    } else {
        (400, 2000, 20, 120, 3)
    };
    let triples = synthetic_corpus(docs, vocab, topics, wpd, 11);
    let w = [26usize, 14, 10];
    row(
        &["system".into(), "per-iteration".into(), "sharpness".into()],
        &w,
    );

    let client = bench_client();
    let mut pc = PcLda::init(&client, "lda", &triples, docs, vocab, topics, 0.1, 0.1, 5).unwrap();
    pc.iterate().unwrap(); // warm-up / init
    let (_, t) = time_once(|| {
        for _ in 0..iters {
            pc.iterate().unwrap();
        }
    });
    for _ in iters + 1..LDA_SWEEPS {
        pc.iterate().unwrap();
    }
    let theta = pc.theta().unwrap();
    assert_eq!(theta.len(), docs, "PlinyCompute: θ rows");
    let sharp = lda_sharpness("PlinyCompute", theta.iter().map(|(_, p)| &p[..]));
    row(
        &[
            "PlinyCompute".into(),
            fmt_dur(t / iters as u32),
            format!("{sharp:.3}"),
        ],
        &w,
    );

    for (name, tuning) in [
        ("base 1: vanilla", LdaTuning::Vanilla),
        ("base 2: +join hint", LdaTuning::JoinHint),
        ("base 3: +forced persist", LdaTuning::ForcedPersist),
        ("base 4: +hand-coded mult", LdaTuning::HandCodedSampler),
    ] {
        let eng = spark(StorageLevel::Serialized);
        let mut lda = BaselineLda::init(
            &eng,
            tuning,
            triples.clone(),
            docs,
            vocab,
            topics,
            0.1,
            0.1,
            5,
        );
        lda.iterate();
        let (_, t) = time_once(|| {
            for _ in 0..iters {
                lda.iterate();
            }
        });
        for _ in iters + 1..LDA_SWEEPS {
            lda.iterate();
        }
        let sharp = lda_sharpness(name, lda.theta().iter().map(|p| &p[..]));
        row(
            &[
                name.into(),
                fmt_dur(t / iters as u32),
                format!("{sharp:.3}"),
            ],
            &w,
        );
    }
}

/// Table 5: GMM per-iteration times across (dim, n) cases. Every case
/// panics unless PC's model equals the baseline's within 1e-9 (the two
/// fold each point with the same `fold_point`; only the summation order
/// differs).
pub fn table5(quick: bool) {
    println!("Table 5: PC vs baseline for GMM (per-iteration average)");
    let cases: &[(usize, usize)] = if quick {
        &[(20, 2000), (50, 1000)]
    } else {
        &[(100, 20000), (300, 4000), (500, 2000)]
    };
    let w = [8usize, 10, 14, 14];
    row(
        &[
            "dim".into(),
            "points".into(),
            "PC".into(),
            "baseline".into(),
        ],
        &w,
    );
    for &(d, n) in cases {
        let pts = synthetic_points(n, d, 10, 3);
        let client = bench_client();
        let mut pc = PcGmm::init(&client, "ml", "gmmpts", &pts, 10).unwrap();
        let eng = spark(StorageLevel::Serialized);
        let mut base = BaselineGmm::init(&eng, pts, 10);
        pc.iterate().unwrap();
        base.iterate();
        let iters = 2u32;
        let (_, t_pc) = time_once(|| {
            for _ in 0..iters {
                pc.iterate().unwrap();
            }
        });
        let (_, t_b) = time_once(|| {
            for _ in 0..iters {
                base.iterate();
            }
        });
        let diff = pc.model.max_abs_diff(&base.model);
        assert!(
            diff < 1e-9,
            "gmm d={d}: PC's model differs from the baseline's by {diff}"
        );
        row(
            &[
                d.to_string(),
                n.to_string(),
                fmt_dur(t_pc / iters),
                fmt_dur(t_b / iters),
            ],
            &w,
        );
    }
}

/// Table 6: k-means initialization and per-iteration latency; the Dataset
/// API pays an RDD conversion before iterating. Every case panics unless
/// PC's centroids equal both baselines' within 1e-6 after the timed
/// iterations (the same Lloyd steps from the same first-k seeds; only the
/// summation order differs, and the points' noise spread is 0.5).
pub fn table6(quick: bool) {
    println!("Table 6: PC vs baseline for k-means");
    let cases: &[(usize, usize)] = if quick {
        &[(10, 20000), (100, 4000)]
    } else {
        &[(10, 200000), (100, 40000), (1000, 4000)]
    };
    let w = [8usize, 10, 10, 16, 16, 16];
    row(
        &[
            "dim".into(),
            "points".into(),
            "phase".into(),
            "PC".into(),
            "base RDD".into(),
            "base Dataset".into(),
        ],
        &w,
    );
    for &(d, n) in cases {
        let pts = synthetic_points(n, d, 10, 17);
        // init
        let client = bench_client();
        let (mut pc, t_pc_init) = {
            let p = pts.clone();
            let (m, t) = time_once(|| PcKMeans::init(&client, "ml", "kmpts", &p, 10).unwrap());
            (m, t)
        };
        let eng = spark(StorageLevel::Serialized);
        let (mut rdd_base, t_rdd_init) = {
            let p = pts.clone();
            let (m, t) = time_once(|| BaselineKMeans::init(&eng, p, 10));
            (m, t)
        };
        let eng2 = spark(StorageLevel::Serialized);
        let (mut ds_base, t_ds_init) = {
            let p = pts.clone();
            let (m, t) = time_once(|| {
                // Dataset path: ingest relationally, convert to RDD to iterate.
                let ds = pc_baseline::Dataset::from_rows(&eng2, p);
                let rdd = ds.to_rdd();
                BaselineKMeans {
                    points: rdd,
                    centroids: Vec::new(),
                }
            });
            (m, t)
        };
        ds_base.centroids = pts.iter().take(10).cloned().collect();
        row(
            &[
                d.to_string(),
                n.to_string(),
                "init".into(),
                fmt_dur(t_pc_init),
                fmt_dur(t_rdd_init),
                fmt_dur(t_ds_init),
            ],
            &w,
        );
        let iters = 2u32;
        let (_, t_pc) = time_once(|| {
            for _ in 0..iters {
                pc.iterate().unwrap();
            }
        });
        let (_, t_rdd) = time_once(|| {
            for _ in 0..iters {
                rdd_base.iterate();
            }
        });
        let (_, t_ds) = time_once(|| {
            for _ in 0..iters {
                ds_base.iterate();
            }
        });
        let pc_c: Vec<f64> = pc.centroids.concat();
        assert_close(
            &format!("kmeans d={d}: base RDD"),
            &rdd_base.centroids.concat(),
            &pc_c,
            1e-6,
        );
        assert_close(
            &format!("kmeans d={d}: base Dataset"),
            &ds_base.centroids.concat(),
            &pc_c,
            1e-6,
        );
        row(
            &[
                d.to_string(),
                n.to_string(),
                "iter".into(),
                fmt_dur(t_pc / iters),
                fmt_dur(t_rdd / iters),
                fmt_dur(t_ds / iters),
            ],
            &w,
        );
    }
}

/// Table 7: source lines of code per workload implementation.
pub fn table7() {
    println!("Table 7: lines of source code per workload (this repository)");
    let w = [28usize, 10, 30];
    row(&["application".into(), "SLOC".into(), "files".into()], &w);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .to_path_buf();
    let count = |files: &[&str]| -> usize {
        files
            .iter()
            .map(|f| {
                std::fs::read_to_string(root.join(f))
                    .map(|s| s.lines().filter(|l| !l.trim().is_empty()).count())
                    .unwrap_or(0)
            })
            .sum()
    };
    for (name, files) in [
        (
            "lilLinAlg (on PC)",
            vec![
                "lillinalg/src/matrix.rs",
                "lillinalg/src/dsl.rs",
                "lillinalg/src/kernels.rs",
            ],
        ),
        ("TPC-H both queries (PC)", vec!["tpch/src/pc_impl.rs"]),
        (
            "TPC-H both queries (base)",
            vec!["tpch/src/baseline_impl.rs"],
        ),
        ("LDA (PC + base)", vec!["ml/src/lda.rs"]),
        ("GMM (PC + base)", vec!["ml/src/gmm.rs"]),
        ("k-means (PC + base)", vec!["ml/src/kmeans.rs"]),
    ] {
        let n = count(&files);
        row(&[name.into(), n.to_string(), files.join(", ")], &w);
    }
}

/// Table 8: single-thread matrix multiplication, naive ("GSL") vs packed
/// ("Eigen/breeze") kernels. Panics unless the packed product equals the
/// naive one within 1e-12·n of its largest element.
pub fn table8(quick: bool) {
    println!("Table 8: single-thread matmul kernels");
    let sizes: &[usize] = if quick {
        &[128, 256]
    } else {
        &[256, 512, 1024]
    };
    let w = [12usize, 16, 18];
    row(
        &["size".into(), "naive (GSL)".into(), "packed (Eigen)".into()],
        &w,
    );
    for &n in sizes {
        let a = rand_dense(n, n, 1);
        let b = rand_dense(n, n, 2);
        let mut naive = vec![0.0; n * n];
        let (_, t_naive) =
            time_once(|| kernels::matmul_naive(&a.data, &b.data, &mut naive, n, n, n));
        let mut packed = vec![0.0; n * n];
        let (_, t_packed) = time_once(|| kernels::matmul(&a.data, &b.data, &mut packed, n, n, n));
        let scale = naive.iter().fold(1.0, |m: f64, x| m.max(x.abs()));
        let tol = 1e-12 * n as f64 * scale;
        assert_close(&format!("matmul {n}x{n}: packed"), &packed, &naive, tol);
        row(
            &[format!("{n}x{n}"), fmt_dur(t_naive), fmt_dur(t_packed)],
            &w,
        );
    }
}

/// Runs every table (quick mode keeps the whole sweep under a few minutes).
pub fn all(quick: bool) -> Duration {
    let (_, d) = time_once(|| {
        table1();
        println!();
        table2(quick);
        println!();
        table3(quick);
        println!();
        table4(quick);
        println!();
        table5(quick);
        println!();
        table6(quick);
        println!();
        table7();
        println!();
        table8(quick);
    });
    d
}
