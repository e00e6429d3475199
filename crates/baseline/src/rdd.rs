//! The RDD-style engine: lazy-ish partitioned collections with serialized
//! stage boundaries, parallel partition processing, hash shuffles, and the
//! tuning hints of Table 4.

use crate::codec::{decode_partition, encode_partition, Codec};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How stage outputs are stored between transformations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageLevel {
    /// Serialized bytes (Spark reading/writing its block store; every stage
    /// pays encode+decode). The "hot HDFS" configuration of Table 3.
    Serialized,
    /// Deserialized objects held in RAM (Spark after `.cache()`): stages
    /// still materialize fresh boxed values, but skip the codec.
    Deserialized,
}

/// Engine configuration — the knobs the paper's Spark expert tuned.
#[derive(Debug, Clone)]
pub struct SparkConfig {
    pub partitions: usize,
    pub storage: StorageLevel,
    /// Force broadcast joins (Table 4's "join hint").
    pub broadcast_join_hint: bool,
    /// Persist iteration-invariant join results (Table 4's "forced persist").
    pub persist_hint: bool,
}

impl Default for SparkConfig {
    fn default() -> Self {
        SparkConfig {
            partitions: 4,
            storage: StorageLevel::Serialized,
            broadcast_join_hint: false,
            persist_hint: false,
        }
    }
}

/// Engine handle: configuration plus cost accounting.
#[derive(Clone)]
pub struct SparkLike {
    pub config: SparkConfig,
    stats: Arc<EngineStats>,
}

#[derive(Default)]
struct EngineStats {
    bytes_serialized: AtomicU64,
    bytes_shuffled: AtomicU64,
    records_processed: AtomicU64,
}

impl SparkLike {
    pub fn new(config: SparkConfig) -> Self {
        SparkLike {
            config,
            stats: Arc::new(EngineStats::default()),
        }
    }

    pub fn bytes_serialized(&self) -> u64 {
        self.stats.bytes_serialized.load(Ordering::Relaxed)
    }

    pub fn bytes_shuffled(&self) -> u64 {
        self.stats.bytes_shuffled.load(Ordering::Relaxed)
    }

    pub fn records_processed(&self) -> u64 {
        self.stats.records_processed.load(Ordering::Relaxed)
    }

    /// Distributes a collection over the configured partitions.
    pub fn parallelize<T: Codec>(&self, data: Vec<T>) -> Rdd<T> {
        let n = self.config.partitions.max(1);
        let mut parts: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        for (i, x) in data.into_iter().enumerate() {
            parts[i % n].push(x);
        }
        Rdd::from_vecs(self.clone(), parts, self.config.storage)
    }
}

/// One partition of an RDD.
enum Partition<T> {
    Ser(Vec<u8>),
    Deser(Arc<Vec<T>>),
}

impl<T: Codec> Partition<T> {
    fn read(&self, eng: &SparkLike) -> Vec<T> {
        match self {
            Partition::Ser(bytes) => {
                eng.stats
                    .bytes_serialized
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                decode_partition(bytes)
            }
            Partition::Deser(v) => v.as_ref().clone(),
        }
    }
}

/// A partitioned, immutable collection.
pub struct Rdd<T: Codec> {
    eng: SparkLike,
    parts: Vec<Arc<Partition<T>>>,
}

impl<T: Codec> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            eng: self.eng.clone(),
            parts: self.parts.clone(),
        }
    }
}

fn key_hash<K: Hash>(k: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

/// Splits `rows` into `n` buckets by key hash, keeping their order.
fn bucket_by_key<K: Hash, V>(rows: Vec<(K, V)>, n: usize) -> Vec<Vec<(K, V)>> {
    let mut buckets: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
    for kv in rows {
        let b = (key_hash(&kv.0) % n as u64) as usize;
        buckets[b].push(kv);
    }
    buckets
}

impl<T: Codec> Rdd<T> {
    fn from_vecs(eng: SparkLike, parts: Vec<Vec<T>>, storage: StorageLevel) -> Self {
        let parts = parts
            .into_iter()
            .map(|v| {
                Arc::new(match storage {
                    StorageLevel::Serialized => {
                        let bytes = encode_partition(&v);
                        eng.stats
                            .bytes_serialized
                            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                        Partition::Ser(bytes)
                    }
                    StorageLevel::Deserialized => Partition::Deser(Arc::new(v)),
                })
            })
            .collect();
        Rdd { eng, parts }
    }

    /// Runs `f` over each partition in parallel, producing a new RDD stored
    /// at the engine's storage level (the per-stage codec cost).
    pub fn map_partitions<U: Codec>(&self, f: impl Fn(Vec<T>) -> Vec<U> + Send + Sync) -> Rdd<U> {
        let eng = &self.eng;
        let outs: Vec<Vec<U>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .parts
                .iter()
                .map(|p| {
                    let f = &f;
                    s.spawn(move || {
                        let input = p.read(eng);
                        eng.stats
                            .records_processed
                            .fetch_add(input.len() as u64, Ordering::Relaxed);
                        f(input)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("partition task"))
                .collect()
        });
        Rdd::from_vecs(self.eng.clone(), outs, self.eng.config.storage)
    }

    pub fn map<U: Codec>(&self, f: impl Fn(T) -> U + Send + Sync) -> Rdd<U> {
        self.map_partitions(|v| v.into_iter().map(&f).collect())
    }

    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync) -> Rdd<T> {
        self.map_partitions(|v| v.into_iter().filter(|x| f(x)).collect())
    }

    pub fn flat_map<U: Codec>(&self, f: impl Fn(T) -> Vec<U> + Send + Sync) -> Rdd<U> {
        self.map_partitions(|v| v.into_iter().flat_map(&f).collect())
    }

    /// Pins the RDD in RAM as deserialized objects (`.cache()` /
    /// `.persist()` — Table 4's third rung).
    pub fn cache(&self) -> Rdd<T> {
        let vecs: Vec<Vec<T>> = self.parts.iter().map(|p| p.read(&self.eng)).collect();
        Rdd::from_vecs(self.eng.clone(), vecs, StorageLevel::Deserialized)
    }

    /// Gathers every record to the driver.
    pub fn collect(&self) -> Vec<T> {
        let mut out = Vec::new();
        for p in &self.parts {
            out.extend(p.read(&self.eng));
        }
        out
    }

    pub fn count(&self) -> usize {
        self.parts.iter().map(|p| p.read(&self.eng).len()).sum()
    }

    /// Tree-reduce to the driver.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync) -> Option<T> {
        self.collect().into_iter().reduce(f)
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Codec + Hash + Eq,
    V: Codec,
{
    /// Hash shuffle + per-key fold. The shuffle always serializes (as
    /// Spark's does), regardless of storage level.
    pub fn reduce_by_key(&self, f: impl Fn(V, V) -> V + Send + Sync) -> Rdd<(K, V)> {
        let n = self.parts.len();
        let eng = &self.eng;
        // Map side: partition each record by key hash and serialize.
        let shuffled: Vec<Vec<Vec<u8>>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .parts
                .iter()
                .map(|p| {
                    s.spawn(move || {
                        bucket_by_key(p.read(eng), n)
                            .into_iter()
                            .map(|b| encode_partition(&b))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("map side"))
                .collect()
        });
        for bl in shuffled.iter().flatten() {
            eng.stats
                .bytes_shuffled
                .fetch_add(bl.len() as u64, Ordering::Relaxed);
        }
        // Reduce side.
        let reduced: Vec<Vec<(K, V)>> = std::thread::scope(|s| {
            let shuffled = &shuffled;
            let handles: Vec<_> = (0..n)
                .map(|r| {
                    let f = &f;
                    s.spawn(move || {
                        let mut table: HashMap<K, V> = HashMap::new();
                        for m in shuffled {
                            for (k, v) in decode_partition::<(K, V)>(&m[r]) {
                                match table.remove(&k) {
                                    None => {
                                        table.insert(k, v);
                                    }
                                    Some(old) => {
                                        table.insert(k, f(old, v));
                                    }
                                }
                            }
                        }
                        table.into_iter().collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reduce side"))
                .collect()
        });
        Rdd::from_vecs(self.eng.clone(), reduced, self.eng.config.storage)
    }

    /// Equi-join. Honors the broadcast hint: with it, the (assumed small)
    /// right side is collected to the driver and shipped to every partition;
    /// without it, both sides hash-shuffle.
    pub fn join<W: Codec>(&self, other: &Rdd<(K, W)>) -> Rdd<(K, (V, W))> {
        if self.eng.config.broadcast_join_hint {
            let small: Vec<(K, W)> = other.collect();
            let bytes = encode_partition(&small);
            // Broadcast: one copy per partition over the "network".
            self.eng
                .stats
                .bytes_shuffled
                .fetch_add((bytes.len() * self.parts.len()) as u64, Ordering::Relaxed);
            let table: Arc<HashMap<K, Vec<W>>> = Arc::new({
                let mut t: HashMap<K, Vec<W>> = HashMap::new();
                for (k, w) in decode_partition::<(K, W)>(&bytes) {
                    t.entry(k).or_default().push(w);
                }
                t
            });
            let table2 = table.clone();
            return self.map_partitions(move |v| {
                let mut out = Vec::new();
                for (k, x) in v {
                    if let Some(ws) = table2.get(&k) {
                        for w in ws {
                            out.push((k.clone(), (x.clone(), w.clone())));
                        }
                    }
                }
                out
            });
        }
        // Shuffle join: repartition both sides by key hash.
        let n = self.parts.len();
        let left = self.shuffle_by_key();
        let right = other.shuffle_by_key();
        let joined: Vec<Vec<(K, (V, W))>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|r| {
                    let l = &left[r];
                    let rt = &right[r];
                    s.spawn(move || {
                        let mut table: HashMap<K, Vec<W>> = HashMap::new();
                        for (k, w) in decode_partition::<(K, W)>(rt) {
                            table.entry(k).or_default().push(w);
                        }
                        let mut out = Vec::new();
                        for (k, v) in decode_partition::<(K, V)>(l) {
                            if let Some(ws) = table.get(&k) {
                                for w in ws {
                                    out.push((k.clone(), (v.clone(), w.clone())));
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join task"))
                .collect()
        });
        Rdd::from_vecs(self.eng.clone(), joined, self.eng.config.storage)
    }

    /// Map-side repartition by key hash; returns per-target serialized
    /// blobs, each the source partitions' buckets in partition order.
    fn shuffle_by_key(&self) -> Vec<Vec<u8>> {
        let n = self.parts.len();
        let eng = &self.eng;
        let per_source: Vec<Vec<Vec<(K, V)>>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .parts
                .iter()
                .map(|p| s.spawn(move || bucket_by_key(p.read(eng), n)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shuffle task"))
                .collect()
        });
        let mut merged: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
        for buckets in per_source {
            for (m, bucket) in merged.iter_mut().zip(buckets) {
                m.extend(bucket);
            }
        }
        merged
            .into_iter()
            .map(|m| {
                let blob = encode_partition(&m);
                eng.stats
                    .bytes_shuffled
                    .fetch_add(blob.len() as u64, Ordering::Relaxed);
                blob
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eng(storage: StorageLevel) -> SparkLike {
        SparkLike::new(SparkConfig {
            partitions: 3,
            storage,
            ..Default::default()
        })
    }

    #[test]
    fn map_filter_collect_roundtrip() {
        let e = eng(StorageLevel::Serialized);
        let r = e.parallelize((0i64..100).collect());
        let out = r.map(|x| x * 2).filter(|x| *x % 3 == 0).collect();
        let mut want: Vec<i64> = (0..100).map(|x| x * 2).filter(|x| x % 3 == 0).collect();
        let mut got = out;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(
            e.bytes_serialized() > 0,
            "serialized storage must run the codec"
        );
    }

    #[test]
    fn cached_rdd_skips_codec_on_read() {
        let e = eng(StorageLevel::Serialized);
        let r = e.parallelize((0i64..1000).collect()).cache();
        let before = e.bytes_serialized();
        let _ = r.map(|x| x + 1).count();
        // The map's *input* read was codec-free; only the output re-encoded.
        assert!(
            e.bytes_serialized() > before,
            "stage output still serializes"
        );
    }

    #[test]
    fn reduce_by_key_matches_hashmap() {
        let e = eng(StorageLevel::Serialized);
        let data: Vec<(i64, i64)> = (0..500).map(|i| (i % 7, i)).collect();
        let mut want: HashMap<i64, i64> = HashMap::new();
        for (k, v) in &data {
            *want.entry(*k).or_insert(0) += v;
        }
        let r = e.parallelize(data).reduce_by_key(|a, b| a + b);
        let got: HashMap<i64, i64> = r.collect().into_iter().collect();
        assert_eq!(got, want);
        assert!(e.bytes_shuffled() > 0);
    }

    #[test]
    fn join_shuffle_and_broadcast_agree() {
        let data_l: Vec<(i64, i64)> = (0..200).map(|i| (i % 10, i)).collect();
        let data_r: Vec<(i64, String)> = (0..10).map(|i| (i, format!("g{i}"))).collect();

        let run = |hint: bool| {
            let e = SparkLike::new(SparkConfig {
                partitions: 3,
                storage: StorageLevel::Serialized,
                broadcast_join_hint: hint,
                persist_hint: false,
            });
            let l = e.parallelize(data_l.clone());
            let r = e.parallelize(data_r.clone());
            let mut out = l.join(&r).collect();
            out.sort_by_key(|(k, (v, _))| (*k, *v));
            out
        };
        assert_eq!(run(false), run(true));
        assert_eq!(run(false).len(), 200);
    }

    #[test]
    fn shuffle_join_output_order_is_deterministic() {
        let run = || {
            let e = eng(StorageLevel::Serialized);
            let l = e.parallelize((0i64..600).map(|i| (i % 50, i)).collect());
            let r = e.parallelize((0i64..50).map(|i| (i, i * 10)).collect());
            l.join(&r).collect()
        };
        let first = run();
        assert_eq!(first.len(), 600);
        for attempt in 0..20 {
            assert_eq!(run(), first, "run {attempt} reordered the join output");
        }
    }
}
