//! Hashing utilities used for PC map keys, shuffle partitioning, and stable
//! type codes.
//!
//! PC `String`s deliberately do *not* cache their hash values (§8.4.3 points
//! this out as a space-for-time trade) — hashes here are always computed on
//! the fly from the stored bytes.

/// FNV-1a 64-bit hash over a byte slice. Type codes are minted from it; it
/// does not avalanche, so keys hash with [`hash_bytes`] instead.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// splitmix64 finalizer: turns a 64-bit value into a well-mixed hash.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// SplitMix64 over `(seed, n, salt)`: a stateless, order-independent draw,
/// so the `n`-th decision of a seeded schedule replays exactly from its
/// seed. The transport fault injector and memory-pressure budgets share it,
/// so one seed convention covers the whole chaos suite.
#[inline]
pub fn mix(seed: u64, n: u64, salt: u64) -> u64 {
    let mut z =
        seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a string key's bytes: FNV-1a, then the [`mix64`] finalizer. FNV-1a
/// alone leaves its high bits — the partition bits — the same across keys
/// that differ only in their last few bytes (`Supplier#0000` ..
/// `Supplier#0049` all share bits 32–33); the finalizer makes every output
/// bit depend on every input byte.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    mix64(fnv1a(bytes))
}

/// Hash an `i64` key.
#[inline]
pub fn hash_i64(v: i64) -> u64 {
    mix64(v as u64)
}

/// Hash an `f64` key by its bit pattern (normalizing -0.0 to 0.0).
#[inline]
pub fn hash_f64(v: f64) -> u64 {
    let v = if v == 0.0 { 0.0 } else { v };
    mix64(v.to_bits())
}

/// Combine two hashes (for composite keys such as `(row, col)` pairs).
#[inline]
pub fn combine(a: u64, b: u64) -> u64 {
    mix64(a ^ b.rotate_left(32).wrapping_mul(0x9e3779b97f4a7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_values() {
        // FNV-1a reference vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn mix_is_injective_on_small_range() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    /// Share of `keys` whose partition (bits 32.. of the hash, masked to
    /// `parts`, as the aggregation and join sinks select it) is each `p`.
    fn partition_shares(keys: &[String], parts: u64, hash: fn(&[u8]) -> u64) -> Vec<f64> {
        let mut counts = vec![0usize; parts as usize];
        for k in keys {
            counts[((hash(k.as_bytes()) >> 32) & (parts - 1)) as usize] += 1;
        }
        counts
            .iter()
            .map(|&c| c as f64 / keys.len() as f64)
            .collect()
    }

    #[test]
    fn string_hashes_spread_tpch_names_over_every_partition() {
        // The generator's key shapes: `Supplier#{id:04}`, `Customer#{c:06}`.
        let suppliers: Vec<String> = (0..50).map(|i| format!("Supplier#{i:04}")).collect();
        let customers: Vec<String> = (0..2000).map(|i| format!("Customer#{i:06}")).collect();
        // Every partition gets at least 40 % of its fair share: 10 % of the
        // keys at 4 partitions, 5 % at 8 (50 keys over 8 partitions spread by
        // about 4.7 points around 12.5 %, so a tighter floor would test luck).
        for keys in [&suppliers, &customers] {
            for parts in [4, 8] {
                let shares = partition_shares(keys, parts, hash_bytes);
                let floor = 0.4 / parts as f64;
                assert!(
                    shares.iter().all(|&s| s >= floor),
                    "{} keys over {parts} partitions: {shares:?}",
                    keys[0]
                );
            }
        }
        // Why the finalizer is there: raw FNV-1a sends every supplier to one
        // of four partitions.
        let raw = partition_shares(&suppliers, 4, fnv1a);
        assert!(raw.contains(&1.0), "{raw:?}");
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
    }

    #[test]
    fn f64_zero_normalization() {
        assert_eq!(hash_f64(0.0), hash_f64(-0.0));
        assert_ne!(hash_f64(1.0), hash_f64(2.0));
    }
}
