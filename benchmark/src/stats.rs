//! Order statistics over job-time samples.

/// The fewest timed jobs a run reports: with 41 samples the 75th percentile
/// sits at sorted index 30 and has ten samples beyond it, the least a tail
/// percentile needs to mean anything.
pub const MIN_SAMPLES: usize = 41;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median; the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sorted index of the 75th percentile (nearest rank on `n - 1` intervals).
pub fn p75_index(n: usize) -> usize {
    3 * n.saturating_sub(1) / 4
}

pub fn p75(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    v.get(p75_index(v.len())).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_p75_of_41_samples() {
        // 41 samples 0..=40 in shuffled order: median is rank 20, p75 is
        // rank 30, which leaves exactly ten samples beyond it.
        let samples: Vec<f64> = (0..41).map(|i| ((i * 17) % 41) as f64).collect();
        assert_eq!(median(&samples), 20.0);
        assert_eq!(p75_index(MIN_SAMPLES), 30);
        assert_eq!(MIN_SAMPLES - 1 - p75_index(MIN_SAMPLES), 10);
        assert_eq!(p75(&samples), 30.0);
    }

    #[test]
    fn more_samples_keep_at_least_ten_beyond_p75() {
        for n in MIN_SAMPLES..400 {
            assert!(n - 1 - p75_index(n) >= 10, "n={n}");
        }
    }

    #[test]
    fn even_and_degenerate_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(p75(&[]), 0.0);
        assert_eq!(p75(&[5.0]), 5.0);
    }
}
