//! Summary statistics with the benchmark's percentile rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The value (nearest rank).
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The `p`-quantile (`0 < p < 1`) by nearest rank, or `None` when fewer
/// than [`MIN_BEYOND`] samples would lie beyond it. Infinite samples (a
/// failed request counts as missing every latency limit) sort last.
pub fn quantile(samples: &[f64], p: f64) -> Option<Quantile> {
    assert!(p > 0.0 && p < 1.0, "quantile order must be in (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    // The median is always reportable; the tail needs its ten samples.
    if p > 0.5 && beyond < MIN_BEYOND {
        return None;
    }
    Some(Quantile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// The median (any non-empty sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5).map(|q| q.value)
}

/// Arithmetic mean, `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), None, "p90 of 99 leaves 9 beyond");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let q = quantile(&xs, 0.9).expect("p90 of 100 leaves 10 beyond");
        assert_eq!((q.value, q.samples, q.beyond), (90.0, 100, 10));
        assert_eq!(quantile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99).map(|q| q.value), Some(990.0));
    }

    #[test]
    fn median_is_nearest_rank_and_failures_sort_last() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.extend([f64::INFINITY; 12]);
        assert!(quantile(&xs, 0.9).expect("enough").value.is_infinite());
        assert_eq!(median(&xs), Some(56.0));
    }
}
