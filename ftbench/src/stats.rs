//! Quantiles over measured samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median (nearest-rank, lower middle for even counts), or `None`
/// for no samples. `sorted` must be ascending.
#[must_use]
pub fn median(sorted: &[f64]) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[(sorted.len() - 1) / 2])
}

/// The nearest-rank `q` quantile (`0 < q <= 1`). `sorted` must be
/// ascending.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len().max(1)) - 1).copied()
}

/// The tail sample and its percentile: p99 (nearest rank) when at least
/// [`TAIL_BEYOND`] samples lie beyond it, otherwise the highest
/// percentile that still has [`TAIL_BEYOND`] samples beyond it. With
/// [`TAIL_BEYOND`] or fewer samples there is no such percentile and the
/// maximum is returned. `sorted` must be ascending.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    if n <= TAIL_BEYOND {
        return Some((sorted[n - 1], 100.0));
    }
    let p99_rank = (0.99 * n as f64).ceil() as usize; // 1-based
    let rank = p99_rank.min(n - TAIL_BEYOND);
    Some((sorted[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// Sort ascending; NaN-free input assumed (infinite values sort last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_with_enough_samples() {
        let (v, pct) = tail(&ramp(1_000)).unwrap();
        assert_eq!(v, 990.0);
        assert!((pct - 99.0).abs() < 1e-9);
        let (v, _) = tail(&ramp(5_000)).unwrap();
        assert_eq!(v, 4_950.0);
        // 5 000 samples: 50 lie beyond the p99 sample.
        assert_eq!(5_000 - 4_950, 50);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_on_short_runs() {
        let (v, pct) = tail(&ramp(50)).unwrap();
        assert_eq!(v, 40.0, "rank n-10 leaves exactly ten beyond");
        assert!((pct - 80.0).abs() < 1e-9);
        let (v, _) = tail(&ramp(999)).unwrap();
        assert_eq!(v, 989.0);
        let (v, pct) = tail(&ramp(11)).unwrap();
        assert_eq!((v, pct), (1.0, 100.0 / 11.0));
    }

    #[test]
    fn tail_of_tiny_runs_is_the_maximum() {
        assert_eq!(tail(&ramp(10)), Some((10.0, 100.0)));
        assert_eq!(tail(&ramp(1)), Some((1.0, 100.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        assert_eq!(quantile(&ramp(54), 0.8), Some(44.0));
        assert_eq!(quantile(&ramp(10), 0.5), Some(5.0));
        assert_eq!(quantile(&ramp(3), 1.0), Some(3.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn failed_operations_sort_last() {
        let mut v = vec![3.0, f64::INFINITY, 1.0, 2.0];
        sort(&mut v);
        assert_eq!(median(&v), Some(2.0));
        assert_eq!(v[3], f64::INFINITY);
    }
}
