//! Host CPU steal, and figures taken at zero steal.
//!
//! On a shared virtual machine the hypervisor takes CPU time away from
//! the guest ("steal"), and on this two-core service pipeline the loss
//! is far from proportional: at 25 % steal, faulted's closed loops of
//! small requests ran at 44 % of their unstolen rate. Steal drifts over
//! seconds and minutes, so runs of identical code disagree by 30–45 % on
//! throughput and by more on tails. Each run is therefore cut into
//! windows; every window's figure, as a rate (products per second, or
//! the reciprocal of a latency quantile), is fitted by least squares
//! against the window's steal share from `/proc/stat`, and the line's
//! value at zero steal is reported. small and faulted fit only the
//! quietest quarter of their windows: their figures bend away from a
//! line at high steal (small's p99 rises roughly with the square root of
//! the steal share), and the quietest windows lie nearest the zero-steal
//! point. mixed fits all of its windows: its rates stay near a line up
//! to the highest steal seen (about 25 %), and its 200-sample windows
//! are too noisy to fit on a few. Without steal this is the plain
//! windowed measurement.

/// Cumulative host counters sampled during a phase:
/// `(ns since the phase epoch, steal ticks, all ticks)`.
pub type Samples = Vec<(u64, u64, u64)>;

/// Host-wide `(steal, all)` CPU ticks so far, from `/proc/stat`; `None`
/// where the file or its steal column is missing.
#[must_use]
pub fn read() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Steal share of CPU time in `[start, end)`, interpolating the
/// cumulative samples linearly; 0 without samples.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn share(samples: &Samples, start: u64, end: u64) -> f64 {
    let at = |t: u64| -> (f64, f64) {
        let i = samples.partition_point(|s| s.0 <= t);
        match (i.checked_sub(1).map(|j| samples[j]), samples.get(i)) {
            (Some(a), Some(b)) => {
                let f = (t - a.0) as f64 / (b.0 - a.0).max(1) as f64;
                (
                    a.1 as f64 + f * (b.1 - a.1) as f64,
                    a.2 as f64 + f * (b.2 - a.2) as f64,
                )
            }
            (Some(a), None) => (a.1 as f64, a.2 as f64),
            (None, Some(b)) => (b.1 as f64, b.2 as f64),
            (None, None) => (0.0, 0.0),
        }
    };
    let ((s0, t0), (s1, t1)) = (at(start), at(end));
    if t1 > t0 {
        (s1 - s0) / (t1 - t0)
    } else {
        0.0
    }
}

/// The fewest windows a fit uses.
const QUIET_MIN: usize = 8;

/// Indices of the quietest `keep_share` of windows by steal share (at
/// least [`QUIET_MIN`], or all when there are fewer), in window order.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn quietest(shares: &[f64], keep_share: f64) -> Vec<usize> {
    let keep = ((shares.len() as f64 * keep_share).ceil() as usize).max(QUIET_MIN);
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[a].total_cmp(&shares[b]));
    order.truncate(keep);
    order.sort_unstable();
    order
}

/// Below this spread of window steal shares a fit has nothing to go on.
const MIN_STEAL_RANGE: f64 = 0.01;

/// The value at zero steal of the least-squares line through
/// `(steal share, rate)` points. Falls back to the mean rate with fewer
/// than three points, when the shares barely differ, or when the line
/// rises with steal: steal only takes time away, so a rising line is
/// noise, and extrapolating it would report less than was measured.
/// `None` without points.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn at_zero(points: &[(f64, f64)]) -> Option<f64> {
    if points.is_empty() {
        return None;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let (lo, hi) = points.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| {
        (lo.min(p.0), hi.max(p.0))
    });
    if points.len() < 3 || hi - lo < MIN_STEAL_RANGE {
        return Some(my);
    }
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = (sxy / sxx).min(0.0);
    Some(my - slope * mx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_interpolates_cumulative_ticks() {
        let samples = vec![(0, 0, 0), (100, 10, 100), (200, 10, 200)];
        assert!((share(&samples, 0, 100) - 0.1).abs() < 1e-12);
        assert!((share(&samples, 50, 150) - 0.05).abs() < 1e-12);
        assert_eq!(share(&samples, 100, 200), 0.0);
        assert_eq!(share(&Samples::new(), 0, 100), 0.0);
    }

    #[test]
    fn fit_recovers_the_unstolen_rate() {
        // rate = 100 · (1 − 2·steal): the line reaches 100 at zero steal.
        let points: Vec<(f64, f64)> = [0.05, 0.1, 0.2, 0.3]
            .iter()
            .map(|&s| (s, 100.0 * (1.0 - 2.0 * s)))
            .collect();
        assert!((at_zero(&points).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn quietest_keeps_a_quarter_but_at_least_eight() {
        let shares: Vec<f64> = (0..40).map(|i| f64::from((i * 7) % 40) / 100.0).collect();
        let kept = quietest(&shares, 0.25);
        assert_eq!(kept.len(), 10);
        assert!(kept.iter().all(|&i| shares[i] < 0.10));
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(quietest(&shares[..20], 0.25).len(), 8);
        assert_eq!(quietest(&shares[..5], 0.25).len(), 5);
        assert_eq!(quietest(&shares, 1.0), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn fit_falls_back_to_the_mean_without_a_steal_spread() {
        let flat = [(0.2, 90.0), (0.2, 110.0), (0.2, 100.0)];
        assert_eq!(at_zero(&flat), Some(100.0));
        assert_eq!(at_zero(&[(0.0, 5.0), (0.5, 1.0)]), Some(3.0));
        assert_eq!(at_zero(&[]), None);
    }

    #[test]
    fn fit_ignores_a_line_rising_with_steal() {
        let rising = [(0.1, 90.0), (0.2, 100.0), (0.3, 110.0)];
        assert_eq!(at_zero(&rising), Some(100.0));
    }
}
