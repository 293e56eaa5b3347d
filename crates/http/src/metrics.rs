//! HTTP-layer metrics: per-route request counters by status code and
//! per-route latency histograms, kept separately from the service's own
//! [`ft_service::MetricsSnapshot`] (which counts multiplications, not
//! HTTP exchanges — one batch POST is one exchange but many
//! multiplications).
//!
//! The histograms are the service's own [`Histogram`] type, over the
//! same bucket bounds ([`ft_service::metrics::LATENCY_BUCKET_BOUNDS_US`]),
//! so the two layers line up on a dashboard: the gap between a route's
//! duration and the service's completion latency is the HTTP overhead
//! (parse, JSON, socket writes).

use ft_service::metrics::{Histogram, BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The fixed route labels, in [`Route`] order. Unknown paths and bad
/// methods aggregate under `"other"` so a path-scanning client cannot
/// grow the label set.
pub const ROUTES: [&str; 8] = [
    "mul",
    "mul_batch",
    "config",
    "topology",
    "metrics",
    "metrics_json",
    "healthz",
    "other",
];

/// A route as the metrics see it: its discriminant indexes [`ROUTES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Mul,
    MulBatch,
    Config,
    Topology,
    Metrics,
    MetricsJson,
    Healthz,
    Other,
}

/// Live HTTP-layer counters, updated by the request handler.
#[derive(Debug, Default)]
pub struct HttpMetrics {
    /// (route, status) → completed exchanges.
    by_status: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// Duration histogram (µs) per route, in [`ROUTES`] order.
    histograms: [Histogram; ROUTES.len()],
    /// Batch result lines streamed over chunked responses.
    streamed_results: AtomicU64,
}

impl HttpMetrics {
    /// Record one finished exchange on `route` with `status`, taking
    /// `elapsed_us` from request-parsed to response-flushed.
    pub fn record(&self, route: Route, status: u16, elapsed_us: u64) {
        *self
            .by_status
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry((ROUTES[route as usize], status))
            .or_insert(0) += 1;
        self.histograms[route as usize].observe(elapsed_us);
    }

    /// Count one batch result line streamed to a client.
    pub fn record_streamed(&self) {
        self.streamed_results.fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent point-in-time copy for rendering.
    #[must_use]
    pub fn snapshot(&self) -> HttpSnapshot {
        let by_status = self
            .by_status
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(&(route, status), &n)| (route, status, n))
            .collect();
        let histograms = ROUTES
            .iter()
            .zip(&self.histograms)
            .filter_map(|(&route, h)| {
                let (buckets, sum_us) = h.read();
                let count = buckets.iter().sum();
                (count > 0).then_some(HttpHistogramRow {
                    route,
                    buckets,
                    sum_us,
                    count,
                })
            })
            .collect();
        HttpSnapshot {
            by_status,
            histograms,
            streamed_results: self.streamed_results.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`HttpMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HttpSnapshot {
    /// (route, status, count) rows, sorted by route then status.
    pub by_status: Vec<(&'static str, u16, u64)>,
    /// One histogram row per route that served at least one exchange.
    pub histograms: Vec<HttpHistogramRow>,
    /// Batch result lines streamed over chunked responses.
    pub streamed_results: u64,
}

/// One route's duration histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpHistogramRow {
    pub route: &'static str,
    /// Bucket `i` counts exchanges at or under
    /// [`LATENCY_BUCKET_BOUNDS_US`](ft_service::metrics::LATENCY_BUCKET_BOUNDS_US)`[i]`
    /// µs; the last bucket is overflow.
    pub buckets: [u64; BUCKETS],
    /// Sum of durations, µs (saturating).
    pub sum_us: u64,
    /// Total exchanges (equals the bucket sum).
    pub count: u64,
}

impl HttpSnapshot {
    /// Total exchanges across every route and status.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.by_status.iter().map(|&(_, _, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_by_route_and_status() {
        let m = HttpMetrics::default();
        m.record(Route::Mul, 200, 50);
        m.record(Route::Mul, 200, 700);
        m.record(Route::Mul, 400, 10);
        m.record(Route::Healthz, 200, 5);
        m.record_streamed();
        m.record_streamed();
        let s = m.snapshot();
        assert_eq!(s.total_requests(), 4);
        assert!(s.by_status.contains(&("mul", 200, 2)));
        assert!(s.by_status.contains(&("mul", 400, 1)));
        assert_eq!(s.streamed_results, 2);
        let mul = s.histograms.iter().find(|h| h.route == "mul").unwrap();
        assert_eq!(mul.count, 3);
        assert_eq!(mul.buckets.iter().sum::<u64>(), 3);
        // 50µs and 10µs land in the first bucket (≤100), 700µs in the
        // third (≤1000).
        assert_eq!(mul.buckets[0], 2);
        assert_eq!(mul.buckets[2], 1);
        assert_eq!(mul.sum_us, 760);
    }

    #[test]
    fn overflow_bucket_catches_huge_durations() {
        let m = HttpMetrics::default();
        m.record(Route::Metrics, 200, u64::MAX);
        let s = m.snapshot();
        let h = s.histograms.iter().find(|h| h.route == "metrics").unwrap();
        assert_eq!(h.buckets[BUCKETS - 1], 1);
        assert_eq!(h.sum_us, u64::MAX);
    }
}
