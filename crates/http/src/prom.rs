//! Prometheus text exposition (format version 0.0.4) for the service
//! snapshot plus the HTTP layer's own counters.
//!
//! Everything is rendered from point-in-time snapshots, so a scrape is
//! internally consistent the same way the JSON snapshot is: the
//! histogram `_count` equals `ft_requests_served_total`, and the
//! quantile gauges are estimated from the very same buckets the scrape
//! exports (a dashboard recomputing `histogram_quantile` over them gets
//! the same numbers). The service's scalars come from the declarations
//! in [`ft_service::metrics::SCALARS`].

use crate::metrics::HttpSnapshot;
use ft_service::metrics::{BUCKETS, LATENCY_BUCKET_BOUNDS_US, SCALARS};
use ft_service::MetricsSnapshot;
use std::fmt::Write as _;

/// Connection-level stats of the ft-net server, sampled at scrape time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections currently open.
    pub active_connections: usize,
    /// Connections accepted since startup.
    pub total_connections: u64,
    /// Requests rejected by the HTTP parser (malformed, oversized, …).
    pub parse_errors: u64,
    /// Transient `accept()` failures (each arms the accept backoff).
    pub accept_errors: u64,
    /// Connects answered `503` because the connection cap was reached.
    pub rejected_over_cap: u64,
    /// Half-received requests answered `408` on read timeout.
    pub request_timeouts: u64,
}

impl From<&ft_net::ServerStats> for NetStats {
    fn from(stats: &ft_net::ServerStats) -> NetStats {
        NetStats {
            active_connections: stats.active_connections(),
            total_connections: stats.total_connections(),
            parse_errors: stats.parse_errors(),
            accept_errors: stats.accept_errors(),
            rejected_over_cap: stats.rejected_over_cap(),
            request_timeouts: stats.request_timeouts(),
        }
    }
}

/// The scrape content type mandated by the text exposition format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// The samples of one histogram over [`LATENCY_BUCKET_BOUNDS_US`]:
/// cumulative buckets, the sum, and the count (the bucket sum). `labels`
/// is `""` or a label list such as `route="mul"`.
fn histogram(out: &mut String, name: &str, labels: &str, buckets: &[u64; BUCKETS], sum: u64) {
    let mut cumulative = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        cumulative += count;
        let le = LATENCY_BUCKET_BOUNDS_US
            .get(i)
            .map_or_else(|| "+Inf".to_string(), u64::to_string);
        let sep = if labels.is_empty() { "" } else { "," };
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
        );
    }
    let labels = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_sum{labels} {sum}");
    let _ = writeln!(out, "{name}_count{labels} {cumulative}");
}

/// Render one scrape from the three snapshots.
#[must_use]
pub fn render(service: &MetricsSnapshot, http: &HttpSnapshot, net: &NetStats) -> String {
    let mut out = String::with_capacity(8 * 1024);

    // --- Service scalars: one header per family, then its samples -----
    let mut family = "";
    for row in SCALARS {
        let name = row.prom.split('{').next().unwrap_or(row.prom);
        if name != family {
            header(&mut out, name, row.help, row.prom_type);
            family = name;
        }
        let _ = writeln!(out, "{} {}", row.prom, (row.get)(service));
    }

    // --- Labelled service families -------------------------------------
    header(
        &mut out,
        "ft_kernel_served_total",
        "Completions per kernel.",
        "counter",
    );
    for &(kernel, count) in &service.per_kernel {
        let _ = writeln!(out, "ft_kernel_served_total{{kernel=\"{kernel}\"}} {count}");
    }
    header(
        &mut out,
        "ft_chaos_injected_total",
        "Chaos-injected faults by kind.",
        "counter",
    );
    for &(kind, count) in &service.injected_faults {
        let _ = writeln!(out, "ft_chaos_injected_total{{kind=\"{kind}\"}} {count}");
    }

    // --- Completion-latency histogram + quantile gauges --------------
    header(
        &mut out,
        "ft_request_latency_us",
        "Completion latency of served multiplications, microseconds.",
        "histogram",
    );
    histogram(
        &mut out,
        "ft_request_latency_us",
        "",
        &service.latency_buckets,
        service.latency_total_us,
    );
    let name = "ft_request_latency_quantile_us";
    header(
        &mut out,
        name,
        "Histogram-estimated completion-latency quantiles, microseconds.",
        "gauge",
    );
    for q in [0.5, 0.99, 0.999] {
        let v = service.latency_quantile_us(q);
        let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
    }

    // --- HTTP layer ---------------------------------------------------
    header(
        &mut out,
        "http_requests_total",
        "HTTP exchanges by route and status code.",
        "counter",
    );
    for &(route, status, count) in &http.by_status {
        let _ = writeln!(
            out,
            "http_requests_total{{route=\"{route}\",code=\"{status}\"}} {count}"
        );
    }
    header(
        &mut out,
        "http_request_duration_us",
        "HTTP exchange duration by route, microseconds.",
        "histogram",
    );
    for row in &http.histograms {
        let labels = format!("route=\"{}\"", row.route);
        histogram(
            &mut out,
            "http_request_duration_us",
            &labels,
            &row.buckets,
            row.sum_us,
        );
    }
    for (name, kind, help, value) in [
        (
            "http_streamed_results_total",
            "counter",
            "Batch result lines streamed over chunked responses.",
            http.streamed_results,
        ),
        (
            "http_connections_active",
            "gauge",
            "Open HTTP connections at scrape time.",
            net.active_connections as u64,
        ),
        (
            "http_connections_total",
            "counter",
            "HTTP connections accepted since startup.",
            net.total_connections,
        ),
        (
            "http_parse_errors_total",
            "counter",
            "Requests rejected by the HTTP parser.",
            net.parse_errors,
        ),
        (
            "http_accept_errors_total",
            "counter",
            "Transient accept() failures (each arms the accept backoff).",
            net.accept_errors,
        ),
        (
            "http_connections_rejected_total",
            "counter",
            "Connects answered 503 at the connection cap.",
            net.rejected_over_cap,
        ),
        (
            "http_request_timeouts_total",
            "counter",
            "Half-received requests answered 408 on read timeout.",
            net.request_timeouts,
        ),
    ] {
        header(&mut out, name, help, kind);
        let _ = writeln!(out, "{name} {value}");
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HttpMetrics;

    fn lines_of(text: &str) -> Vec<&str> {
        text.lines().collect()
    }

    #[test]
    fn exposition_is_well_formed() {
        let service = MetricsSnapshot::default();
        let m = HttpMetrics::default();
        m.record(crate::metrics::Route::Mul, 200, 42);
        let net = NetStats {
            active_connections: 1,
            total_connections: 3,
            parse_errors: 2,
            accept_errors: 4,
            rejected_over_cap: 5,
            request_timeouts: 6,
        };
        let text = render(&service, &m.snapshot(), &net);
        for line in lines_of(&text) {
            assert!(
                line.starts_with("# HELP ")
                    || line.starts_with("# TYPE ")
                    || line.split_once(' ').is_some_and(
                        |(name, value)| !name.is_empty() && value.parse::<u64>().is_ok()
                    ),
                "bad exposition line: {line:?}"
            );
        }
        // Every # TYPE'd metric family appears with at least one sample
        // (counter/gauge families always emit; labeled families emit per
        // observed label set, and this scrape observed one of each).
        assert!(text.contains("ft_requests_served_total 0"));
        assert!(text.contains("ft_request_latency_us_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("ft_request_latency_quantile_us{quantile=\"0.999\"} 0"));
        assert!(text.contains("ft_distributed_detect_rounds_total 0"));
        assert!(text.contains("ftsvc_verify_checks_total{rung=\"residue\"} 0"));
        assert!(text.contains("ftsvc_verify_failures_total{rung=\"residue\"} 0"));
        assert!(text.contains("ftsvc_verify_cost_us_total{rung=\"residue\"} 0"));
        assert!(text.contains("ftsvc_router_shards 0"));
        assert!(text.contains("ftsvc_router_shard_deaths_total 0"));
        assert!(text.contains("ftsvc_router_failovers_total 0"));
        assert!(text.contains("ftsvc_router_steals_total 0"));
        assert!(text.contains("ftsvc_router_rejoins_total 0"));
        assert!(text.contains("http_requests_total{route=\"mul\",code=\"200\"} 1"));
        assert!(text.contains("http_request_duration_us_count{route=\"mul\"} 1"));
        assert!(text.contains("http_connections_total 3"));
        assert!(text.contains("http_parse_errors_total 2"));
        assert!(text.contains("http_accept_errors_total 4"));
        assert!(text.contains("http_connections_rejected_total 5"));
        assert!(text.contains("http_request_timeouts_total 6"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_match_count() {
        let mut service = MetricsSnapshot::default();
        service.latency_buckets[0] = 4;
        service.latency_buckets[3] = 2;
        service.latency_buckets[8] = 1; // overflow
        service.served = 7;
        service.latency_total_us = 12_345;
        let text = render(&service, &HttpSnapshot::default(), &NetStats::default());
        assert!(text.contains("ft_request_latency_us_bucket{le=\"100\"} 4"));
        assert!(text.contains("ft_request_latency_us_bucket{le=\"5000\"} 6"));
        assert!(text.contains("ft_request_latency_us_bucket{le=\"+Inf\"} 7"));
        assert!(text.contains("ft_request_latency_us_sum 12345"));
        assert!(text.contains("ft_request_latency_us_count 7"));
    }
}
