//! Prometheus text exposition (format version 0.0.4) for the service
//! snapshot plus the HTTP layer's own counters.
//!
//! Everything is rendered from point-in-time snapshots, so a scrape is
//! internally consistent the same way the JSON snapshot is: the
//! histogram `_count` equals `ft_requests_served_total`, and the
//! quantile gauges are estimated from the very same buckets the scrape
//! exports (a dashboard recomputing `histogram_quantile` over them gets
//! the same numbers).

use crate::metrics::HttpSnapshot;
use ft_service::metrics::LATENCY_BUCKET_BOUNDS_US;
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

/// The scrape content type mandated by the text exposition format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, help, "counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// One sample per verification rung of an already-headed family.
fn rung_rows(out: &mut String, name: &str, residue: u64, dual: u64, recompute: u64) {
    for (rung, value) in [
        ("residue", residue),
        ("dual", dual),
        ("recompute", recompute),
    ] {
        let _ = writeln!(out, "{name}{{rung=\"{rung}\"}} {value}");
    }
}

/// Render one scrape from the three snapshots.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn render(service: &MetricsSnapshot, http: &HttpSnapshot, net: &NetStats) -> String {
    let mut out = String::with_capacity(8 * 1024);

    // --- Service throughput and backpressure -------------------------
    counter(
        &mut out,
        "ft_requests_served_total",
        "Multiplications completed successfully.",
        service.served,
    );
    counter(
        &mut out,
        "ft_rejected_queue_full_total",
        "Submissions refused at the queue boundary (backpressure).",
        service.rejected_queue_full,
    );
    counter(
        &mut out,
        "ft_timed_out_total",
        "Accepted requests whose deadline passed in queue.",
        service.timed_out,
    );
    counter(
        &mut out,
        "ft_shed_total",
        "Accepted requests shed under load.",
        service.shed,
    );
    header(
        &mut out,
        "ft_kernel_served_total",
        "Completions per kernel.",
        "counter",
    );
    for &(kernel, count) in &service.per_kernel {
        let _ = writeln!(out, "ft_kernel_served_total{{kernel=\"{kernel}\"}} {count}");
    }
    gauge(
        &mut out,
        "ft_queue_depth",
        "Queued requests at scrape time.",
        service.queue_depth as u64,
    );
    gauge(
        &mut out,
        "ft_queue_depth_high_water",
        "Largest single-queue depth observed at submit time.",
        service.queue_depth_high_water as u64,
    );

    // --- Completion-latency histogram + quantile gauges --------------
    header(
        &mut out,
        "ft_request_latency_us",
        "Completion latency of served multiplications, microseconds.",
        "histogram",
    );
    let mut cumulative = 0u64;
    for (i, &count) in service.latency_buckets.iter().enumerate() {
        cumulative += count;
        match LATENCY_BUCKET_BOUNDS_US.get(i) {
            Some(&bound) => {
                let _ = writeln!(
                    out,
                    "ft_request_latency_us_bucket{{le=\"{bound}\"}} {cumulative}"
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "ft_request_latency_us_bucket{{le=\"+Inf\"}} {cumulative}"
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "ft_request_latency_us_sum {}",
        service.latency_total_us
    );
    let _ = writeln!(out, "ft_request_latency_us_count {}", service.served);
    header(
        &mut out,
        "ft_request_latency_quantile_us",
        "Histogram-estimated completion-latency quantiles, microseconds.",
        "gauge",
    );
    for (q, v) in [
        ("0.5", service.p50_latency_us()),
        ("0.99", service.p99_latency_us()),
        ("0.999", service.p999_latency_us()),
    ] {
        let _ = writeln!(
            out,
            "ft_request_latency_quantile_us{{quantile=\"{q}\"}} {v}"
        );
    }

    // --- Batching, tuner, plan cache ---------------------------------
    counter(
        &mut out,
        "ft_batches_total",
        "Coalesced batches dispatched by the lanes.",
        service.batches,
    );
    counter(
        &mut out,
        "ft_batched_requests_total",
        "Requests that rode in coalesced batches.",
        service.batched_requests,
    );
    gauge(
        &mut out,
        "ft_batch_size_high_water",
        "Largest coalesced batch dispatched.",
        service.batch_size_high_water as u64,
    );
    counter(
        &mut out,
        "ft_batch_faults_total",
        "Whole-batch attempts that fell back to per-element execution.",
        service.batch_faults,
    );
    counter(
        &mut out,
        "ft_batch_element_retries_total",
        "Batch elements re-executed individually.",
        service.batch_element_retries,
    );
    counter(
        &mut out,
        "ft_tuner_retunes_total",
        "Kernel-policy updates published by the adaptive tuner.",
        service.tuner_retunes,
    );
    counter(
        &mut out,
        "ft_plan_cache_hits_total",
        "Toom-plan cache hits.",
        service.plan_cache_hits,
    );
    counter(
        &mut out,
        "ft_plan_cache_misses_total",
        "Toom-plan cache misses.",
        service.plan_cache_misses,
    );

    // --- Robustness: supervision, verification, breakers, chaos ------
    counter(
        &mut out,
        "ft_retries_total",
        "Supervised re-attempts after a failed attempt.",
        service.retries,
    );
    counter(
        &mut out,
        "ft_fallbacks_total",
        "Attempts executed on a kernel below the selected one.",
        service.fallbacks,
    );
    counter(
        &mut out,
        "ft_worker_faults_total",
        "Requests that exhausted the retry budget and the degradation ladder.",
        service.worker_faults,
    );
    counter(
        &mut out,
        "ft_residue_checks_total",
        "Products spot-checked by the residue verifier.",
        service.residue_checks,
    );
    counter(
        &mut out,
        "ft_verification_failures_total",
        "Spot-checks that caught an inconsistent product.",
        service.verification_failures,
    );
    let v = &service.verify;
    header(
        &mut out,
        "ftsvc_verify_checks_total",
        "Verification-ladder checks executed, by rung.",
        "counter",
    );
    rung_rows(
        &mut out,
        "ftsvc_verify_checks_total",
        v.residue_checks,
        v.dual_checks,
        v.recompute_checks,
    );
    header(
        &mut out,
        "ftsvc_verify_failures_total",
        "Verification-ladder checks that flagged a product, by rung.",
        "counter",
    );
    rung_rows(
        &mut out,
        "ftsvc_verify_failures_total",
        v.residue_failures,
        v.dual_failures,
        v.recompute_failures,
    );
    header(
        &mut out,
        "ftsvc_verify_cost_us_total",
        "Microseconds spent in each verification rung.",
        "counter",
    );
    rung_rows(
        &mut out,
        "ftsvc_verify_cost_us_total",
        v.residue_cost_us,
        v.dual_cost_us,
        v.recompute_cost_us,
    );
    counter(
        &mut out,
        "ftsvc_verify_escalations_total",
        "Dual-check disagreements escalated to a full recompute.",
        v.escalations,
    );
    counter(
        &mut out,
        "ft_breaker_opens_total",
        "Circuit-breaker transitions into the open state.",
        service.breaker_opens,
    );
    counter(
        &mut out,
        "ft_breaker_closes_total",
        "Circuit-breaker transitions back to closed.",
        service.breaker_closes,
    );
    header(
        &mut out,
        "ft_chaos_injected_total",
        "Chaos-injected faults by kind.",
        "counter",
    );
    for &(kind, count) in &service.injected_faults {
        let _ = writeln!(out, "ft_chaos_injected_total{{kind=\"{kind}\"}} {count}");
    }

    // --- Distributed backend (coded machine + heartbeat detector) ----
    let d = &service.distributed;
    counter(
        &mut out,
        "ft_distributed_runs_total",
        "Multiplications completed on the simulated coded machine.",
        d.runs,
    );
    counter(
        &mut out,
        "ft_distributed_recoveries_total",
        "Runs that survived at least one simulated processor death.",
        d.recoveries,
    );
    counter(
        &mut out,
        "ft_distributed_unrecoverable_total",
        "Distributed attempts whose faults exceeded the redundancy f.",
        d.unrecoverable,
    );
    counter(
        &mut out,
        "ft_distributed_false_positives_total",
        "Live ranks the in-machine detector wrongly declared dead.",
        d.false_positives,
    );
    counter(
        &mut out,
        "ft_distributed_detect_rounds_total",
        "Heartbeat detection rounds executed across all runs.",
        d.detect_rounds,
    );
    counter(
        &mut out,
        "ft_distributed_stragglers_flagged_total",
        "Ranks flagged and dropped as stragglers across all runs.",
        d.stragglers_flagged,
    );
    gauge(
        &mut out,
        "ft_distributed_max_detect_latency_ticks",
        "Worst heartbeat detection latency observed, simulated ticks.",
        d.max_detect_latency_ticks,
    );

    // --- Router (sharded topology) -----------------------------------
    let r = &service.router;
    gauge(
        &mut out,
        "ftsvc_router_shards",
        "Shards in the topology.",
        r.shards,
    );
    gauge(
        &mut out,
        "ftsvc_router_shards_live",
        "Shards currently routable (not declared dead).",
        r.live,
    );
    counter(
        &mut out,
        "ftsvc_router_shard_deaths_total",
        "Shards declared dead by the heartbeat verdict.",
        r.shard_deaths,
    );
    counter(
        &mut out,
        "ftsvc_router_failovers_total",
        "Requests re-routed to a survivor after their shard died.",
        r.failovers,
    );
    counter(
        &mut out,
        "ftsvc_router_steals_total",
        "Requests stolen from a hot shard by an idle sibling.",
        r.steals,
    );
    counter(
        &mut out,
        "ftsvc_router_rejoins_total",
        "Dead shards re-admitted after their heartbeats resumed.",
        r.rejoins,
    );
    counter(
        &mut out,
        "ftsvc_router_monitor_rounds_total",
        "Service-level heartbeat detection rounds executed.",
        r.monitor_rounds,
    );

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
        let route = row.route;
        let mut cumulative = 0u64;
        for (i, &count) in row.buckets.iter().enumerate() {
            cumulative += count;
            let le = LATENCY_BUCKET_BOUNDS_US
                .get(i)
                .map_or_else(|| "+Inf".to_string(), u64::to_string);
            let _ = writeln!(
                out,
                "http_request_duration_us_bucket{{route=\"{route}\",le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "http_request_duration_us_sum{{route=\"{route}\"}} {}",
            row.sum_us
        );
        let _ = writeln!(
            out,
            "http_request_duration_us_count{{route=\"{route}\"}} {}",
            row.count
        );
    }
    counter(
        &mut out,
        "http_streamed_results_total",
        "Batch result lines streamed over chunked responses.",
        http.streamed_results,
    );
    gauge(
        &mut out,
        "http_connections_active",
        "Open HTTP connections at scrape time.",
        net.active_connections as u64,
    );
    counter(
        &mut out,
        "http_connections_total",
        "HTTP connections accepted since startup.",
        net.total_connections,
    );
    counter(
        &mut out,
        "http_parse_errors_total",
        "Requests rejected by the HTTP parser.",
        net.parse_errors,
    );
    counter(
        &mut out,
        "http_accept_errors_total",
        "Transient accept() failures (each arms the accept backoff).",
        net.accept_errors,
    );
    counter(
        &mut out,
        "http_connections_rejected_total",
        "Connects answered 503 at the connection cap.",
        net.rejected_over_cap,
    );
    counter(
        &mut out,
        "http_request_timeouts_total",
        "Half-received requests answered 408 on read timeout.",
        net.request_timeouts,
    );

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
        m.record("mul", 200, 42);
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
        assert!(text.contains("ftsvc_verify_checks_total{rung=\"dual\"} 0"));
        assert!(text.contains("ftsvc_verify_failures_total{rung=\"recompute\"} 0"));
        assert!(text.contains("ftsvc_verify_cost_us_total{rung=\"dual\"} 0"));
        assert!(text.contains("ftsvc_verify_escalations_total 0"));
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
