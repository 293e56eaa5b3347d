//! Golden scrape: a fully populated snapshot, merged into a second one,
//! must render to exactly the pinned `/v1/metrics` JSON and the pinned
//! Prometheus sample and `# TYPE` lines. `# HELP` text is left out so
//! help wording can change without touching the pins.

mod common;

use ft_http::metrics::{HttpHistogramRow, HttpSnapshot};
use ft_http::prom::{self, NetStats};
use ft_service::metrics::KernelClassRow;
use ft_service::{
    DistributedSnapshot, FaultKind, Kernel, MetricsSnapshot, RouterSnapshot, VerifySnapshot,
};

/// Every scalar distinct and non-zero; all kernels, fault kinds and
/// latency buckets filled; three size-class rows.
fn full_snapshot() -> MetricsSnapshot {
    let latency_buckets = [11, 12, 13, 14, 15, 16, 17, 18, 19];
    MetricsSnapshot {
        served: latency_buckets.iter().sum(),
        rejected_queue_full: 101,
        timed_out: 102,
        shed: 103,
        per_kernel: Kernel::ALL.map(|k| (k.name(), 201 + k as u64)),
        queue_depth: 104,
        queue_depth_high_water: 105,
        latency_buckets,
        latency_total_us: 987_654,
        kernel_classes: vec![
            KernelClassRow {
                kernel: "schoolbook",
                class_bits: 1 << 10,
                served: 7,
                total_us: 700,
            },
            KernelClassRow {
                kernel: "seq_toom",
                class_bits: 1 << 14,
                served: 3,
                total_us: 9_000,
            },
            KernelClassRow {
                kernel: "ntt",
                class_bits: 1 << 22,
                served: 2,
                total_us: 1_400_000,
            },
        ],
        batches: 106,
        batched_requests: 107,
        batch_size_high_water: 108,
        batch_faults: 109,
        batch_element_retries: 110,
        tuner_retunes: 111,
        plan_cache_hits: 112,
        plan_cache_misses: 113,
        retries: 114,
        fallbacks: 115,
        worker_faults: 116,
        residue_checks: 117,
        verification_failures: 118,
        verify: VerifySnapshot {
            residue_checks: 301,
            residue_failures: 302,
            residue_cost_us: 303,
            ..VerifySnapshot::default()
        },
        breaker_opens: 119,
        breaker_closes: 120,
        injected_faults: FaultKind::ALL.map(|k| (k.name(), 401 + k as u64)),
        distributed: DistributedSnapshot {
            runs: 501,
            recoveries: 502,
            unrecoverable: 503,
            false_positives: 504,
            detect_rounds: 505,
            stragglers_flagged: 506,
            max_detect_latency_ticks: 507,
        },
        router: RouterSnapshot {
            shards: 601,
            live: 602,
            shard_deaths: 603,
            failovers: 604,
            steals: 605,
            rejoins: 606,
            monitor_rounds: 607,
        },
    }
}

/// The second shard: a few counters of its own, one high-water mark above
/// the first shard's and two below, one shared size-class cell, and the
/// router section the merge must leave alone.
fn merged_snapshot() -> MetricsSnapshot {
    let mut acc = MetricsSnapshot::default();
    acc.latency_buckets[0] = 1;
    acc.latency_buckets[8] = 2;
    acc.served = 3;
    acc.latency_total_us = 4_000_005;
    acc.retries = 6;
    acc.per_kernel[1].1 = 7;
    acc.injected_faults[2].1 = 8;
    acc.queue_depth_high_water = 9_999;
    acc.batch_size_high_water = 1;
    acc.distributed.max_detect_latency_ticks = 2;
    acc.verify.residue_cost_us = u64::MAX - 5;
    acc.kernel_classes = vec![KernelClassRow {
        kernel: "schoolbook",
        class_bits: 1 << 10,
        served: 1,
        total_us: 300,
    }];
    acc.router = RouterSnapshot {
        shards: 3,
        live: 2,
        shard_deaths: 1,
        failovers: 9,
        steals: 4,
        rejoins: 0,
        monitor_rounds: 77,
    };
    acc.merge(&full_snapshot());
    acc
}

fn http_snapshot() -> HttpSnapshot {
    let row = |route, buckets: [u64; 9], sum_us| HttpHistogramRow {
        route,
        buckets,
        sum_us,
        count: buckets.iter().sum(),
    };
    HttpSnapshot {
        by_status: vec![
            ("healthz", 200, 2),
            ("mul", 200, 40),
            ("mul", 400, 3),
            ("mul", 429, 1),
            ("mul_batch", 200, 5),
            ("other", 404, 6),
        ],
        histograms: vec![
            row("healthz", [2, 0, 0, 0, 0, 0, 0, 0, 0], 31),
            row("mul", [10, 9, 8, 7, 6, 1, 1, 1, 1], 1_234_567),
            row("mul_batch", [0, 0, 1, 1, 1, 1, 1, 0, 0], 765_432),
            row("other", [6, 0, 0, 0, 0, 0, 0, 0, 0], 60),
        ],
        streamed_results: 55,
    }
}

const NET: NetStats = NetStats {
    active_connections: 3,
    total_connections: 21,
    parse_errors: 4,
    accept_errors: 5,
    rejected_over_cap: 6,
    request_timeouts: 7,
};

/// The scrape's sample and `# TYPE` lines, sorted.
fn pinned_lines(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().filter(|l| !l.starts_with("# HELP ")).collect();
    lines.sort_unstable();
    lines
}

#[test]
fn merged_snapshot_renders_the_pinned_json() {
    assert_eq!(merged_snapshot().to_json(), GOLDEN_JSON);
}

#[test]
fn merged_snapshot_renders_the_pinned_scrape() {
    let text = prom::render(&merged_snapshot(), &http_snapshot(), &NET);
    assert_eq!(
        pinned_lines(&text),
        GOLDEN_SCRAPE.lines().collect::<Vec<_>>()
    );
    common::assert_exposition_is_well_formed(&text);
}

#[test]
fn default_snapshot_scrape_repeats_no_series() {
    let text = prom::render(
        &MetricsSnapshot::default(),
        &HttpSnapshot::default(),
        &NetStats::default(),
    );
    common::assert_exposition_is_well_formed(&text);
    for kernel in Kernel::ALL {
        let series = format!("ft_kernel_served_total{{kernel=\"{}\"}} 0", kernel.name());
        assert!(text.contains(&series), "missing {series}");
    }
    for kind in FaultKind::ALL {
        let series = format!("ft_chaos_injected_total{{kind=\"{}\"}} 0", kind.name());
        assert!(text.contains(&series), "missing {series}");
    }
}

const GOLDEN_JSON: &str = "{\"batching\":{\"batch_element_retries\":110,\"batch_faults\":109,\"batch_size_high_water\":108,\
    \"batched_requests\":107,\"batches\":106},\"distributed\":{\"detect_rounds\":505,\
    \"false_positives\":504,\"max_detect_latency_ticks\":507,\"recoveries\":502,\"runs\":501,\
    \"stragglers_flagged\":506,\"unrecoverable\":503},\"latency_buckets\":[{\"count\":12,\
    \"le_us\":100},{\"count\":12,\"le_us\":500},{\"count\":13,\"le_us\":1000},{\"count\":14,\
    \"le_us\":5000},{\"count\":15,\"le_us\":25000},{\"count\":16,\"le_us\":100000},{\"count\":17,\
    \"le_us\":500000},{\"count\":18,\"le_us\":2000000},{\"count\":21,\"le_us\":null}],\
    \"latency_quantiles\":{\"p50_us\":39063,\"p999_us\":2000000,\"p99_us\":2000000},\
    \"mean_latency_us\":36142,\"per_kernel\":{\"distributed_toom\":205,\"ntt\":204,\
    \"par_toom\":203,\"schoolbook\":201,\"seq_toom\":209},\"plan_cache_hits\":112,\"plan_cache_misses\":113,\
    \"queue_depth\":104,\"queue_depth_high_water\":9999,\"rejected_queue_full\":101,\
    \"robustness\":{\"breaker_closes\":120,\"breaker_opens\":119,\"fallbacks\":115,\
    \"injected_faults\":{\"corrupt\":411,\"panic\":401,\"shard_kill\":404,\"shard_stall\":405,\
    \"straggle\":402},\"residue_checks\":117,\"retries\":120,\"verification_failures\":118,\
    \"worker_faults\":116},\"router\":{\"failovers\":9,\"live\":2,\"monitor_rounds\":77,\
    \"rejoins\":0,\"shard_deaths\":1,\"shards\":3,\"steals\":4},\"served\":138,\"shed\":103,\
    \"size_classes\":[{\"class_bits\":1024,\"kernel\":\"schoolbook\",\"mean_us\":125,\
    \"served\":8},{\"class_bits\":16384,\"kernel\":\"seq_toom\",\"mean_us\":3000,\"served\":3},\
    {\"class_bits\":4194304,\"kernel\":\"ntt\",\"mean_us\":700000,\"served\":2}],\"timed_out\":102,\
    \"tuner_retunes\":111,\"verify\":{\"residue_checks\":301,\"residue_cost_us\":18446744073709551615,\
    \"residue_failures\":302}}";

const GOLDEN_SCRAPE: &str = r#"# TYPE ft_batch_element_retries_total counter
# TYPE ft_batch_faults_total counter
# TYPE ft_batch_size_high_water gauge
# TYPE ft_batched_requests_total counter
# TYPE ft_batches_total counter
# TYPE ft_breaker_closes_total counter
# TYPE ft_breaker_opens_total counter
# TYPE ft_chaos_injected_total counter
# TYPE ft_distributed_detect_rounds_total counter
# TYPE ft_distributed_false_positives_total counter
# TYPE ft_distributed_max_detect_latency_ticks gauge
# TYPE ft_distributed_recoveries_total counter
# TYPE ft_distributed_runs_total counter
# TYPE ft_distributed_stragglers_flagged_total counter
# TYPE ft_distributed_unrecoverable_total counter
# TYPE ft_fallbacks_total counter
# TYPE ft_kernel_served_total counter
# TYPE ft_plan_cache_hits_total counter
# TYPE ft_plan_cache_misses_total counter
# TYPE ft_queue_depth gauge
# TYPE ft_queue_depth_high_water gauge
# TYPE ft_rejected_queue_full_total counter
# TYPE ft_request_latency_quantile_us gauge
# TYPE ft_request_latency_us histogram
# TYPE ft_requests_served_total counter
# TYPE ft_residue_checks_total counter
# TYPE ft_retries_total counter
# TYPE ft_shed_total counter
# TYPE ft_timed_out_total counter
# TYPE ft_tuner_retunes_total counter
# TYPE ft_verification_failures_total counter
# TYPE ft_worker_faults_total counter
# TYPE ftsvc_router_failovers_total counter
# TYPE ftsvc_router_monitor_rounds_total counter
# TYPE ftsvc_router_rejoins_total counter
# TYPE ftsvc_router_shard_deaths_total counter
# TYPE ftsvc_router_shards gauge
# TYPE ftsvc_router_shards_live gauge
# TYPE ftsvc_router_steals_total counter
# TYPE ftsvc_verify_checks_total counter
# TYPE ftsvc_verify_cost_us_total counter
# TYPE ftsvc_verify_failures_total counter
# TYPE http_accept_errors_total counter
# TYPE http_connections_active gauge
# TYPE http_connections_rejected_total counter
# TYPE http_connections_total counter
# TYPE http_parse_errors_total counter
# TYPE http_request_duration_us histogram
# TYPE http_request_timeouts_total counter
# TYPE http_requests_total counter
# TYPE http_streamed_results_total counter
ft_batch_element_retries_total 110
ft_batch_faults_total 109
ft_batch_size_high_water 108
ft_batched_requests_total 107
ft_batches_total 106
ft_breaker_closes_total 120
ft_breaker_opens_total 119
ft_chaos_injected_total{kind="corrupt"} 411
ft_chaos_injected_total{kind="panic"} 401
ft_chaos_injected_total{kind="shard_kill"} 404
ft_chaos_injected_total{kind="shard_stall"} 405
ft_chaos_injected_total{kind="straggle"} 402
ft_distributed_detect_rounds_total 505
ft_distributed_false_positives_total 504
ft_distributed_max_detect_latency_ticks 507
ft_distributed_recoveries_total 502
ft_distributed_runs_total 501
ft_distributed_stragglers_flagged_total 506
ft_distributed_unrecoverable_total 503
ft_fallbacks_total 115
ft_kernel_served_total{kernel="distributed_toom"} 205
ft_kernel_served_total{kernel="ntt"} 204
ft_kernel_served_total{kernel="par_toom"} 203
ft_kernel_served_total{kernel="schoolbook"} 201
ft_kernel_served_total{kernel="seq_toom"} 209
ft_plan_cache_hits_total 112
ft_plan_cache_misses_total 113
ft_queue_depth 104
ft_queue_depth_high_water 9999
ft_rejected_queue_full_total 101
ft_request_latency_quantile_us{quantile="0.5"} 39063
ft_request_latency_quantile_us{quantile="0.99"} 2000000
ft_request_latency_quantile_us{quantile="0.999"} 2000000
ft_request_latency_us_bucket{le="+Inf"} 138
ft_request_latency_us_bucket{le="100"} 12
ft_request_latency_us_bucket{le="1000"} 37
ft_request_latency_us_bucket{le="100000"} 82
ft_request_latency_us_bucket{le="2000000"} 117
ft_request_latency_us_bucket{le="25000"} 66
ft_request_latency_us_bucket{le="500"} 24
ft_request_latency_us_bucket{le="5000"} 51
ft_request_latency_us_bucket{le="500000"} 99
ft_request_latency_us_count 138
ft_request_latency_us_sum 4987659
ft_requests_served_total 138
ft_residue_checks_total 117
ft_retries_total 120
ft_shed_total 103
ft_timed_out_total 102
ft_tuner_retunes_total 111
ft_verification_failures_total 118
ft_worker_faults_total 116
ftsvc_router_failovers_total 9
ftsvc_router_monitor_rounds_total 77
ftsvc_router_rejoins_total 0
ftsvc_router_shard_deaths_total 1
ftsvc_router_shards 3
ftsvc_router_shards_live 2
ftsvc_router_steals_total 4
ftsvc_verify_checks_total{rung="residue"} 301
ftsvc_verify_cost_us_total{rung="residue"} 18446744073709551615
ftsvc_verify_failures_total{rung="residue"} 302
http_accept_errors_total 5
http_connections_active 3
http_connections_rejected_total 6
http_connections_total 21
http_parse_errors_total 4
http_request_duration_us_bucket{route="healthz",le="+Inf"} 2
http_request_duration_us_bucket{route="healthz",le="100"} 2
http_request_duration_us_bucket{route="healthz",le="1000"} 2
http_request_duration_us_bucket{route="healthz",le="100000"} 2
http_request_duration_us_bucket{route="healthz",le="2000000"} 2
http_request_duration_us_bucket{route="healthz",le="25000"} 2
http_request_duration_us_bucket{route="healthz",le="500"} 2
http_request_duration_us_bucket{route="healthz",le="5000"} 2
http_request_duration_us_bucket{route="healthz",le="500000"} 2
http_request_duration_us_bucket{route="mul",le="+Inf"} 44
http_request_duration_us_bucket{route="mul",le="100"} 10
http_request_duration_us_bucket{route="mul",le="1000"} 27
http_request_duration_us_bucket{route="mul",le="100000"} 41
http_request_duration_us_bucket{route="mul",le="2000000"} 43
http_request_duration_us_bucket{route="mul",le="25000"} 40
http_request_duration_us_bucket{route="mul",le="500"} 19
http_request_duration_us_bucket{route="mul",le="5000"} 34
http_request_duration_us_bucket{route="mul",le="500000"} 42
http_request_duration_us_bucket{route="mul_batch",le="+Inf"} 5
http_request_duration_us_bucket{route="mul_batch",le="100"} 0
http_request_duration_us_bucket{route="mul_batch",le="1000"} 1
http_request_duration_us_bucket{route="mul_batch",le="100000"} 4
http_request_duration_us_bucket{route="mul_batch",le="2000000"} 5
http_request_duration_us_bucket{route="mul_batch",le="25000"} 3
http_request_duration_us_bucket{route="mul_batch",le="500"} 0
http_request_duration_us_bucket{route="mul_batch",le="5000"} 2
http_request_duration_us_bucket{route="mul_batch",le="500000"} 5
http_request_duration_us_bucket{route="other",le="+Inf"} 6
http_request_duration_us_bucket{route="other",le="100"} 6
http_request_duration_us_bucket{route="other",le="1000"} 6
http_request_duration_us_bucket{route="other",le="100000"} 6
http_request_duration_us_bucket{route="other",le="2000000"} 6
http_request_duration_us_bucket{route="other",le="25000"} 6
http_request_duration_us_bucket{route="other",le="500"} 6
http_request_duration_us_bucket{route="other",le="5000"} 6
http_request_duration_us_bucket{route="other",le="500000"} 6
http_request_duration_us_count{route="healthz"} 2
http_request_duration_us_count{route="mul"} 44
http_request_duration_us_count{route="mul_batch"} 5
http_request_duration_us_count{route="other"} 6
http_request_duration_us_sum{route="healthz"} 31
http_request_duration_us_sum{route="mul"} 1234567
http_request_duration_us_sum{route="mul_batch"} 765432
http_request_duration_us_sum{route="other"} 60
http_request_timeouts_total 7
http_requests_total{route="healthz",code="200"} 2
http_requests_total{route="mul",code="200"} 40
http_requests_total{route="mul",code="400"} 3
http_requests_total{route="mul",code="429"} 1
http_requests_total{route="mul_batch",code="200"} 5
http_requests_total{route="other",code="404"} 6
http_streamed_results_total 55"#;
