//! Metric declarations, their computation from a measured phase, and
//! the printed report. Every metric is declared once here, with its
//! unit; BENCHMARK.json must list the same names and units.

use crate::steal;
use crate::trace::{kernel_span, Replay, Tracer, RUNGS};
use crate::workload::Workload;
use crate::{stats, Phase};

use ft_http::metrics::HttpSnapshot;
use ft_http::prom::NetStats;
use ft_http::HttpServer;
use ft_service::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::PathBuf;

/// Printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("products_per_s", "products/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// Printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("ft_net.transport_mean_us", "us"),
    ("ft_net.parse_us", "us"),
    ("ft_net.connections", "count"),
    ("ft_net.parse_errors", "count"),
    ("ft_net.request_timeouts", "count"),
    ("ft_http.handler_mean_us", "us"),
    ("ft_http.requests", "count"),
    ("ft_http.non_2xx", "count"),
    ("ft_http.streamed_results", "count"),
    ("codec.decode_us", "us"),
    ("codec.encode_us", "us"),
    ("codec.decode_us_per_mbit", "us/Mbit"),
    ("codec.encode_us_per_mbit", "us/Mbit"),
    ("router.submit_us", "us"),
    ("router.shard_deaths", "count"),
    ("router.failovers", "count"),
    ("router.steals", "count"),
    ("dispatcher.wait_us", "us"),
    ("dispatcher.batches", "count"),
    ("dispatcher.mean_batch_fill", "count"),
    ("dispatcher.queue_depth_high_water", "count"),
    ("service.latency_p50_us", "us"),
    ("service.latency_p99_us", "us"),
    ("supervisor.retries", "count"),
    ("supervisor.fallbacks", "count"),
    ("supervisor.breaker_opens", "count"),
    ("supervisor.worker_faults", "count"),
    ("supervisor.batch_element_retries", "count"),
    ("supervisor.injected_panic", "count"),
    ("supervisor.injected_corrupt", "count"),
    ("supervisor.injected_straggle", "count"),
    ("supervisor.retry_success_ratio", "ratio"),
    ("verify.residue_us", "us"),
    ("verify.residue_checks", "count"),
    ("verify.dual_checks", "count"),
    ("verify.recompute_checks", "count"),
    ("verify.residue_failures", "count"),
    ("verify.dual_catch_ratio", "ratio"),
    ("kernel.schoolbook.us", "us"),
    ("kernel.schoolbook.served", "count"),
    ("kernel.schoolbook.word_ops", "count"),
    ("kernel.seq_toom.us", "us"),
    ("kernel.seq_toom.served", "count"),
    ("kernel.seq_toom.word_ops", "count"),
    ("kernel.par_toom.us", "us"),
    ("kernel.par_toom.served", "count"),
    ("kernel.ntt.us", "us"),
    ("kernel.ntt.served", "count"),
    ("kernel.ntt.word_ops", "count"),
    ("plan_cache.hits", "count"),
    ("plan_cache.misses", "count"),
    ("process.peak_rss_mb", "MB"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.reconnects", "count"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.overhead_products_pct", "%"),
    ("attribution.unattributed_us", "us"),
];

/// The git revision, host parallelism and build profile of this run.
#[must_use]
pub fn stamp(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    // `--git-dir .git` keeps git from reporting an enclosing repository
    // when the checkout is not one.
    let rev = std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "# ftbench workload={workload} seed={seed} seconds={seconds} trace={} git_rev={rev} nproc={nproc} profile={profile}",
        u8::from(trace)
    )
}

/// Where a traced run writes its spans.
#[must_use]
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-{seed}.jsonl"))
}

/// The final line: `correct`, `attempted`, `failed` and the `metrics`
/// named in `declared`, in declaration order, each with its unit.
///
/// # Panics
/// If `values` misses a declared metric or holds an undeclared one.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    assert_eq!(
        values.len(),
        declared.len(),
        "metric set differs from its declaration"
    );
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = values[name];
        // JSON has no infinity: a failed exchange's latency prints as the
        // largest finite double.
        let v = if v.is_finite() {
            v.to_string()
        } else {
            format!("{:e}", f64::MAX)
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Server counters at one instant.
pub struct Counters {
    service: MetricsSnapshot,
    http: HttpSnapshot,
    net: NetStats,
}

impl Counters {
    pub fn read(server: &HttpServer) -> Counters {
        Counters {
            service: server.router().metrics(),
            http: server.http_metrics(),
            net: server.net_stats(),
        }
    }
}

/// What a traced phase adds: counters around it, spans and the replay.
pub struct Traced {
    pub before: Counters,
    pub after: Counters,
    pub tracer: Tracer,
    pub replay: Replay,
}

/// End-to-end figures of one phase.
#[derive(Default)]
pub struct EndToEnd {
    pub products_per_s: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub tail_pct: f64,
    pub latency_samples: usize,
    pub products: u64,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub reconnects: u64,
    pub late_tail_ms: f64,
    /// Median and mean exchange time as the client saw it, send to last
    /// byte, over every stream.
    pub client_p50_us: f64,
    pub client_mean_us: f64,
    /// Host steal share of each window.
    pub steal_shares: Vec<f64>,
    /// The phase's figures before the steal fit, for the report.
    pub raw_products_per_s: f64,
    pub raw_p50_ms: f64,
    pub raw_tail_ms: f64,
}

#[allow(clippy::cast_precision_loss)]
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// How a phase is cut into the windows its figures are fitted over.
#[derive(Clone, Copy)]
pub enum Windows {
    /// Consecutive windows of `seconds` over the phase; the steal fit
    /// uses the quietest `quiet` share of them (see [`crate::steal`]).
    Time { seconds: f64, quiet: f64 },
    /// One window per pass of the (single) stream through its plan, so
    /// every window holds the same operands. Throughput is the median
    /// window's, without a steal fit; p50 and the fixed [`CYCLE_TAIL`]
    /// quantile come from the whole run.
    Cycles,
}

/// big's tail quantile. Its runs hold 70–100 exchanges of nine sizes, so
/// the percentile rule would pick p86–p90; a fixed p80 keeps the tail on
/// the same size (the eighth of nine) when a faster program fits more
/// exchanges into a run.
pub const CYCLE_TAIL: f64 = 0.8;

impl EndToEnd {
    /// Figures at zero host steal, fitted over `windows` (see
    /// [`crate::steal`]), with the phase's plain figures alongside.
    #[must_use]
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    pub fn of(phase: &Phase, windows: Windows, seconds: f64) -> EndToEnd {
        let mut e = EndToEnd {
            attempted: phase.warm_failed + phase.warm_wrong,
            failed: phase.warm_failed,
            wrong: phase.warm_wrong,
            ..EndToEnd::default()
        };
        let spans: Vec<(u64, u64)> = match windows {
            Windows::Time { seconds: w, .. } => {
                let n = (seconds / w).floor() as u64;
                let w = (w * 1e9) as u64;
                (0..n).map(|i| (i * w, (i + 1) * w)).collect()
            }
            Windows::Cycles => {
                let (stream, r) = (&phase.streams[0], &phase.results[0]);
                r.records
                    .chunks_exact(stream.plan.requests.len())
                    .map(|c| (c[0].sent, c[c.len() - 1].done + 1))
                    .collect()
            }
        };
        let (mut latency, mut late, mut exchange) = (Vec::new(), Vec::new(), Vec::new());
        let mut in_window: Vec<(u64, Vec<f64>)> = vec![(0, Vec::new()); spans.len()];
        let window_of = |t: u64| spans.iter().position(|&(a, b)| a <= t && t < b);
        for (stream, r) in phase.streams.iter().zip(&phase.results) {
            e.attempted += r.attempted;
            e.failed += r.failed;
            e.wrong += r.wrong;
            e.reconnects += r.reconnects;
            if stream.throughput {
                let good = r.attempted - r.failed - r.wrong;
                e.products += good;
                e.seconds = e.seconds.max(r.end as f64 / 1e9);
                e.raw_products_per_s += good as f64 / (r.end as f64 / 1e9);
            }
            for x in &r.records {
                let slot = window_of(x.done);
                if stream.throughput {
                    if let Some(w) = slot {
                        in_window[w].0 += u64::from(x.good);
                    }
                }
                if stream.latency {
                    latency.push(x.latency_ms());
                    late.push(ms(x.sent - x.due));
                    if let Some(w) = slot {
                        in_window[w].1.push(x.latency_ms());
                    }
                }
                exchange.push((x.done - x.sent) as f64 / 1e3);
            }
        }
        for v in [&mut latency, &mut late, &mut exchange] {
            stats::sort(v);
        }
        e.latency_samples = latency.len();
        e.raw_p50_ms = stats::median(&latency).unwrap_or(f64::INFINITY);
        (e.raw_tail_ms, e.tail_pct) = stats::tail(&latency).unwrap_or((f64::INFINITY, 0.0));
        e.late_tail_ms = stats::tail(&late).map_or(0.0, |t| t.0);
        e.client_p50_us = stats::median(&exchange).unwrap_or(0.0);
        e.client_mean_us = exchange.iter().sum::<f64>() / exchange.len().max(1) as f64;

        let (mut rate, mut p50, mut tail) = (Vec::new(), Vec::new(), Vec::new());
        for (&(a, b), (good, lat)) in spans.iter().zip(&mut in_window) {
            let s = steal::share(&phase.steal, a, b);
            e.steal_shares.push(s);
            rate.push((s, *good as f64 / ((b - a) as f64 / 1e9)));
            stats::sort(lat);
            // A failed exchange misses every limit, and so does a window
            // in which no exchange completed: both have zero rate.
            let inv = |v: Option<f64>| v.filter(|v| v.is_finite()).map_or(0.0, |v| 1.0 / v);
            p50.push((s, inv(stats::median(lat))));
            tail.push((s, inv(stats::tail(lat).map(|t| t.0))));
        }
        if let Windows::Time { quiet, .. } = windows {
            let quiet = steal::quietest(&e.steal_shares, quiet);
            let pick = |points: &[(f64, f64)]| -> Vec<(f64, f64)> {
                quiet.iter().map(|&w| points[w]).collect()
            };
            let inv = |v: Option<f64>| v.filter(|&r| r > 0.0).map_or(f64::INFINITY, |r| 1.0 / r);
            e.products_per_s = steal::at_zero(&pick(&rate)).unwrap_or(0.0);
            e.p50_ms = inv(steal::at_zero(&pick(&p50)));
            e.tail_ms = inv(steal::at_zero(&pick(&tail)));
        } else {
            // big's host noise is mostly invisible to the steal counter
            // and a handful of cycles cannot carry a fit: take the median
            // cycle's rate, and the run's own quantiles.
            let mut rates: Vec<f64> = rate.iter().map(|r| r.1).collect();
            stats::sort(&mut rates);
            e.products_per_s = stats::median(&rates).unwrap_or(0.0);
            e.p50_ms = e.raw_p50_ms;
            e.raw_tail_ms = stats::quantile(&latency, CYCLE_TAIL).unwrap_or(f64::INFINITY);
            e.tail_ms = e.raw_tail_ms;
            e.tail_pct = 100.0 * CYCLE_TAIL;
        }
        e
    }
}

/// Print the end-to-end figures with their sample counts.
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn print_end_to_end(label: &str, e: &EndToEnd, setups: &[f64]) {
    let n = e.steal_shares.len();
    let mean_steal = e.steal_shares.iter().sum::<f64>() / n.max(1) as f64;
    let beyond =
        e.latency_samples - (e.tail_pct / 100.0 * e.latency_samples as f64).round() as usize;
    println!("[{label}] setup_s        {setups:?} s (cold starts; the median is reported)");
    println!(
        "[{label}] products_per_s {:.3} products/s at zero steal; {:.3} as run ({} products in {:.2} s)",
        e.products_per_s, e.raw_products_per_s, e.products, e.seconds
    );
    println!(
        "[{label}] p50_ms         {:.4} ms at zero steal; {:.4} as run (n={} exchanges)",
        e.p50_ms, e.raw_p50_ms, e.latency_samples
    );
    println!(
        "[{label}] tail_ms        {:.4} ms at zero steal; {:.4} as run (p{:.2}, n={}, {beyond} beyond)",
        e.tail_ms, e.raw_tail_ms, e.tail_pct, e.latency_samples
    );
    println!(
        "[{label}] fitted over {n} windows; host steal {:.1}% mean, {:.1}%..{:.1}% by window",
        100.0 * mean_steal,
        100.0
            * e.steal_shares
                .iter()
                .copied()
                .fold(f64::MAX, f64::min)
                .min(1.0),
        100.0 * e.steal_shares.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "[{label}] attempted {} failed {} wrong {} reconnects {}",
        e.attempted, e.failed, e.wrong, e.reconnects
    );
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Quantile estimate over histogram buckets, by the service's own
/// estimator (linear inside the bucket holding the rank).
#[allow(clippy::cast_precision_loss)]
fn bucket_quantile_us(buckets: &[u64], q: f64) -> f64 {
    let mut snap = MetricsSnapshot::default();
    for (slot, &n) in snap.latency_buckets.iter_mut().zip(buckets) {
        *slot = n;
    }
    snap.served = buckets.iter().sum();
    snap.latency_quantile_us(q) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn pct(now: f64, base: f64) -> f64 {
    if base == 0.0 || !now.is_finite() || !base.is_finite() {
        0.0
    } else {
        100.0 * (now - base) / base
    }
}

/// Every per-layer metric of a traced phase. `base` is the untraced
/// phase's end-to-end result, `run` the traced one's.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn per_layer(
    workload: Workload,
    phase: &Phase,
    base: &EndToEnd,
    run: &EndToEnd,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let t = phase.traced.as_ref().expect("a traced phase");
    let (s0, s1) = (&t.before.service, &t.after.service);
    let (h0, h1) = (&t.before.http, &t.after.http);
    let (n0, n1) = (&t.before.net, &t.after.net);
    let d = |f: fn(&MetricsSnapshot) -> u64| f(s1).saturating_sub(f(s0)) as f64;
    let mut put = |name: &'static str, v: f64| {
        out.insert(name, v);
    };

    // Spans: mean self time per replayed pair, by layer. Rungs timed
    // only on their nearest pair carry the trace id past the last pair.
    let pairs = t.replay.pairs as u64;
    let layers = t.tracer.mean_self_us(0..pairs);
    let per_pair = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |&(us, n)| us * n as f64 / pairs.max(1) as f64)
    };
    let kernel_pair_us: f64 = RUNGS.iter().map(|&r| per_pair(kernel_span(r))).sum();
    let rungs = t.tracer.mean_self_us(0..pairs + 1);

    // ft_net and ft_http: means, because medians do not add and the
    // handler histogram's buckets (100 µs to 2 s) are too coarse for one.
    let (mut handler_us, mut handled) = (0u64, 0u64);
    for row in &h1.histograms {
        if row.route != "mul" && row.route != "mul_batch" {
            continue;
        }
        let prior = h0.histograms.iter().find(|r| r.route == row.route);
        handler_us += row.sum_us - prior.map_or(0, |p| p.sum_us);
        handled += row.count - prior.map_or(0, |p| p.count);
    }
    let handler_mean_us = handler_us as f64 / handled.max(1) as f64;
    let transport_mean_us = run.client_mean_us - handler_mean_us;
    put("ft_net.transport_mean_us", transport_mean_us);
    put("ft_net.parse_us", per_pair("ft_net.parse"));
    put(
        "ft_net.connections",
        (n1.total_connections - n0.total_connections) as f64,
    );
    put(
        "ft_net.parse_errors",
        (n1.parse_errors - n0.parse_errors) as f64,
    );
    put(
        "ft_net.request_timeouts",
        (n1.request_timeouts - n0.request_timeouts) as f64,
    );
    put("ft_http.handler_mean_us", handler_mean_us);
    put(
        "ft_http.requests",
        (h1.total_requests() - h0.total_requests()) as f64,
    );
    let non_2xx = |h: &HttpSnapshot| -> u64 {
        h.by_status
            .iter()
            .filter(|r| !(200..300).contains(&r.1))
            .map(|r| r.2)
            .sum()
    };
    put("ft_http.non_2xx", (non_2xx(h1) - non_2xx(h0)) as f64);
    put(
        "ft_http.streamed_results",
        (h1.streamed_results - h0.streamed_results) as f64,
    );

    // codec
    let decode = per_pair("codec.decode");
    let encode = per_pair("codec.encode");
    let mbit = t.replay.mbit.max(f64::MIN_POSITIVE);
    put("codec.decode_us", decode);
    put("codec.encode_us", encode);
    put("codec.decode_us_per_mbit", decode * pairs as f64 / mbit);
    put("codec.encode_us_per_mbit", encode * pairs as f64 / mbit);

    // router
    let submit = per_pair("router.submit");
    let wait = per_pair("service.wait");
    put("router.submit_us", submit);
    put("router.shard_deaths", d(|s| s.router.shard_deaths));
    put("router.failovers", d(|s| s.router.failovers));
    put("router.steals", d(|s| s.router.steals));

    // dispatcher and service
    let residue_us = per_pair("verify.residue");
    put(
        "dispatcher.wait_us",
        submit + wait - kernel_pair_us - residue_us,
    );
    let batches = d(|s| s.batches);
    put("dispatcher.batches", batches);
    put(
        "dispatcher.mean_batch_fill",
        if batches > 0.0 {
            d(|s| s.batched_requests) / batches
        } else {
            0.0
        },
    );
    put(
        "dispatcher.queue_depth_high_water",
        s1.queue_depth_high_water as f64,
    );
    let lat: Vec<u64> = s1
        .latency_buckets
        .iter()
        .zip(&s0.latency_buckets)
        .map(|(a, b)| a - b)
        .collect();
    put("service.latency_p50_us", bucket_quantile_us(&lat, 0.5));
    put("service.latency_p99_us", bucket_quantile_us(&lat, 0.99));

    // supervisor
    let retries = d(|s| s.retries);
    let worker_faults = d(|s| s.worker_faults);
    put("supervisor.retries", retries);
    put("supervisor.fallbacks", d(|s| s.fallbacks));
    put("supervisor.breaker_opens", d(|s| s.breaker_opens));
    put("supervisor.worker_faults", worker_faults);
    put(
        "supervisor.batch_element_retries",
        d(|s| s.batch_element_retries),
    );
    let injected = |kind: &str| {
        let of = |s: &MetricsSnapshot| {
            s.injected_faults
                .iter()
                .find(|f| f.0 == kind)
                .map_or(0, |f| f.1)
        };
        (of(s1) - of(s0)) as f64
    };
    put("supervisor.injected_panic", injected("panic"));
    put("supervisor.injected_corrupt", injected("corrupt"));
    put("supervisor.injected_straggle", injected("straggle"));
    put(
        "supervisor.retry_success_ratio",
        if retries > 0.0 {
            (retries - worker_faults).max(0.0) / retries
        } else {
            0.0
        },
    );

    // verify
    put("verify.residue_us", residue_us);
    put("verify.residue_checks", d(|s| s.verify.residue_checks));
    put("verify.dual_checks", d(|s| s.verify.dual_checks));
    put("verify.recompute_checks", d(|s| s.verify.recompute_checks));
    put("verify.residue_failures", d(|s| s.verify.residue_failures));
    put(
        "verify.dual_catch_ratio",
        ratio(
            s1.verify.dual_failures - s0.verify.dual_failures,
            s1.verify.dual_checks - s0.verify.dual_checks,
        ),
    );

    // kernel
    let served = |kernel: &str| {
        let of = |s: &MetricsSnapshot| {
            s.per_kernel
                .iter()
                .find(|k| k.0 == kernel)
                .map_or(0, |k| k.1)
        };
        (of(s1) - of(s0)) as f64
    };
    let span_mean = |name: &str| rungs.get(name).map_or(0.0, |&(us, _)| us);
    let ops = |name: &str| t.replay.word_ops.get(name).copied().unwrap_or(0.0);
    put("kernel.schoolbook.us", span_mean("kernel.schoolbook"));
    put("kernel.schoolbook.served", served("schoolbook"));
    put("kernel.schoolbook.word_ops", ops("kernel.schoolbook"));
    put("kernel.seq_toom.us", span_mean("kernel.seq_toom"));
    put("kernel.seq_toom.served", served("seq_toom"));
    put("kernel.seq_toom.word_ops", ops("kernel.seq_toom"));
    put("kernel.par_toom.us", span_mean("kernel.par_toom"));
    put("kernel.par_toom.served", served("par_toom"));
    put("kernel.ntt.us", span_mean("kernel.ntt"));
    put("kernel.ntt.served", served("ntt"));
    put("kernel.ntt.word_ops", ops("kernel.ntt"));
    put("plan_cache.hits", d(|s| s.plan_cache_hits));
    put("plan_cache.misses", d(|s| s.plan_cache_misses));

    // process, generator, tracing
    put("process.peak_rss_mb", peak_rss_mb());
    put("loadgen.late_p99_ms", run.late_tail_ms);
    put("loadgen.reconnects", run.reconnects as f64);
    put("trace.overhead_p50_pct", pct(run.p50_ms, base.p50_ms));
    put(
        "trace.overhead_products_pct",
        pct(run.products_per_s, base.products_per_s),
    );
    let attributed = transport_mean_us + decode + submit + wait + encode;
    let unattributed = run.client_mean_us - attributed;
    put("attribution.unattributed_us", unattributed);

    println!(
        "[layers] {}: client mean {:.1} us (p50 {:.1}) = transport {:.1} + decode {:.1} + submit {:.1} + wait {:.1} (kernel {:.1}, residue {:.1}, dispatcher {:.1}) + encode {:.1} + unattributed {:.1}",
        workload.name(),
        run.client_mean_us,
        run.client_p50_us,
        transport_mean_us,
        decode,
        submit,
        wait,
        kernel_pair_us,
        residue_us,
        submit + wait - kernel_pair_us - residue_us,
        encode,
        unattributed
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_service::json::Json;

    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entry without name and unit"),
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let values = BTreeMap::from([
            ("setup_s", 0.812_734_5),
            ("products_per_s", 1_234.5),
            ("p50_ms", 0.5),
            ("tail_ms", f64::INFINITY),
        ]);
        let line = result_line(true, 10, 0, &END_TO_END, &values);
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}"));
        assert!(line.contains("\"tail_ms\": {\"value\": 1.7976931348623157e308, \"unit\": \"ms\"}"));
        assert!(line.ends_with("}}"));
    }
}
