//! Fault-free overhead of the product check (`residue::verify_product`,
//! modulo two secret 61-bit primes), two ways.
//!
//! **Direct cost**: per-call time of the check next to the multiply
//! kernel it guards, in a tight single-threaded loop — the noise-robust
//! measurement of the check's relative cost. The check is O(n) against
//! the superlinear multiply, so from 50 kbit up its ratio must stay at
//! or under 5% (asserted) — the o(1) relative-cost spirit of the paper's
//! fault-tolerance bounds. The 9 Mbit NTT row is skipped under
//! `--quick`, where its multi-hundred-ms multiply would dominate.
//!
//! **End-to-end**: the service_throughput baseline (4 submitter
//! threads, two lanes, max_batch 16) served with `verify_residues` off
//! and on (chaos disabled in both), comparing the mean completion
//! latency, interleaved best-of-5; on a time-sliced container the
//! run-to-run noise exceeds the check's cost, so this leg is printed as
//! a sanity check only and never recorded.
//!
//! The full run merges the direct table into `BENCH_service.json` under
//! the `"verify"` key (the batch_throughput fields are preserved);
//! results are recorded in EXPERIMENTS.md §S8.
//!
//! Run with `cargo run --release -p ft-bench --bin verify_overhead`
//! (`--quick` runs one end-to-end round and skips the JSON write).

use ft_bench::operands;
use ft_service::plan_cache::PlanCache;
use ft_service::{BatchingConfig, Kernel, KernelPolicy, MulService, ServiceConfig, SubmitError};
use ft_toom_core::residue;
use std::time::{Duration, Instant};

/// (label, operand bits, timed multiply calls) — one row per kernel
/// under the default selection thresholds.
const DIRECT: [(&str, u64, usize); 4] = [
    ("schoolbook/2kbit", 2_000, 2_000),
    ("seq_toom/50kbit", 50_000, 50),
    ("par_toom/200kbit", 200_000, 6),
    ("ntt/9Mbit", 9_000_000, 2),
];

/// (label, operand bits, service requests) for the end-to-end runs.
const END_TO_END: [(&str, u64, usize); 3] = [
    ("schoolbook/2kbit", 2_000, 512),
    ("seq_toom/50kbit", 50_000, 96),
    ("par_toom/200kbit", 200_000, 16),
];

/// From this size up, the check may cost at most [`GATE_PCT`] of the
/// multiply.
const GATE_BITS: u64 = 50_000;
const GATE_PCT: f64 = 5.0;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let runs = if quick { 1 } else { 5 };
    println!("direct per-call cost, single thread (best of 5 batches)");
    println!(
        "{:<20} {:>14} {:>14} {:>10}",
        "workload", "multiply", "verify", "ratio"
    );
    let mut direct = Vec::new();
    for (label, bits, calls) in DIRECT {
        if quick && bits > 1_000_000 {
            continue;
        }
        let (mul, verify) = direct_cost(bits, calls);
        let pct = verify.as_secs_f64() / mul.as_secs_f64() * 100.0;
        println!("{label:<20} {mul:>14.3?} {verify:>14.3?} {pct:>+9.2}%");
        direct.push(format!(
            "{{\"workload\": \"{label}\", \"mul_us\": {:.2}, \"verify_us\": {:.3}, \
             \"verify_pct\": {pct:.2}}}",
            mul.as_secs_f64() * 1e6,
            verify.as_secs_f64() * 1e6,
        ));
        assert!(
            bits < GATE_BITS || pct <= GATE_PCT,
            "{label}: the check costs {pct:.2}% of the multiply, over the {GATE_PCT}% gate"
        );
    }
    println!();
    println!(
        "end-to-end mean latency, service_throughput methodology \
         (4 submitters, two lanes, batch 16, interleaved best of {runs})"
    );
    println!(
        "{:<20} {:>9} {:>12} {:>12} {:>10}",
        "workload", "requests", "off", "on", "overhead"
    );
    for (label, bits, requests) in END_TO_END {
        let mut off = u64::MAX;
        let mut on = u64::MAX;
        // Interleave the two configurations so slow drifts of the shared
        // container hit both sides equally.
        for _ in 0..runs {
            off = off.min(service_run(bits, requests, false));
            on = on.min(service_run(bits, requests, true));
        }
        #[allow(clippy::cast_precision_loss)]
        let overhead = (on as f64 / off as f64 - 1.0) * 100.0;
        println!("{label:<20} {requests:>9} {off:>9} us {on:>9} us {overhead:>+9.2}%");
    }
    if quick {
        println!("quick mode: skipping BENCH_service.json merge");
        return;
    }
    merge_into_bench_json(&format!("{{\"direct\": [{}]}}", direct.join(", ")));
    println!("merged the verify section into BENCH_service.json");
}

/// Best-of-5 per-call durations of the kernel multiply and of
/// `verify_product` on its output, at the given operand size.
fn direct_cost(bits: u64, calls: usize) -> (Duration, Duration) {
    let policy = KernelPolicy::default();
    let plans = PlanCache::new(4);
    let (a, b) = operands(bits, 0);
    let kernel = Kernel::select(&a, &b, &policy);
    let product = kernel.execute(&a, &b, &policy, &plans); // warm the plan cache
    assert!(residue::verify_product(&a, &b, &product));
    // Verification is orders of magnitude cheaper than the multiply;
    // scale its iteration count so both timings cover similar wall time.
    let verify_calls = calls * 200;
    let mut mul_best = Duration::MAX;
    let mut verify_best = Duration::MAX;
    for _ in 0..5 {
        let started = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(kernel.execute(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                &policy,
                &plans,
            ));
        }
        mul_best = mul_best.min(started.elapsed() / calls as u32);
        let started = Instant::now();
        for _ in 0..verify_calls {
            std::hint::black_box(residue::verify_product(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                std::hint::black_box(&product),
            ));
        }
        verify_best = verify_best.min(started.elapsed() / verify_calls as u32);
    }
    (mul_best, verify_best)
}

/// One service_throughput-style run; returns the mean completion
/// latency in µs (submit → fulfilled, queue wait included).
fn service_run(bits: u64, requests: usize, verify: bool) -> u64 {
    const SUBMITTERS: usize = 4;
    let config = ServiceConfig {
        batching: BatchingConfig {
            max_batch: 16,
            queue_capacity: 256,
        },
        verify_residues: verify,
        chaos: None,
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let handles: Vec<_> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let per_thread = requests / SUBMITTERS;
                    let mut handles = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        let (a, b) = operands(bits, (t * per_thread + i) as u64);
                        let handle = loop {
                            match service.submit(a.clone(), b.clone()) {
                                Ok(h) => break h,
                                Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                                Err(SubmitError::ShuttingDown) => {
                                    unreachable!("service is not shutting down")
                                }
                            }
                        };
                        handles.push(handle);
                    }
                    handles
                })
            })
            .collect();
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("submitter panicked"))
            .collect()
    });
    for handle in handles {
        handle.wait().expect("request failed");
    }
    service.shutdown().mean_latency_us()
}

/// Merge the single-line `"verify"` section into the flat
/// `BENCH_service.json` object, preserving whatever batch_throughput
/// last wrote (and replacing any previous verify section).
fn merge_into_bench_json(section: &str) {
    let path = "BENCH_service.json";
    let existing =
        std::fs::read_to_string(path).unwrap_or_else(|_| "{\n  \"bench\": \"none\"\n}\n".into());
    let mut lines: Vec<String> = existing
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"verify\":"))
        .map(String::from)
        .collect();
    while lines.last().is_some_and(|l| l.trim().is_empty()) {
        lines.pop();
    }
    assert_eq!(
        lines.pop().as_deref().map(str::trim),
        Some("}"),
        "unexpected BENCH_service.json shape"
    );
    if let Some(last) = lines.last_mut() {
        let trimmed = last.trim_end();
        if !trimmed.ends_with(',') && !trimmed.ends_with('{') {
            last.push(',');
        }
    }
    lines.push(format!("  \"verify\": {section}"));
    lines.push("}".to_string());
    std::fs::write(path, lines.join("\n") + "\n").expect("write BENCH_service.json");
}
