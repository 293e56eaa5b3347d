//! Fault-free overhead of the residue verification hook, two ways.
//!
//! **Direct cost**: per-call time of `residue::verify_product` next to
//! the multiply kernel it guards, in a tight single-threaded loop — the
//! noise-robust measurement of the check's relative cost. The spot-check
//! is O(n) against the superlinear multiply, so the ratio must sit well
//! under 5% — the o(1) relative-cost spirit of the paper's
//! fault-tolerance bounds.
//!
//! **End-to-end**: the service_throughput baseline (4 submitter
//! threads, two lanes, max_batch 16) served with `verify_residues` off
//! and on (chaos disabled in both), comparing the mean completion
//! latency, interleaved best-of-5; on a time-sliced container the
//! run-to-run noise exceeds the verification cost, so this is a sanity
//! check that the hook stays inside the noise floor, not a precision
//! measurement.
//!
//! Results are recorded in EXPERIMENTS.md.
//!
//! Run with `cargo run --release -p ft-bench --bin verify_overhead`.

use ft_bench::operands;
use ft_service::plan_cache::PlanCache;
use ft_service::{BatchingConfig, Kernel, KernelPolicy, MulService, ServiceConfig, SubmitError};
use ft_toom_core::residue;
use std::time::{Duration, Instant};

/// (label, operand bits, service requests, timed multiply calls) — one
/// row per kernel under the default selection thresholds.
const SIZES: [(&str, u64, usize, usize); 3] = [
    ("schoolbook/2kbit", 2_000, 512, 2_000),
    ("seq_toom/50kbit", 50_000, 96, 50),
    ("par_toom/200kbit", 200_000, 16, 6),
];

const END_TO_END_RUNS: usize = 5;

fn main() {
    println!("direct per-call cost, single thread (best of 5 batches)");
    println!(
        "{:<20} {:>14} {:>14} {:>10}",
        "workload", "multiply", "verify", "ratio"
    );
    for (label, bits, _, calls) in SIZES {
        let (mul, verify) = direct_cost(bits, calls);
        let ratio = verify.as_secs_f64() / mul.as_secs_f64() * 100.0;
        println!("{label:<20} {mul:>14.3?} {verify:>14.3?} {ratio:>+9.2}%");
    }
    println!();
    println!(
        "end-to-end mean latency, service_throughput methodology \
         (4 submitters, two lanes, batch 16, interleaved best of {END_TO_END_RUNS})"
    );
    println!(
        "{:<20} {:>9} {:>12} {:>12} {:>10}",
        "workload", "requests", "off", "on", "overhead"
    );
    for (label, bits, requests, _) in SIZES {
        let mut off = u64::MAX;
        let mut on = u64::MAX;
        // Interleave the two configurations so slow drifts of the shared
        // container hit both sides equally.
        for _ in 0..END_TO_END_RUNS {
            off = off.min(service_run(bits, requests, false));
            on = on.min(service_run(bits, requests, true));
        }
        #[allow(clippy::cast_precision_loss)]
        let overhead = (on as f64 / off as f64 - 1.0) * 100.0;
        println!("{label:<20} {requests:>9} {off:>9} us {on:>9} us {overhead:>+9.2}%");
    }
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
            ..BatchingConfig::default()
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
