//! Per-rung cost of the verification ladder and its end-to-end overhead.
//!
//! **Direct cost**: per-call time of each rung next to the multiply it
//! guards, in a tight single-threaded loop — residue spot-check (rung 1),
//! the dual-algorithm recompute (rung 2: limb multiply below the small
//! floor, alternate-point Toom above it), and the full clean recompute
//! (rung 3). Rung 1 is `O(n)` against the superlinear multiply; rungs
//! 2–3 cost about one extra multiply, which is why they are sampled and
//! escalation-only respectively.
//!
//! **End-to-end**: a mixed-size service workload (schoolbook / seq toom /
//! par toom classes) served with the dual rung off, at the default
//! sampling rate, and always-on; the acceptance gate is that default
//! sampling costs < 10% of throughput.
//!
//! The summary is merged into `BENCH_service.json` under the
//! `"verify_ladder"` key (the batch_throughput fields are preserved) and
//! recorded in EXPERIMENTS.md §S8.
//!
//! Run with `cargo run --release -p ft-bench --bin verify_ladder`
//! (`--quick` runs a reduced matrix and skips the JSON write).

use ft_bench::operands;
use ft_service::plan_cache::PlanCache;
use ft_service::{
    BatchingConfig, Kernel, KernelPolicy, MulService, ServiceConfig, SubmitError, VerifyPolicy,
};
use ft_toom_core::{residue, seq, ToomPlan};
use std::time::{Duration, Instant};

/// (label, operand bits, timed calls) — one row per kernel class under
/// the default selection thresholds. The NTT row sits just past the
/// default `ntt_min_bits` floor and meters the rung-1 residue check at
/// the sizes the new kernel serves (it stays `O(n)` against the
/// `Θ(n log n)` multiply, which is what makes raising `dual_max_bits`
/// into the NTT regime affordable); it is skipped in `--quick` CI runs
/// where a multi-hundred-ms multiply would dominate the smoke budget.
const SIZES: [(&str, u64, usize); 4] = [
    ("schoolbook/2kbit", 2_000, 2_000),
    ("seq_toom/50kbit", 50_000, 50),
    ("par_toom/200kbit", 200_000, 6),
    ("ntt/9Mbit", 9_000_000, 2),
];

/// End-to-end workload: the three service size classes, round-robin.
const CLASS_BITS: [u64; 3] = [1_000, 4_000, 16_000];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let policy = VerifyPolicy::default();
    let (rounds, requests) = if quick { (1, 120) } else { (3, 600) };

    println!("direct per-rung cost, single thread (best of 5 batches)");
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "workload", "multiply", "residue", "dual", "recompute", "res%", "dual%"
    );
    let mut direct_rows = Vec::new();
    for (label, bits, calls) in SIZES {
        if quick && bits > 1_000_000 {
            continue;
        }
        let row = direct_cost(bits, calls, &policy);
        let res_pct = row.residue.as_secs_f64() / row.mul.as_secs_f64() * 100.0;
        let dual_pct = row.dual.as_secs_f64() / row.mul.as_secs_f64() * 100.0;
        println!(
            "{label:<20} {:>12.3?} {:>12.3?} {:>12.3?} {:>12.3?} {res_pct:>+7.2}% {dual_pct:>+7.2}%",
            row.mul, row.residue, row.dual, row.recompute
        );
        direct_rows.push((label, row, res_pct, dual_pct));
    }

    println!();
    println!(
        "end-to-end throughput, mixed {CLASS_BITS:?}-bit classes \
         ({requests} requests, 4 submitters, two lanes, best of {rounds} interleaved rounds)"
    );
    let mut rps = [0f64; 3]; // off, default sampling, always-on
    for _ in 0..rounds {
        for (slot, dual_per_10k) in [0, policy.dual_per_10k, 10_000].into_iter().enumerate() {
            rps[slot] = rps[slot].max(service_run(requests, dual_per_10k));
        }
    }
    let overhead = |on: f64| (rps[0] / on - 1.0) * 100.0;
    let (default_pct, always_pct) = (overhead(rps[1]), overhead(rps[2]));
    println!(
        "  dual off        {:>10.1} req/s\n  \
           dual {:>4}/10k    {:>10.1} req/s  ({default_pct:+.2}% overhead)\n  \
           dual 10000/10k  {:>10.1} req/s  ({always_pct:+.2}% overhead)",
        rps[0], policy.dual_per_10k, rps[1], rps[2]
    );
    // The acceptance gate. The quick (CI smoke) matrix runs one round on
    // a shared container, so it only guards against catastrophic
    // regressions; the full run enforces the real bound.
    let gate = if quick { 30.0 } else { 10.0 };
    assert!(
        default_pct < gate,
        "default-sampling dual overhead {default_pct:+.2}% breaches the {gate}% gate"
    );

    if quick {
        println!("quick mode: skipping BENCH_service.json merge");
        return;
    }
    let direct_json = direct_rows
        .iter()
        .map(|(label, row, res_pct, dual_pct)| {
            format!(
                "{{\"workload\": \"{label}\", \"mul_us\": {:.1}, \"residue_us\": {:.1}, \
                 \"dual_us\": {:.1}, \"recompute_us\": {:.1}, \"residue_pct\": {res_pct:.2}, \
                 \"dual_pct\": {dual_pct:.2}}}",
                row.mul.as_secs_f64() * 1e6,
                row.residue.as_secs_f64() * 1e6,
                row.dual.as_secs_f64() * 1e6,
                row.recompute.as_secs_f64() * 1e6,
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let section = format!(
        "{{\"requests\": {requests}, \"classes_bits\": [1000, 4000, 16000], \
         \"dual_per_10k_default\": {}, \"rps_dual_off\": {:.1}, \"rps_dual_default\": {:.1}, \
         \"rps_dual_always\": {:.1}, \"overhead_default_pct\": {default_pct:.2}, \
         \"overhead_always_pct\": {always_pct:.2}, \"direct\": [{direct_json}]}}",
        policy.dual_per_10k, rps[0], rps[1], rps[2],
    );
    merge_into_bench_json(&section);
    println!("merged verify_ladder section into BENCH_service.json");
}

struct DirectCost {
    mul: Duration,
    residue: Duration,
    dual: Duration,
    recompute: Duration,
}

/// Best-of-5 per-call durations of the serving multiply and of each
/// ladder rung on its output, at the given operand size.
fn direct_cost(bits: u64, calls: usize, vp: &VerifyPolicy) -> DirectCost {
    let policy = KernelPolicy::default();
    let plans = PlanCache::new(4);
    let (a, b) = operands(bits, 0);
    let kernel = Kernel::select(&a, &b, &policy);
    let product = kernel.execute(&a, &b, &policy, &plans); // warm the plan cache
    assert!(residue::verify_product(&a, &b, &product));
    // The dual algorithm exactly as the supervisor picks it.
    let dual_once = || {
        if a.bit_length().min(b.bit_length()) <= vp.dual_small_max_bits {
            a.mul_auto(&b)
        } else {
            let plan = ToomPlan::shared_alternate(vp.dual_toom_k);
            seq::toom_with_plan(&a, &b, &plan, vp.dual_small_max_bits.max(8))
        }
    };
    assert_eq!(
        dual_once(),
        product,
        "dual algorithm disagrees on clean input"
    );
    // The residue rung is orders of magnitude cheaper than a multiply;
    // scale its iteration count so both timings cover similar wall time.
    let residue_calls = calls * 200;
    let mut best = DirectCost {
        mul: Duration::MAX,
        residue: Duration::MAX,
        dual: Duration::MAX,
        recompute: Duration::MAX,
    };
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
        best.mul = best.mul.min(started.elapsed() / calls as u32);
        let started = Instant::now();
        for _ in 0..residue_calls {
            std::hint::black_box(residue::verify_product(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                std::hint::black_box(&product),
            ));
        }
        best.residue = best.residue.min(started.elapsed() / residue_calls as u32);
        let started = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(dual_once());
        }
        best.dual = best.dual.min(started.elapsed() / calls as u32);
        // Rung 3 re-runs the serving kernel — same cost shape as the
        // multiply, timed separately so drift shows up in the report.
        let started = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(kernel.execute(
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                &policy,
                &plans,
            ));
        }
        best.recompute = best.recompute.min(started.elapsed() / calls as u32);
    }
    best
}

/// One mixed-class service run at the given dual sampling rate; returns
/// requests per second of wall time.
fn service_run(requests: usize, dual_per_10k: u32) -> f64 {
    const SUBMITTERS: usize = 4;
    let config = ServiceConfig {
        batching: BatchingConfig {
            queue_capacity: 256,
            ..BatchingConfig::default()
        },
        verify_residues: true,
        verify: VerifyPolicy {
            dual_per_10k,
            ..VerifyPolicy::default()
        },
        chaos: None,
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let started = Instant::now();
    let handles: Vec<_> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let per_thread = requests / SUBMITTERS;
                    let mut handles = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        let id = (t * per_thread + i) as u64;
                        let (a, b) = operands(CLASS_BITS[(id % 3) as usize], id);
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
    let elapsed = started.elapsed().as_secs_f64();
    let metrics = service.shutdown();
    assert_eq!(metrics.worker_faults, 0);
    if dual_per_10k == 10_000 {
        assert_eq!(
            metrics.verify.dual_checks, metrics.verify.residue_checks,
            "always-on sampling must dual-check every product"
        );
    }
    #[allow(clippy::cast_precision_loss)]
    let n = requests as f64;
    n / elapsed
}

/// Merge the single-line `"verify_ladder"` section into the flat
/// `BENCH_service.json` object, preserving whatever batch_throughput
/// last wrote (and replacing any previous verify_ladder line).
fn merge_into_bench_json(section: &str) {
    let path = "BENCH_service.json";
    let existing =
        std::fs::read_to_string(path).unwrap_or_else(|_| "{\n  \"bench\": \"none\"\n}\n".into());
    let mut lines: Vec<String> = existing
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"verify_ladder\":"))
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
    lines.push(format!("  \"verify_ladder\": {section}"));
    lines.push("}".to_string());
    std::fs::write(path, lines.join("\n") + "\n").expect("write BENCH_service.json");
}
