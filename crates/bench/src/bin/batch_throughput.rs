//! Cross-request batching win: requests/sec of bulk `submit_many`
//! versus per-request `submit`, both into the same lane and its
//! coalescing dispatcher, on a mixed same-size workload with residue
//! verification ON for every response. Results are recorded in
//! `BENCH_service.json` at the repo root and in EXPERIMENTS.md §S5.
//!
//! Run with `cargo run --release -p ft-bench --bin batch_throughput`.
//! `--quick` runs a reduced matrix and skips the JSON write (CI smoke).
//!
//! Every operand here is small, so both modes run on the small lane's
//! one thread and none of the speedup comes from parallelism: the bulk
//! path pays the channel lock, enqueue timestamp, completion allocation
//! and client wake-up ONCE per submission instead of once per request,
//! while per-element residue verification is preserved. Operand classes
//! are small (0.25–2 kbit, all in the schoolbook band): the smaller the
//! multiply, the larger the share of per-request overhead the batch
//! amortizes away.

use ft_bench::operands;
use ft_bigint::BigInt;
use ft_service::{BatchingConfig, MulService, ServiceConfig, SubmitError, TunerConfig};
use std::time::Instant;

/// Operand bit sizes cycled through the workload — four coalescible
/// (kernel, size-class) groups in flight at once, all in the schoolbook
/// band where per-request overhead is the dominant cost.
const CLASSES: [u64; 4] = [256, 512, 1_024, 2_048];
const SUBMITTERS: usize = 4;
/// Requests per `submit_many` call in batched mode.
const CHUNK: usize = 64;

struct RoundResult {
    rps: f64,
    batches: u64,
    batched_requests: u64,
    high_water: usize,
}

fn config() -> ServiceConfig {
    ServiceConfig {
        // Residue verification ON: the acceptance criterion is a ≥1.3×
        // win with every response still spot-checked.
        verify_residues: true,
        batching: BatchingConfig {
            window_us: 0,
            max_batch: 32,
            queue_capacity: 256,
        },
        // Fixed thresholds for a stable A/B: the adaptive tuner would
        // make the two runs' kernel assignments drift apart.
        tuner: TunerConfig {
            enabled: false,
            ..TunerConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// Drive `requests` submissions through one fresh service instance and
/// wait for every product; returns throughput and batching counters.
fn run_round(batched: bool, workload: &[(BigInt, BigInt, BigInt)]) -> RoundResult {
    let service = MulService::start(config());
    let started = Instant::now();
    std::thread::scope(|scope| {
        let joins: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let mine: Vec<usize> = (0..workload.len())
                        .filter(|i| i % SUBMITTERS == t)
                        .collect();
                    if batched {
                        // Bulk path: each submitter ships its share in
                        // CHUNK-sized submit_many calls — the client-side
                        // half of cross-request batching.
                        let mut handles = Vec::new();
                        for chunk in mine.chunks(CHUNK) {
                            let handle = loop {
                                let pairs: Vec<(BigInt, BigInt)> = chunk
                                    .iter()
                                    .map(|&i| (workload[i].0.clone(), workload[i].1.clone()))
                                    .collect();
                                match service.submit_many(pairs) {
                                    Ok(h) => break h,
                                    Err(SubmitError::QueueFull { .. }) => {
                                        std::thread::yield_now();
                                    }
                                    Err(SubmitError::ShuttingDown) => {
                                        unreachable!("service is not shutting down")
                                    }
                                }
                            };
                            handles.push((chunk, handle));
                        }
                        for (chunk, handle) in handles {
                            let results = handle.wait();
                            assert_eq!(results.len(), chunk.len());
                            for (&i, result) in chunk.iter().zip(results) {
                                let product = result.expect("request failed");
                                assert_eq!(product, workload[i].2, "request {i} wrong product");
                            }
                        }
                    } else {
                        let mut handles = Vec::new();
                        for &i in &mine {
                            let (a, b, _) = &workload[i];
                            let handle = loop {
                                match service.submit(a.clone(), b.clone()) {
                                    Ok(h) => break h,
                                    Err(SubmitError::QueueFull { .. }) => {
                                        std::thread::yield_now();
                                    }
                                    Err(SubmitError::ShuttingDown) => {
                                        unreachable!("service is not shutting down")
                                    }
                                }
                            };
                            handles.push((i, handle));
                        }
                        for (i, handle) in handles {
                            let product = handle.wait().expect("request failed");
                            assert_eq!(product, workload[i].2, "request {i} wrong product");
                        }
                    }
                })
            })
            .collect();
        for join in joins {
            join.join().expect("submitter panicked");
        }
    });
    let elapsed = started.elapsed();
    let metrics = service.shutdown();
    assert_eq!(metrics.served, workload.len() as u64);
    assert!(
        metrics.residue_checks >= workload.len() as u64,
        "every response must be residue-verified"
    );
    RoundResult {
        rps: workload.len() as f64 / elapsed.as_secs_f64(),
        batches: metrics.batches,
        batched_requests: metrics.batched_requests,
        high_water: metrics.batch_size_high_water,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (requests, rounds) = if quick { (400, 2) } else { (4_000, 8) };
    println!(
        "batch_throughput ({} mode): {requests} requests/round, {rounds} rounds, \
         {SUBMITTERS} submitters, classes {CLASSES:?} bits, \
         residue verification on",
        if quick { "quick" } else { "full" },
    );
    // Precomputed workload: operands plus schoolbook-checked expected
    // products, so both paths are verified end-to-end for correctness.
    let workload: Vec<(BigInt, BigInt, BigInt)> = (0..requests)
        .map(|i| {
            let bits = CLASSES[i % CLASSES.len()];
            let (a, b) = operands(bits, i as u64);
            let expect = a.mul_schoolbook(&b);
            (a, b, expect)
        })
        .collect();
    // Interleave modes within each round so machine drift (a noisy
    // shared host can halve throughput for seconds at a time) cannot
    // systematically favour one mode, and take each mode's best round:
    // external contention only ever *subtracts* throughput, so the
    // per-mode maximum over interleaved rounds is the estimator that
    // converges to the machine's true capability in each mode (the
    // min-time principle behind `timeit`-style benchmarks).
    let mut baseline_best = f64::MIN;
    let mut batched_best: Option<RoundResult> = None;
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let base = run_round(false, &workload);
        let batch = run_round(true, &workload);
        println!(
            "  round {round}: baseline {:>9.1} req/s | batched {:>9.1} req/s = {:.2}x \
             ({} batches, {} coalesced, high water {})",
            base.rps,
            batch.rps,
            batch.rps / base.rps,
            batch.batches,
            batch.batched_requests,
            batch.high_water
        );
        assert!(batch.batches > 0, "async path never coalesced a batch");
        ratios.push(batch.rps / base.rps);
        baseline_best = baseline_best.max(base.rps);
        if batched_best.as_ref().is_none_or(|b| batch.rps > b.rps) {
            batched_best = Some(batch);
        }
    }
    let batched_best = batched_best.expect("at least one round");
    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];
    let speedup = batched_best.rps / baseline_best;
    let mean_fill = batched_best.batched_requests as f64 / batched_best.batches.max(1) as f64;
    println!(
        "over {rounds} rounds: baseline best {baseline_best:.1} req/s, batched best {:.1} req/s, \
         speedup {speedup:.2}x (median paired ratio {median_ratio:.2}x, mean batch fill {mean_fill:.1})",
        batched_best.rps,
    );
    if quick {
        println!("quick mode: skipping BENCH_service.json write");
        return;
    }
    let classes = CLASSES.map(|c| c.to_string()).join(", ");
    let json = format!(
        "{{\n  \"bench\": \"batch_throughput\",\n  \"requests\": {requests},\n  \
         \"rounds\": {rounds},\n  \"submitters\": {SUBMITTERS},\n  \"baseline\": \"submit\",\n  \
         \"chunk\": {CHUNK},\n  \"classes_bits\": [{classes}],\n  \"verify_residues\": true,\n  \
         \"baseline_rps\": {baseline_best:.1},\n  \"batched_rps\": {:.1},\n  \
         \"speedup\": {speedup:.3},\n  \"median_paired_ratio\": {median_ratio:.3},\n  \
         \"batches\": {},\n  \"batched_requests\": {},\n  \
         \"mean_batch_fill\": {mean_fill:.2},\n  \"batch_size_high_water\": {}\n}}\n",
        batched_best.rps,
        batched_best.batches,
        batched_best.batched_requests,
        batched_best.high_water,
    );
    std::fs::write("BENCH_service.json", keep_sections(&json)).expect("write BENCH_service.json");
    println!("wrote BENCH_service.json");
}

/// Carry the single-line sections other benches merged into
/// `BENCH_service.json` (`verify`, from verify_overhead) over into the
/// fresh `json`.
fn keep_sections(json: &str) -> String {
    let existing = std::fs::read_to_string("BENCH_service.json").unwrap_or_default();
    let kept: Vec<&str> = existing
        .lines()
        .filter(|l| l.trim_start().starts_with("\"verify\":"))
        .map(|l| l.trim_end_matches(','))
        .collect();
    if kept.is_empty() {
        return json.to_string();
    }
    let body = json.trim_end().trim_end_matches('}').trim_end();
    format!("{body},\n{}\n}}\n", kept.join(",\n"))
}
