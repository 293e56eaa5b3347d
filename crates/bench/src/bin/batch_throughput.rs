//! Cross-request batching win: requests/sec of bulk `submit_many`
//! versus per-request `submit`, both into the same lane and its
//! group-commit dispatcher, on a mixed same-size workload with residue
//! verification ON for every response. Results are recorded in
//! `BENCH_service.json` at the repo root and in EXPERIMENTS.md §S5/§S13.
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
//! amortizes away. The per-request mode still coalesces: its four
//! submitters build a backlog while the lane runs a round, and the next
//! round takes it whole.
//!
//! One round of one mode lasts 10–20 ms, and on a shared 2-vCPU host a
//! single round's figure moves by up to 2× from run to run. The full run
//! therefore alternates [`ROUNDS`] rounds of each mode, switching which
//! mode goes first, and records each mode's median and quartiles and
//! those of the paired ratio.

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
/// Rounds of each mode in a full run.
const ROUNDS: usize = 21;

struct RoundResult {
    rps: f64,
    batches: u64,
    batched_requests: u64,
}

fn config() -> ServiceConfig {
    ServiceConfig {
        // Residue verification ON: the acceptance criterion is a ≥1.3×
        // win with every response still spot-checked.
        verify_residues: true,
        batching: BatchingConfig {
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

/// Retry `submit` while the lane's queue is full.
fn admitted<H>(mut submit: impl FnMut() -> Result<H, SubmitError>) -> H {
    loop {
        match submit() {
            Ok(handle) => return handle,
            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
            Err(SubmitError::ShuttingDown) => unreachable!("service is not shutting down"),
        }
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
                            let pairs = || {
                                let pair =
                                    |&i: &usize| (workload[i].0.clone(), workload[i].1.clone());
                                chunk.iter().map(pair).collect()
                            };
                            handles.push((chunk, admitted(|| service.submit_many(pairs()))));
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
                            handles.push((i, admitted(|| service.submit(a.clone(), b.clone()))));
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
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (requests, rounds) = if quick { (400, 2) } else { (4_000, ROUNDS) };
    println!(
        "batch_throughput ({} mode): {requests} requests/round, {rounds} rounds per mode, \
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
    // Interleave the modes, and alternate which one goes first, so that
    // host drift (steal can halve throughput for seconds at a time)
    // falls on both alike.
    let mut base_rounds = Vec::with_capacity(rounds);
    let mut batch_rounds = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (base, batch) = if round % 2 == 0 {
            let base = run_round(false, &workload);
            (base, run_round(true, &workload))
        } else {
            let batch = run_round(true, &workload);
            (run_round(false, &workload), batch)
        };
        println!(
            "  round {round:>2}: baseline {:>9.1} req/s (fill {:.1}) | batched {:>9.1} req/s \
             (fill {:.1}) = {:.2}x",
            base.rps,
            fill(std::slice::from_ref(&base)),
            batch.rps,
            fill(std::slice::from_ref(&batch)),
            batch.rps / base.rps,
        );
        assert!(
            batch.batched_requests > batch.batches,
            "bulk submissions never ran as coalesced groups"
        );
        base_rounds.push(base);
        batch_rounds.push(batch);
    }
    let base_rps = quartiles(base_rounds.iter().map(|r| r.rps));
    let batch_rps = quartiles(batch_rounds.iter().map(|r| r.rps));
    let ratio = quartiles(
        base_rounds
            .iter()
            .zip(&batch_rounds)
            .map(|(b, m)| m.rps / b.rps),
    );
    let wins = base_rounds
        .iter()
        .zip(&batch_rounds)
        .filter(|(b, m)| m.rps > b.rps)
        .count();
    let (base_fill, batch_fill) = (fill(&base_rounds), fill(&batch_rounds));
    println!(
        "over {rounds} rounds per mode (median [q1, q3]): baseline {:.1} [{:.1}, {:.1}] req/s, \
         batched {:.1} [{:.1}, {:.1}] req/s, paired ratio {:.2}x [{:.2}, {:.2}], \
         batched faster in {wins}/{rounds}; mean batch fill baseline {base_fill:.2}, \
         batched {batch_fill:.2}",
        base_rps[1],
        base_rps[0],
        base_rps[2],
        batch_rps[1],
        batch_rps[0],
        batch_rps[2],
        ratio[1],
        ratio[0],
        ratio[2],
    );
    if quick {
        println!("quick mode: skipping BENCH_service.json write");
        return;
    }
    let classes = CLASSES.map(|c| c.to_string()).join(", ");
    let quartile_json = |[q1, median, q3]: [f64; 3], digits: usize| {
        format!("{{\"q1\": {q1:.digits$}, \"median\": {median:.digits$}, \"q3\": {q3:.digits$}}}")
    };
    let json = format!(
        "{{\n  \"bench\": \"batch_throughput\",\n  \"requests\": {requests},\n  \
         \"rounds\": {rounds},\n  \"submitters\": {SUBMITTERS},\n  \"baseline\": \"submit\",\n  \
         \"chunk\": {CHUNK},\n  \"classes_bits\": [{classes}],\n  \"verify_residues\": true,\n  \
         \"baseline_rps\": {},\n  \"batched_rps\": {},\n  \
         \"paired_ratio\": {},\n  \"batched_wins\": {wins},\n  \
         \"baseline_mean_batch_fill\": {base_fill:.2},\n  \
         \"batched_mean_batch_fill\": {batch_fill:.2}\n}}\n",
        quartile_json(base_rps, 1),
        quartile_json(batch_rps, 1),
        quartile_json(ratio, 3),
    );
    std::fs::write("BENCH_service.json", keep_sections(&json)).expect("write BENCH_service.json");
    println!("wrote BENCH_service.json");
}

/// Requests per dispatch group over `rounds`, lone requests counting as
/// groups of one.
fn fill(rounds: &[RoundResult]) -> f64 {
    let requests: u64 = rounds.iter().map(|r| r.batched_requests).sum();
    let batches: u64 = rounds.iter().map(|r| r.batches).sum();
    requests as f64 / batches.max(1) as f64
}

/// First quartile, median and third quartile of `values`, each
/// interpolated linearly between the two nearest order statistics.
fn quartiles(values: impl Iterator<Item = f64>) -> [f64; 3] {
    let mut sorted: Vec<f64> = values.collect();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().saturating_sub(1);
    [0.25, 0.5, 0.75].map(|q| {
        let pos = q * last as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    })
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
