//! ft-service throughput/latency baseline: requests per second as a
//! function of the dispatcher's batch bound (`batching.max_batch`), at
//! three operand sizes. Results are recorded in EXPERIMENTS.md.
//!
//! Run with `cargo run --release -p ft-bench --bin service_throughput`.

use ft_bench::operands;
use ft_service::{BatchingConfig, MulService, ServiceConfig, SubmitError};
use std::time::Instant;

/// (label, operand bits, requests per measurement).
const SIZES: [(&str, u64, usize); 3] = [
    ("schoolbook/2kbit", 2_000, 512),
    ("seq_toom/50kbit", 50_000, 96),
    ("par_toom/200kbit", 200_000, 16),
];

const BATCH_SIZES: [usize; 3] = [1, 4, 16];
const SUBMITTERS: usize = 4;

fn main() {
    println!("ft-service throughput baseline ({SUBMITTERS} submitter threads, two lanes)");
    println!(
        "{:<20} {:>9} {:>9} {:>12} {:>14} {:>16}",
        "workload", "batch", "requests", "elapsed", "requests/sec", "mean latency"
    );
    for (label, bits, requests) in SIZES {
        for max_batch in BATCH_SIZES {
            run_once(label, bits, requests, max_batch);
        }
    }
}

fn run_once(label: &str, bits: u64, requests: usize, max_batch: usize) {
    let config = ServiceConfig {
        batching: BatchingConfig {
            max_batch,
            queue_capacity: 256,
        },
        // The baseline excludes the (default-on) residue verification
        // hook; verify_overhead measures its delta against these rows.
        verify_residues: false,
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
    let completed = handles.len();
    for handle in handles {
        handle.wait().expect("request failed");
    }
    let elapsed = started.elapsed();
    let metrics = service.shutdown();
    let rps = completed as f64 / elapsed.as_secs_f64();
    println!(
        "{label:<20} {max_batch:>9} {completed:>9} {:>12.3?} {rps:>14.1} {:>13} us",
        elapsed,
        metrics.mean_latency_us(),
    );
}
