//! End-to-end demo of ft-service: 1200 mixed-size requests from 4
//! submitter threads, every product verified against schoolbook, followed
//! by a deliberately starved configuration that demonstrates the
//! robustness controls (backpressure, deadlines, shedding) in the big
//! lane while it grinds one huge product.
//!
//! Run with `cargo run --release --example service_demo`.

use ft_toom::ft_bigint::BigInt;
use ft_toom::ft_service::{BatchingConfig, KernelPolicy, MulService, ServiceConfig, SubmitError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

const SUBMITTERS: usize = 4;
const REQUESTS_PER_THREAD: usize = 300;

fn main() {
    healthy_run();
    starved_run();
}

/// Phase 1: a correctly provisioned service absorbs a 4-thread mixed-size
/// workload; every result is checked against schoolbook.
fn healthy_run() {
    let config = ServiceConfig {
        batching: BatchingConfig {
            max_batch: 16,
            queue_capacity: 256,
            ..BatchingConfig::default()
        },
        kernel_policy: KernelPolicy {
            // Thresholds pulled down so the 1..32000-bit workload
            // exercises all three kernels.
            schoolbook_max_bits: 2_000,
            seq_toom_max_bits: 12_000,
            ..KernelPolicy::default()
        },
        ..ServiceConfig::default()
    };
    println!("== healthy run: {SUBMITTERS} submitters x {REQUESTS_PER_THREAD} requests ==");
    println!("config: {}", config.to_json());
    let service = MulService::start(config);

    let verified: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(1000 + t as u64);
                    let mut ok = 0usize;
                    for _ in 0..REQUESTS_PER_THREAD {
                        let bits = 1 + rng.random::<u64>() % 32_000;
                        let a = BigInt::random_signed_bits(&mut rng, bits);
                        let b = BigInt::random_signed_bits(&mut rng, bits);
                        let want = a.mul_schoolbook(&b);
                        // Bounded queues: retry rather than drop on
                        // transient pressure.
                        let handle = loop {
                            match service.submit(a.clone(), b.clone()) {
                                Ok(h) => break h,
                                Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                                Err(SubmitError::ShuttingDown) => {
                                    panic!("service shut down mid-demo")
                                }
                            }
                        };
                        assert_eq!(handle.wait().unwrap(), want, "product mismatch");
                        ok += 1;
                    }
                    ok
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .sum()
    });

    let metrics = service.shutdown();
    println!("verified {verified} products against schoolbook");
    println!("metrics: {}", metrics.to_json());
    assert_eq!(verified, SUBMITTERS * REQUESTS_PER_THREAD);
    // The NTT and distributed rungs sit far above this workload's sizes.
    for (name, count) in &metrics.per_kernel[..3] {
        assert!(*count > 0, "kernel {name} was never selected");
    }
    println!("all three kernels selected ✓\n");
}

/// Phase 2: depth-1 lane queues, a zero-tolerance shed bound, and
/// millisecond deadlines — enough starvation to surface every typed
/// rejection path.
fn starved_run() {
    let config = ServiceConfig {
        batching: BatchingConfig {
            max_batch: 4,
            queue_capacity: 1,
            ..BatchingConfig::default()
        },
        shed_after_ms: Some(0),
        kernel_policy: KernelPolicy {
            // Everything through schoolbook so the blocker is slow.
            schoolbook_max_bits: u64::MAX,
            ..KernelPolicy::default()
        },
        ..ServiceConfig::default()
    };
    println!("== starved run: {} ==", config.to_json());
    let service = MulService::start(config);
    let mut rng = StdRng::seed_from_u64(7);

    // A large schoolbook product occupies the big lane for ~100 ms.
    let big = BigInt::random_bits(&mut rng, 600_000);
    let blocker = service
        .submit_with_deadline(big.clone(), big, Duration::from_secs(3600))
        .expect("blocker should be accepted");
    // Give the big lane time to dequeue the blocker and start grinding,
    // so its depth-1 queue is empty for exactly one of the submits below.
    std::thread::sleep(Duration::from_millis(10));

    // Past the lane boundary, so these queue in the big lane behind the
    // blocker (a smaller product would take the idle small lane).
    let mid = BigInt::random_bits(&mut rng, 30_000);
    let mut queue_full = 0usize;
    let mut outcomes = Vec::new();
    for _ in 0..16 {
        // 1 ms deadline, but the big lane is busy for ~100 ms: whichever
        // submit wins the single queue slot must time out.
        match service.submit_with_deadline(mid.clone(), mid.clone(), Duration::from_millis(1)) {
            Ok(handle) => outcomes.push(handle),
            Err(SubmitError::QueueFull { .. }) => queue_full += 1,
            Err(SubmitError::ShuttingDown) => unreachable!("not shutting down"),
        }
    }
    let _ = blocker.wait().expect("blocker computes fine");
    // The blocker is done, but the one queued request may still hold the
    // depth-1 slot until the lane dequeues (and expires) it — retry
    // until the slot frees. The accepted request's queue age
    // (microseconds) still exceeds the 0 ms shed bound.
    outcomes.push(loop {
        match service.submit(mid.clone(), mid.clone()) {
            Ok(handle) => break handle,
            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
            Err(SubmitError::ShuttingDown) => unreachable!("not shutting down"),
        }
    });

    let (mut timed_out, mut shed, mut served) = (0usize, 0usize, 0usize);
    for handle in outcomes {
        match handle.wait() {
            Ok(_) => served += 1,
            Err(e) if e.to_string().contains("deadline") => timed_out += 1,
            Err(_) => shed += 1,
        }
    }
    let metrics = service.shutdown();
    println!(
        "rejected at queue: {queue_full}, timed out: {timed_out}, shed: {shed}, served: {served}"
    );
    println!("metrics: {}", metrics.to_json());
    assert!(
        queue_full > 0,
        "starved config must reject at the queue boundary"
    );
    assert!(
        timed_out + shed > 0,
        "starved config must time out or shed at least one request"
    );
    println!("backpressure/deadline/shedding demonstrated ✓");
}
