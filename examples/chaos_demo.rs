//! Chaos demo for ft-service: the same mixed-kernel workload run twice —
//! once clean, once with ~10% injected faults (kernel panics, stragglers,
//! silent product corruptions). Every product is verified against
//! schoolbook in both runs; the chaos run survives on the supervisor's
//! retry/backoff, product checks modulo two secret primes, and
//! circuit-breaker kernel degradation, and the metrics snapshot shows
//! the recovery work.
//!
//! Run with `cargo run --release --example chaos_demo`.

use ft_toom::ft_bigint::BigInt;
use ft_toom::ft_service::{
    install_quiet_panic_hook, BreakerPolicy, ChaosConfig, KernelPolicy, MulService, RetryPolicy,
    ServiceConfig, SubmitError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const REQUESTS: u64 = 500;
const SEED: u64 = 42;

fn main() {
    // Injected panics are expected here; don't spray backtraces.
    install_quiet_panic_hook();
    run("clean run (no chaos)", None);
    run(
        "chaos run (~10% fault rate, seed 42)",
        Some(ChaosConfig {
            seed: SEED,
            panic_per_10k: 333,
            straggle_per_10k: 333,
            corrupt_per_10k: 334,
            straggle_ms: 1,
            ..ChaosConfig::default()
        }),
    );
}

fn run(label: &str, chaos: Option<ChaosConfig>) {
    let config = ServiceConfig {
        kernel_policy: KernelPolicy {
            // Thresholds pulled down so the workload hits all three
            // kernels at demo-friendly operand sizes.
            schoolbook_max_bits: 2_000,
            seq_toom_max_bits: 8_000,
            ..KernelPolicy::default()
        },
        verify_residues: true,
        retry: RetryPolicy {
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_max_ms: 8,
        },
        // Trip a breaker on the first failure so injected faults visibly
        // divert retries down the kernel degradation ladder.
        breaker: BreakerPolicy {
            failure_threshold: 1,
            open_ms: 20,
        },
        chaos,
        ..ServiceConfig::default()
    };
    println!("== {label} ==");
    println!("config: {}", config.to_json());
    let service = MulService::start(config);
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5eed);
    let mut pending = Vec::new();
    for i in 0..REQUESTS {
        let bits = [1_000, 4_000, 16_000][(i % 3) as usize];
        let a = BigInt::random_signed_bits(&mut rng, bits);
        let b = BigInt::random_signed_bits(&mut rng, bits);
        let want = a.mul_schoolbook(&b);
        // Bounded queues: retry rather than drop on transient pressure.
        let handle = loop {
            match service.submit(a.clone(), b.clone()) {
                Ok(h) => break h,
                Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                Err(SubmitError::ShuttingDown) => unreachable!("service is not shutting down"),
            }
        };
        pending.push((handle, want));
    }
    let mut verified = 0usize;
    for (handle, want) in pending {
        let product = handle.wait().expect("request must survive the chaos");
        assert_eq!(product, want, "service returned a wrong product");
        verified += 1;
    }
    let elapsed = started.elapsed();
    let metrics = service.shutdown();
    println!("{verified}/{REQUESTS} products correct (checked against schoolbook)");
    println!(
        "elapsed {elapsed:.2?}; retries {}, fallbacks {}, breaker opens {}, \
         verification failures {} (injected corruptions {}), worker faults {}",
        metrics.retries,
        metrics.fallbacks,
        metrics.breaker_opens,
        metrics.verification_failures,
        metrics.injected_faults[2].1,
        metrics.worker_faults,
    );
    println!("metrics: {}\n", metrics.to_json());
}
