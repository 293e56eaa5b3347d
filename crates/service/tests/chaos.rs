//! End-to-end chaos test: the issue's acceptance run. A 500-request
//! mixed-kernel workload with ~10% injected faults (panics, stragglers,
//! corruptions) must complete every request with a verified-correct
//! product via retry / breaker fallback, hang no handles, and meter the
//! recoveries.
//!
//! The chaos seed defaults to 42 and can be overridden for exploratory
//! runs: `FT_CHAOS_SEED=7 cargo test -p ft-service --test chaos`. The
//! corruption shape is part of the matrix too:
//! `FT_CHAOS_CORRUPTION=residue_evading` switches the injector to deltas
//! divisible by `2^128 − 1`, invisible modulo `2^64 ± 1`. The default
//! config's product check, modulo two secret primes, must catch both
//! shapes alike, so the assertions do not branch on the mode.

use ft_bigint::BigInt;
use ft_service::chaos::FaultKind;
use ft_service::{
    install_quiet_panic_hook, BatchingConfig, BreakerPolicy, ChaosConfig, CorruptionKind,
    KernelPolicy, MulService, RetryPolicy, ServiceConfig, SubmitError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Bounded queues are part of the design: on transient backpressure keep
/// trying instead of dropping the request on the floor.
fn submit_with_backoff(service: &MulService, a: BigInt, b: BigInt) -> ft_service::ResponseHandle {
    loop {
        match service.submit(a.clone(), b.clone()) {
            Ok(handle) => return handle,
            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
            Err(SubmitError::ShuttingDown) => unreachable!("service is not shutting down"),
        }
    }
}

/// One request per dispatcher round, so every request takes the
/// per-request supervised path and each drawn fault reaches the
/// supervisor on its own. (In a coalesced batch, an injected panic fails
/// the whole attempt before any product exists, masking its batch-mates'
/// corruption draws; `batched_chaos_run_survives` covers that path.)
fn per_request() -> BatchingConfig {
    BatchingConfig {
        max_batch: 1,
        ..BatchingConfig::default()
    }
}

fn chaos_seed() -> u64 {
    std::env::var("FT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn chaos_corruption() -> CorruptionKind {
    match std::env::var("FT_CHAOS_CORRUPTION") {
        Ok(name) => CorruptionKind::from_name(&name)
            .unwrap_or_else(|| panic!("unknown FT_CHAOS_CORRUPTION {name:?}")),
        Err(_) => CorruptionKind::default(),
    }
}

/// Thresholds that exercise all three kernels on operand sizes small
/// enough to grind 500 requests quickly.
fn mixed_kernel_policy() -> KernelPolicy {
    KernelPolicy {
        schoolbook_max_bits: 2_000,
        seq_toom_max_bits: 8_000,
        ..KernelPolicy::default()
    }
}

fn chaos_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        // ~10% of requests draw a fault, split across the three kinds.
        panic_per_10k: 333,
        straggle_per_10k: 333,
        corrupt_per_10k: 334,
        straggle_ms: 1,
        corruption: chaos_corruption(),
        ..ChaosConfig::default()
    }
}

#[test]
fn five_hundred_request_chaos_run_survives() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let config = ServiceConfig {
        kernel_policy: mixed_kernel_policy(),
        batching: per_request(),
        verify_residues: true,
        chaos: Some(chaos_config(seed)),
        retry: RetryPolicy {
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_max_ms: 8,
        },
        // A single failure trips a breaker, so injected faults on Toom
        // requests demonstrably divert retries down the kernel ladder.
        breaker: BreakerPolicy {
            failure_threshold: 1,
            open_ms: 20,
        },
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut pending = Vec::new();
    for i in 0..500u64 {
        // Cycle schoolbook (1 kbit), seq toom (4 kbit), par toom (16 kbit).
        let bits = [1_000, 4_000, 16_000][(i % 3) as usize];
        let a = BigInt::random_signed_bits(&mut rng, bits);
        let b = BigInt::random_signed_bits(&mut rng, bits);
        let expect = a.mul_schoolbook(&b);
        pending.push((submit_with_backoff(&service, a, b), expect));
    }
    // Zero handles may hang; the bound is generous but finite.
    for (i, (handle, expect)) in pending.into_iter().enumerate() {
        match handle.wait_timeout(Duration::from_secs(300)) {
            Ok(result) => {
                let product = result.unwrap_or_else(|e| panic!("request {i} failed: {e}"));
                assert_eq!(product, expect, "request {i} returned a wrong product");
            }
            Err(_) => panic!("request {i} hung past the timeout"),
        }
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.served, 500);
    assert_eq!(metrics.worker_faults, 0, "no request exhausted recovery");
    let injected: u64 = metrics.injected_faults.iter().map(|&(_, n)| n).sum();
    assert!(injected > 0, "the fault plan injected nothing");
    assert!(metrics.retries > 0, "faults must force retries");
    assert!(
        metrics.fallbacks > 0,
        "breakers must divert retries to degraded kernels"
    );
    let corruptions = metrics.injected_faults[FaultKind::Corrupt as usize].1;
    assert!(corruptions > 0, "seed {seed} injected no corruptions");
    // The check catches *every* injected corruption, of either shape — no
    // more, no fewer: honest products never fail verification.
    assert_eq!(metrics.verification_failures, corruptions);
    // Every attempt that produced a product was checked: the 500 served
    // products plus each corrupted one (panicked attempts never reach the
    // check).
    assert_eq!(metrics.residue_checks, 500 + metrics.verification_failures);
}

/// The NTT-served leg of the chaos matrix: a policy whose NTT floor sits
/// right on the sequential-Toom ceiling routes every large request to the
/// two-prime CRT NTT kernel, and the same ~10% fault plan (panics,
/// stragglers, corruptions of the configured kind) must still serve zero
/// corrupt products. Breaker trips demonstrably degrade NTT → seq Toom.
#[test]
fn ntt_chaos_run_survives() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let config = ServiceConfig {
        batching: per_request(),
        kernel_policy: KernelPolicy {
            schoolbook_max_bits: 2_000,
            seq_toom_max_bits: 8_000,
            ntt_min_bits: 8_000,
            ..KernelPolicy::default()
        },
        verify_residues: true,
        chaos: Some(chaos_config(seed)),
        retry: RetryPolicy {
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_max_ms: 8,
        },
        breaker: BreakerPolicy {
            failure_threshold: 1,
            open_ms: 20,
        },
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x277);
    let mut pending = Vec::new();
    for i in 0..200u64 {
        // All sizes above the NTT floor, so every undegraded request is
        // NTT-served; the spread keeps transform sizes from all rounding
        // to one power of two.
        let bits = [12_000, 16_000, 24_000][(i % 3) as usize];
        let a = BigInt::random_signed_bits(&mut rng, bits);
        let b = BigInt::random_signed_bits(&mut rng, bits);
        let expect = a.mul_schoolbook(&b);
        pending.push((submit_with_backoff(&service, a, b), expect));
    }
    for (i, (handle, expect)) in pending.into_iter().enumerate() {
        match handle.wait_timeout(Duration::from_secs(300)) {
            Ok(result) => {
                let product = result.unwrap_or_else(|e| panic!("request {i} failed: {e}"));
                assert_eq!(product, expect, "request {i} returned a wrong product");
            }
            Err(_) => panic!("request {i} hung past the timeout"),
        }
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.served, 200);
    assert_eq!(metrics.worker_faults, 0, "no request exhausted recovery");
    let ntt_served = metrics
        .per_kernel
        .iter()
        .find(|&&(name, _)| name == "ntt")
        .map_or(0, |&(_, n)| n);
    assert!(ntt_served > 0, "no request was served by the NTT kernel");
    let injected: u64 = metrics.injected_faults.iter().map(|&(_, n)| n).sum();
    assert!(injected > 0, "the fault plan injected nothing");
    assert!(
        metrics.fallbacks > 0,
        "breaker trips must degrade NTT retries down the ladder"
    );
    let corruptions = metrics.injected_faults[FaultKind::Corrupt as usize].1;
    assert!(corruptions > 0, "seed {seed} injected no corruptions");
    assert_eq!(metrics.verification_failures, corruptions);
    assert_eq!(metrics.residue_checks, 200 + metrics.verification_failures);
}

/// The batched acceptance run: the same fault plan, with request 0 a
/// forced straggler that the other 299 queue behind. The lane then takes
/// its backlog in rounds of `max_batch` and merges same-class requests
/// into single supervised batches. A fault injected into one batch
/// element must never fail an uninjured neighbour — every request still
/// resolves to a verified-correct product.
#[test]
fn batched_chaos_run_survives() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let config = ServiceConfig {
        kernel_policy: mixed_kernel_policy(),
        verify_residues: true,
        chaos: Some(ChaosConfig {
            // Long enough for the whole workload to queue behind request
            // 0; the drawn stragglers sleep as long, once per batch.
            straggle_ms: 50,
            force: vec![(0, FaultKind::Straggle)],
            ..chaos_config(seed)
        }),
        retry: RetryPolicy {
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_max_ms: 8,
        },
        breaker: BreakerPolicy {
            failure_threshold: 1,
            open_ms: 20,
        },
        batching: BatchingConfig {
            max_batch: 16,
            ..BatchingConfig::default()
        },
        tuner: ft_service::TunerConfig {
            enabled: false,
            ..ft_service::TunerConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c4);
    // Precompute the workload so submission is tight enough to coalesce.
    let workload: Vec<(BigInt, BigInt, BigInt)> = (0..300u64)
        .map(|i| {
            let bits = [1_000, 4_000][(i % 2) as usize];
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            let expect = a.mul_schoolbook(&b);
            (a, b, expect)
        })
        .collect();
    let mut pending = Vec::new();
    for (i, (a, b, expect)) in workload.into_iter().enumerate() {
        pending.push((submit_with_backoff(&service, a, b), expect));
        if i == 0 {
            // The injection is metered just before the straggler's
            // attempt sleeps: its round is closed, and the rest queue.
            let deadline = Instant::now() + Duration::from_secs(60);
            while service.metrics().injected_faults[FaultKind::Straggle as usize].1 == 0 {
                assert!(Instant::now() < deadline, "request 0 never straggled");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    for (i, (handle, expect)) in pending.into_iter().enumerate() {
        match handle.wait_timeout(Duration::from_secs(300)) {
            Ok(result) => {
                let product = result.unwrap_or_else(|e| panic!("request {i} failed: {e}"));
                assert_eq!(product, expect, "request {i} returned a wrong product");
            }
            Err(_) => panic!("request {i} hung past the timeout"),
        }
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.served, 300);
    assert_eq!(metrics.worker_faults, 0, "no request exhausted recovery");
    assert!(metrics.batches > 0, "nothing was dispatched");
    assert!(metrics.batched_requests > metrics.batches);
    let injected: u64 = metrics.injected_faults.iter().map(|&(_, n)| n).sum();
    assert!(
        injected > 1,
        "the fault plan injected nothing beyond the forced straggle"
    );
    // On the batch path a drawn corruption can be masked by a sibling's
    // panic (the batch attempt dies before products exist), so unlike the
    // per-request run the tally is an upper bound, not an equality.
    let corruptions = metrics.injected_faults[FaultKind::Corrupt as usize].1;
    assert!(corruptions > 0, "seed {seed} injected no corruptions");
    assert!(metrics.verification_failures <= corruptions);
    // Every served product passed the check at least once.
    assert!(metrics.residue_checks >= 300);
}

/// A kernel that keeps returning corrupt products trips its breaker like
/// one that keeps panicking: three failed checks in a row on seq toom
/// open it, and later requests divert below it. Only consecutive
/// failures count (a clean retry resets them), so the fault plan
/// corrupts three attempts in a row; see
/// `intermittent_corrupters_never_trip_the_breaker` for one.
#[test]
fn repeat_offenders_trip_the_breaker() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let chaos = ChaosConfig {
        seed,
        corrupt_per_10k: 10_000,
        // Each request's first three attempts are corrupted.
        max_faulty_attempts: 3,
        corruption: chaos_corruption(),
        ..ChaosConfig::default()
    };
    let config = ServiceConfig {
        kernel_policy: mixed_kernel_policy(),
        batching: per_request(),
        chaos: Some(chaos),
        breaker: BreakerPolicy {
            failure_threshold: 3,
            open_ms: 60_000,
        },
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0ffe);
    let mut pending = Vec::new();
    for _ in 0..10 {
        // 4-kbit operands select seq toom while its breaker holds.
        let a = BigInt::random_signed_bits(&mut rng, 4_000);
        let b = BigInt::random_signed_bits(&mut rng, 4_000);
        let expect = a.mul_schoolbook(&b);
        pending.push((submit_with_backoff(&service, a, b), expect));
    }
    for (i, (handle, expect)) in pending.into_iter().enumerate() {
        let product = handle
            .wait_timeout(Duration::from_secs(300))
            .unwrap_or_else(|_| panic!("request {i} hung"))
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert_eq!(product, expect, "request {i}");
    }
    let metrics = service.shutdown();
    assert!(
        metrics.breaker_opens >= 1,
        "three failed checks in a row must trip the seq-toom breaker"
    );
    assert!(metrics.fallbacks > 0, "later attempts divert below it");
    assert_eq!(metrics.worker_faults, 0);
    assert_eq!(
        metrics.verification_failures,
        metrics.injected_faults[FaultKind::Corrupt as usize].1
    );
}

/// A kernel that corrupts the first attempt of every request and then
/// succeeds on the retry never trips its breaker: each clean retry resets
/// the consecutive-failure count, so every request pays for a second
/// multiply on the same kernel instead.
#[test]
fn intermittent_corrupters_never_trip_the_breaker() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let chaos = ChaosConfig {
        seed,
        corrupt_per_10k: 10_000,
        // Only each request's first attempt is corrupted.
        max_faulty_attempts: 1,
        corruption: chaos_corruption(),
        ..ChaosConfig::default()
    };
    let config = ServiceConfig {
        kernel_policy: mixed_kernel_policy(),
        batching: per_request(),
        chaos: Some(chaos),
        breaker: BreakerPolicy {
            failure_threshold: 3,
            open_ms: 60_000,
        },
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1e7e);
    let mut pending = Vec::new();
    for _ in 0..10 {
        // 4-kbit operands select seq toom.
        let a = BigInt::random_signed_bits(&mut rng, 4_000);
        let b = BigInt::random_signed_bits(&mut rng, 4_000);
        let expect = a.mul_schoolbook(&b);
        pending.push((submit_with_backoff(&service, a, b), expect));
    }
    for (i, (handle, expect)) in pending.into_iter().enumerate() {
        let product = handle
            .wait_timeout(Duration::from_secs(300))
            .unwrap_or_else(|_| panic!("request {i} hung"))
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert_eq!(product, expect, "request {i}");
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.served, 10);
    assert_eq!(metrics.injected_faults[FaultKind::Corrupt as usize].1, 10);
    assert_eq!(metrics.verification_failures, 10, "every first attempt");
    assert_eq!(metrics.retries, 10, "one second multiply per request");
    assert_eq!(
        metrics.breaker_opens, 0,
        "a clean retry resets the count, so the breaker never trips"
    );
    assert_eq!(metrics.fallbacks, 0, "every retry stays on seq toom");
    assert_eq!(metrics.worker_faults, 0);
}

#[test]
fn chaos_runs_are_reproducible_for_a_seed() {
    install_quiet_panic_hook();
    let run = |seed: u64| {
        let config = ServiceConfig {
            kernel_policy: mixed_kernel_policy(),
            batching: per_request(),
            chaos: Some(chaos_config(seed)),
            breaker: BreakerPolicy {
                failure_threshold: 1,
                open_ms: 10,
            },
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = StdRng::seed_from_u64(seed);
        let handles: Vec<_> = (0..100u64)
            .map(|i| {
                let bits = [1_500, 5_000][(i % 2) as usize];
                let a = BigInt::random_signed_bits(&mut rng, bits);
                let b = BigInt::random_signed_bits(&mut rng, bits);
                submit_with_backoff(&service, a, b)
            })
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        service.shutdown()
    };
    let seed = chaos_seed();
    let first = run(seed);
    let second = run(seed);
    // Fault decisions depend only on (seed, request index, attempt), so
    // the injected-fault tally is identical across runs regardless of
    // thread scheduling.
    assert_eq!(first.injected_faults, second.injected_faults);
    assert_eq!(
        first.verification_failures, second.verification_failures,
        "every corruption is caught in both runs"
    );
}
