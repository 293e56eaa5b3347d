//! End-to-end acceptance for the verification ladder (`residue →
//! dual-algorithm → recompute`).
//!
//! The headline property: under chaos that injects *residue-evading*
//! corruptions — deltas divisible by `2^128 − 1`, invisible to the
//! residue rung by construction — a service with the dual rung always-on
//! serves **zero** corrupt responses, meters every escalation, and fails
//! no request. The control experiment runs the same fault plan with the
//! dual rung disabled and demonstrates the blind spot: wrong products
//! reach clients while `verification_failures` stays zero.
//!
//! Seed matrix: `FT_CHAOS_SEED=7 cargo test -p ft-service --test
//! verify_ladder`.

use ft_bigint::BigInt;
use ft_service::chaos::FaultKind;
use ft_service::{
    install_quiet_panic_hook, BreakerPolicy, ChaosConfig, CorruptionKind, DistributedConfig,
    KernelPolicy, MulService, ServiceConfig, SubmitError, VerifyPolicy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn chaos_seed() -> u64 {
    std::env::var("FT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Thresholds that exercise all three local kernels on small operands.
fn mixed_kernel_policy() -> KernelPolicy {
    KernelPolicy {
        schoolbook_max_bits: 2_000,
        seq_toom_max_bits: 8_000,
        ..KernelPolicy::default()
    }
}

/// ~15% of requests draw a residue-evading corruption; nothing else.
fn evading_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        corrupt_per_10k: 1_500,
        corruption: CorruptionKind::ResidueEvading,
        ..ChaosConfig::default()
    }
}

fn dual_always() -> VerifyPolicy {
    VerifyPolicy {
        dual_per_10k: 10_000,
        ..VerifyPolicy::default()
    }
}

fn submit_with_backoff(service: &MulService, a: BigInt, b: BigInt) -> ft_service::ResponseHandle {
    loop {
        match service.submit(a.clone(), b.clone()) {
            Ok(handle) => return handle,
            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
            Err(SubmitError::ShuttingDown) => unreachable!("service is not shutting down"),
        }
    }
}

/// The acceptance run: every residue-evading corruption is caught by the
/// dual rung, confirmed by the recompute, and the request is served the
/// correct product in place — no retries, no worker faults, zero corrupt
/// responses.
#[test]
fn dual_rung_serves_zero_corrupt_responses_under_evading_chaos() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let config = ServiceConfig {
        kernel_policy: mixed_kernel_policy(),
        verify_residues: true,
        verify: dual_always(),
        chaos: Some(evading_chaos(seed)),
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1adde5);
    let mut pending = Vec::new();
    for i in 0..200u64 {
        let bits = [1_000, 4_000, 16_000][(i % 3) as usize];
        let a = BigInt::random_signed_bits(&mut rng, bits);
        let b = BigInt::random_signed_bits(&mut rng, bits);
        let expect = a.mul_schoolbook(&b);
        pending.push((submit_with_backoff(&service, a, b), expect));
    }
    for (i, (handle, expect)) in pending.into_iter().enumerate() {
        let product = handle
            .wait_timeout(Duration::from_secs(300))
            .unwrap_or_else(|_| panic!("request {i} hung"))
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert_eq!(product, expect, "request {i} served a corrupt product");
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.served, 200);
    assert_eq!(metrics.worker_faults, 0);
    let corruptions = metrics.injected_faults[FaultKind::Corrupt as usize].1;
    assert!(corruptions > 0, "seed {seed} injected no corruptions");
    // The blind spot, metered: zero residue failures, and exactly one
    // dual mismatch + escalation + confirmed recompute per injection.
    assert_eq!(metrics.verify.residue_failures, 0);
    assert_eq!(metrics.verify.dual_checks, 200);
    assert_eq!(metrics.verify.dual_failures, corruptions);
    assert_eq!(metrics.verify.escalations, corruptions);
    assert_eq!(metrics.verify.recompute_checks, corruptions);
    assert_eq!(metrics.verify.recompute_failures, corruptions);
    assert_eq!(metrics.verification_failures, corruptions);
    // Recovery happened in place: the ladder never burned a retry.
    assert_eq!(metrics.retries, 0);
    // Per-rung cost is metered (dual recomputed every product).
    assert_eq!(metrics.verify.residue_checks, 200);
    assert!(
        metrics.verify.dual_cost_us > 0,
        "dual-rung cost was metered"
    );
}

/// The control experiment: the same fault plan with the dual rung off.
/// Residue-only supervision demonstrably misses residue-evading
/// corruptions — wrong products reach clients and no failure is metered.
#[test]
fn residue_only_config_misses_evading_corruptions() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let config = ServiceConfig {
        kernel_policy: mixed_kernel_policy(),
        verify_residues: true,
        verify: VerifyPolicy {
            dual_per_10k: 0,
            ..VerifyPolicy::default()
        },
        chaos: Some(evading_chaos(seed)),
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1adde5);
    let mut pending = Vec::new();
    for i in 0..200u64 {
        let bits = [1_000, 4_000][(i % 2) as usize];
        let a = BigInt::random_signed_bits(&mut rng, bits);
        let b = BigInt::random_signed_bits(&mut rng, bits);
        let expect = a.mul_schoolbook(&b);
        pending.push((submit_with_backoff(&service, a, b), expect));
    }
    let mut wrong = 0u64;
    for (i, (handle, expect)) in pending.into_iter().enumerate() {
        let product = handle
            .wait_timeout(Duration::from_secs(300))
            .unwrap_or_else(|_| panic!("request {i} hung"))
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        if product != expect {
            wrong += 1;
        }
    }
    let metrics = service.shutdown();
    let corruptions = metrics.injected_faults[FaultKind::Corrupt as usize].1;
    assert!(corruptions > 0, "seed {seed} injected no corruptions");
    assert_eq!(
        wrong, corruptions,
        "every injected evading corruption was served as-is"
    );
    assert_eq!(
        metrics.verification_failures, 0,
        "the residue rung saw nothing wrong"
    );
    assert_eq!(metrics.verify.dual_checks, 0, "the dual rung never ran");
    assert_eq!(metrics.residue_checks, 200, "yet every product was checked");
}

/// The coalesced batch path: `submit_many` elements ride the dispatcher's
/// batch attempt, where the ladder verifies each product fused with its
/// multiplication. Corrupt elements are recovered in place — no element
/// falls back to the individual retry path.
#[test]
fn batched_elements_are_recovered_in_place() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let chaos = ChaosConfig {
        seed,
        corrupt_per_10k: 10_000, // every element draws a corruption
        corruption: CorruptionKind::ResidueEvading,
        ..ChaosConfig::default()
    };
    let config = ServiceConfig {
        kernel_policy: mixed_kernel_policy(),
        verify_residues: true,
        verify: dual_always(),
        chaos: Some(chaos),
        // Keep the breaker closed across all 8 confirmed corruptions so
        // the batch demonstrably stays on its selected kernel.
        breaker: BreakerPolicy {
            failure_threshold: 100,
            open_ms: 10,
        },
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c5);
    let (pairs, want): (Vec<_>, Vec<_>) = (0..8)
        .map(|_| {
            let a = BigInt::random_signed_bits(&mut rng, 4_000);
            let b = BigInt::random_signed_bits(&mut rng, 4_000);
            let expect = a.mul_schoolbook(&b);
            ((a, b), expect)
        })
        .unzip();
    let handle = service.submit_many(pairs).unwrap();
    for (i, (result, want)) in handle.wait().into_iter().zip(want).enumerate() {
        assert_eq!(result.unwrap(), want, "element {i} must be bit-exact");
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.served, 8);
    assert_eq!(metrics.verify.dual_failures, 8);
    assert_eq!(metrics.verify.recompute_failures, 8);
    assert_eq!(metrics.batch_element_retries, 0, "recovered in place");
    assert_eq!(metrics.worker_faults, 0);
}

/// Responses from the simulated coded machine ride the same ladder: a
/// corruption injected into a distributed response is caught, confirmed
/// against a *local* clean recompute, and served correct — while the
/// batch stays on the distributed kernel.
#[test]
fn distributed_responses_ride_the_ladder() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let chaos = ChaosConfig {
        seed,
        corrupt_per_10k: 10_000,
        corruption: CorruptionKind::ResidueEvading,
        ..ChaosConfig::default()
    };
    let config = ServiceConfig {
        kernel_policy: KernelPolicy {
            schoolbook_max_bits: 2_000,
            seq_toom_max_bits: 3_000,
            ..KernelPolicy::default()
        },
        verify_residues: true,
        verify: dual_always(),
        chaos: Some(chaos),
        breaker: BreakerPolicy {
            failure_threshold: 100,
            open_ms: 10,
        },
        distributed: DistributedConfig {
            enabled: true,
            k: 2,
            bfs_steps: 1,
            f: 1,
            min_group: 2,
            min_bits: 3_000,
            max_bits: 1_000_000,
            fault_seed: seed,
            ..DistributedConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd157);
    let (pairs, want): (Vec<_>, Vec<_>) = (0..4)
        .map(|_| {
            let a = BigInt::random_signed_bits(&mut rng, 4_000);
            let b = BigInt::random_signed_bits(&mut rng, 4_000);
            let expect = a.mul_schoolbook(&b);
            ((a, b), expect)
        })
        .unzip();
    let handle = service.submit_many(pairs).unwrap();
    for (i, (result, want)) in handle.wait().into_iter().zip(want).enumerate() {
        assert_eq!(result.unwrap(), want, "element {i} must be bit-exact");
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.served, 4);
    let distributed_served = metrics
        .per_kernel
        .iter()
        .find(|(name, _)| *name == "distributed_toom")
        .map_or(0, |&(_, n)| n);
    assert_eq!(distributed_served, 4, "served from the coded machine");
    assert_eq!(metrics.verify.dual_failures, 4);
    assert_eq!(metrics.verify.recompute_failures, 4);
    assert_eq!(metrics.worker_faults, 0);
}

/// Confirmed corruptions charge the serving kernel's breaker
/// (`breaker_on_mismatch`): a kernel that keeps returning corrupt
/// products trips its breaker and later requests divert below it.
#[test]
fn repeat_offenders_trip_the_breaker() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let chaos = ChaosConfig {
        seed,
        corrupt_per_10k: 10_000,
        corruption: CorruptionKind::ResidueEvading,
        ..ChaosConfig::default()
    };
    let config = ServiceConfig {
        kernel_policy: mixed_kernel_policy(),
        verify_residues: true,
        verify: dual_always(),
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
        "three confirmed corruptions must trip the seq-toom breaker"
    );
    assert_eq!(metrics.worker_faults, 0);
    assert_eq!(
        metrics.verify.recompute_failures,
        metrics.verification_failures
    );
}
