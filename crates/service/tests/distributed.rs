//! End-to-end distributed serving: coalesced batches promoted to the
//! simulated coded machine, with faults injected *inside* the machine.
//!
//! The acceptance run: a batch served via `DistributedToom` with `f`
//! injected hard faults plus one delay fault per run returns bit-exact,
//! checked products — recovery driven entirely by the heartbeat
//! detector's verdict (the fault plan is injection-only; nothing on the
//! detection path queries it). A second run with more than `f` faults on
//! every attempt must degrade through the supervisor's ladder to the
//! local kernels instead of erroring. Products of the coded machine take
//! the same product check as local ones: a corrupted one is caught and
//! its element retried on the machine.
//!
//! The in-machine fault seed defaults to 42 and follows the chaos seed
//! matrix: `FT_CHAOS_SEED=1337 cargo test -p ft-service --test distributed`.

use ft_bigint::BigInt;
use ft_service::chaos::FaultKind;
use ft_service::{
    install_quiet_panic_hook, BreakerPolicy, ChaosConfig, CorruptionKind, DistributedConfig,
    KernelPolicy, MulService, RetryPolicy, ServiceConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn chaos_seed() -> u64 {
    std::env::var("FT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// 4-kbit operands select the parallel Toom kernel, making the coalesced
/// group eligible for promotion to the distributed backend.
fn policy() -> KernelPolicy {
    KernelPolicy {
        schoolbook_max_bits: 2_000,
        seq_toom_max_bits: 3_000,
        ..KernelPolicy::default()
    }
}

fn distributed(hard_faults: u32, faulty_attempts: u32) -> DistributedConfig {
    DistributedConfig {
        enabled: true,
        k: 2,
        bfs_steps: 1,
        f: 1,
        min_group: 2,
        min_bits: 3_000,
        max_bits: 1_000_000,
        fault_seed: chaos_seed(),
        hard_faults_per_run: hard_faults,
        delay_ranks: 1,
        delay_factor: 4,
        faulty_attempts,
        deadline_budget: 1,
        straggler_factor: 0,
        heartbeat_period: 1,
        recursion_detect: false,
    }
}

fn batch(n: u64, seed: u64) -> (Vec<(BigInt, BigInt)>, Vec<BigInt>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    let mut want = Vec::new();
    for _ in 0..n {
        let a = BigInt::random_signed_bits(&mut rng, 4_000);
        let b = BigInt::random_signed_bits(&mut rng, 4_000);
        want.push(a.mul_schoolbook(&b));
        pairs.push((a, b));
    }
    (pairs, want)
}

#[test]
fn promoted_batch_recovers_injected_faults_on_the_coded_machine() {
    install_quiet_panic_hook();
    let config = ServiceConfig {
        kernel_policy: policy(),
        verify_residues: true,
        // f = 1 hard fault per run plus one delay fault: every run is
        // survivable, so nothing should ever leave the distributed rung.
        distributed: distributed(1, 1),
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let (pairs, want) = batch(6, chaos_seed() ^ 0xd157);
    let handle = service.submit_many(pairs).unwrap();
    for (i, (result, want)) in handle.wait().into_iter().zip(want).enumerate() {
        assert_eq!(result.unwrap(), want, "element {i} must be bit-exact");
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.served, 6);
    let distributed_served = metrics
        .per_kernel
        .iter()
        .find(|(name, _)| *name == "distributed_toom")
        .map(|&(_, n)| n)
        .unwrap();
    assert_eq!(distributed_served, 6, "whole batch promoted and served");
    assert_eq!(metrics.distributed.runs, 6);
    assert_eq!(
        metrics.distributed.recoveries, 6,
        "every run had a hard fault to detect and recover"
    );
    assert_eq!(metrics.distributed.unrecoverable, 0);
    assert_eq!(
        metrics.distributed.false_positives, 0,
        "the detector never declares a live rank dead"
    );
    assert!(metrics.distributed.detect_rounds >= 6);
    assert!(
        metrics.distributed.max_detect_latency_ticks >= 1,
        "a detected death has a positive heartbeat lag"
    );
    assert!(metrics.residue_checks >= 6, "products were checked");
    assert_eq!(metrics.worker_faults, 0);
    assert_eq!(metrics.verification_failures, 0);
}

#[test]
fn unrecoverable_faults_degrade_to_local_kernels() {
    install_quiet_panic_hook();
    let config = ServiceConfig {
        kernel_policy: policy(),
        verify_residues: true,
        // 2 faulty columns > f = 1 on EVERY attempt: the distributed rung
        // can never serve these, so the supervisor must walk each element
        // down to the local kernels.
        distributed: distributed(2, u32::MAX),
        retry: RetryPolicy {
            max_retries: 1,
            backoff_base_ms: 0,
            backoff_max_ms: 0,
        },
        // Keep the distributed breaker closed throughout so every element
        // demonstrably attempts (and fails) the coded machine first.
        breaker: BreakerPolicy {
            failure_threshold: 100,
            open_ms: 10,
        },
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let (pairs, want) = batch(4, chaos_seed() ^ 0xfa11);
    let handle = service.submit_many(pairs).unwrap();
    for (i, (result, want)) in handle.wait().into_iter().zip(want).enumerate() {
        assert_eq!(result.unwrap(), want, "element {i} must be bit-exact");
    }
    let metrics = service.shutdown();
    assert_eq!(metrics.served, 4);
    let by_kernel = |name: &str| {
        metrics
            .per_kernel
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, n)| n)
            .unwrap()
    };
    assert_eq!(by_kernel("distributed_toom"), 0);
    assert_eq!(by_kernel("par_toom"), 4, "served on the local fallback");
    // One unrecoverable batch attempt plus one per element on the
    // individual retry path.
    assert_eq!(metrics.distributed.unrecoverable, 5);
    assert_eq!(metrics.distributed.runs, 0, "no machine run ever completed");
    assert!(metrics.fallbacks > 0, "degradation was metered");
    assert!(metrics.retries > 0);
    assert_eq!(metrics.worker_faults, 0, "no request was failed outright");
    assert_eq!(metrics.batch_faults, 1, "the promoted batch hard-faulted");
}

/// Every product of the coded machine is checked: a residue-evading
/// corruption injected into each distributed response is caught, and its
/// element retried — on the coded machine again, since the breaker stays
/// closed.
#[test]
fn distributed_products_are_checked() {
    install_quiet_panic_hook();
    let seed = chaos_seed();
    let config = ServiceConfig {
        kernel_policy: policy(),
        chaos: Some(ChaosConfig {
            seed,
            corrupt_per_10k: 10_000,
            corruption: CorruptionKind::ResidueEvading,
            ..ChaosConfig::default()
        }),
        breaker: BreakerPolicy {
            failure_threshold: 100,
            open_ms: 10,
        },
        distributed: distributed(0, 0),
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let (pairs, want) = batch(4, seed ^ 0xd157);
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
    assert_eq!(metrics.injected_faults[FaultKind::Corrupt as usize].1, 4);
    assert_eq!(metrics.verification_failures, 4, "every corruption caught");
    assert_eq!(metrics.batch_element_retries, 4);
    assert_eq!(
        metrics.residue_checks, 8,
        "four corrupt products and four retried ones, all checked"
    );
    assert_eq!(metrics.distributed.runs, 8);
    assert_eq!(metrics.worker_faults, 0);
}

#[test]
fn disabled_backend_never_promotes() {
    let config = ServiceConfig {
        kernel_policy: policy(),
        distributed: DistributedConfig {
            enabled: false,
            ..distributed(0, 0)
        },
        ..ServiceConfig::default()
    };
    let service = MulService::start(config);
    let (pairs, want) = batch(4, 9);
    let handle = service.submit_many(pairs).unwrap();
    for (result, want) in handle.wait().into_iter().zip(want) {
        assert_eq!(result.unwrap(), want);
    }
    let metrics = service.shutdown();
    let distributed_served = metrics
        .per_kernel
        .iter()
        .find(|(name, _)| *name == "distributed_toom")
        .map(|&(_, n)| n)
        .unwrap();
    assert_eq!(distributed_served, 0);
    assert_eq!(metrics.distributed.runs, 0);
}
