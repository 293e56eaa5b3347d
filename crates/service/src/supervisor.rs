//! Worker supervision: catch panics, verify products, retry with
//! exponential backoff + jitter, and degrade kernels through per-kernel
//! circuit breakers.
//!
//! Failure handling mirrors the paper's two fault classes: a panicking or
//! straggling kernel is a *hard/delay* fault (caught by `catch_unwind` or
//! absorbed by retry), a corrupted product is a *soft* fault (caught by
//! the product check modulo two secret primes, `ft_toom_core::residue`).
//! Either way the request is retried — first on the same kernel with
//! backoff, then down the degradation ladder parallel Toom → sequential
//! Toom → schoolbook. A kernel whose attempts fail `failure_threshold`
//! times in a row, by panic or by miscalculation, trips its circuit
//! breaker, and later requests skip it up front. A clean attempt resets
//! the count: an intermittent corrupter whose retries succeed never
//! trips, and pays a second multiply per corrupted request instead.

use crate::chaos::{ChaosConfig, FaultKind, INJECTED_PANIC_MSG};
use crate::config::options;
use crate::distributed::DistributedBackend;
use crate::error::MulError;
use crate::kernel::Kernel;
use crate::metrics::{Metrics, Stat};
use crate::plan_cache::PlanCache;
use ft_bigint::BigInt;
use ft_toom_core::residue;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

options! {
    /// Per-request retry policy: attempts and exponential backoff bounds.
    pub struct RetryPolicy {
        /// Same-kernel retries after the first attempt fails (the degradation
        /// ladder can add up to two more attempts after these are exhausted).
        pub max_retries: u32 = 3;
        /// Backoff before retry `i` is `base · 2^i` ms, capped below.
        pub backoff_base_ms: u64 = 1;
        /// Upper bound on any single backoff, ms.
        pub backoff_max_ms: u64 = 64;
    }
}

options! {
    /// Per-kernel circuit-breaker policy.
    pub struct BreakerPolicy {
        /// Consecutive failures that trip the breaker open.
        pub failure_threshold: u32 = 5, 1..;
        /// How long an open breaker diverts traffic before allowing a
        /// half-open probe, ms.
        pub open_ms: u64 = 250;
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` of `request`: exponential in the
    /// attempt with deterministic half-to-full jitter drawn from the
    /// request index (decorrelates retry storms, keeps tests exact).
    #[must_use]
    pub fn backoff(&self, request: u64, attempt: u32) -> Duration {
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.backoff_max_ms);
        if exp <= 1 {
            return Duration::from_millis(exp);
        }
        let mut rng = StdRng::seed_from_u64(
            0xb0ff ^ request.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from(attempt),
        );
        Duration::from_millis(exp / 2 + rng.random_range(0..exp / 2 + 1))
    }
}

/// Closed / open / half-open, tracked per kernel.
#[derive(Default)]
struct BreakerState {
    consecutive_failures: u32,
    /// `Some(t)`: open until `t`; past `t` the breaker is half-open and
    /// admits one probe. `None`: closed.
    open_until: Option<Instant>,
}

impl BreakerState {
    /// Would this breaker currently divert traffic away from its kernel?
    fn diverting(&self, now: Instant) -> bool {
        self.open_until.is_some_and(|t| now < t)
    }

    /// Record a failure; `true` when the breaker (re)opens.
    fn on_failure(&mut self, now: Instant, policy: &BreakerPolicy) -> bool {
        self.consecutive_failures += 1;
        let failed_probe = self.open_until.is_some();
        if failed_probe || self.consecutive_failures >= policy.failure_threshold {
            self.open_until = Some(now + Duration::from_millis(policy.open_ms));
            self.consecutive_failures = 0;
            return true;
        }
        false
    }

    /// Record a success; `true` when an open breaker closes.
    fn on_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        self.open_until.take().is_some()
    }
}

/// The per-service supervisor: owns the breakers and drives the retry /
/// verify / degrade loop around kernel execution.
pub(crate) struct Supervisor {
    retry: RetryPolicy,
    breaker: BreakerPolicy,
    verify_residues: bool,
    chaos: Option<ChaosConfig>,
    /// When present, [`Kernel::DistributedToom`] attempts run on the
    /// simulated coded machine instead of the local delegate kernel.
    distributed: Option<DistributedBackend>,
    breakers: [Mutex<BreakerState>; 5],
}

/// Elapsed µs since `start`, saturating.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl Supervisor {
    pub(crate) fn new(
        retry: RetryPolicy,
        breaker: BreakerPolicy,
        verify_residues: bool,
        chaos: Option<ChaosConfig>,
        distributed: Option<DistributedBackend>,
    ) -> Supervisor {
        Supervisor {
            retry,
            breaker,
            verify_residues,
            chaos: chaos.filter(ChaosConfig::is_active),
            distributed,
            breakers: std::array::from_fn(|_| Mutex::new(BreakerState::default())),
        }
    }

    /// The distributed backend serving [`Kernel::DistributedToom`]
    /// attempts, if `kernel` is the distributed rung and one is wired.
    fn backend_for(&self, kernel: Kernel) -> Option<&DistributedBackend> {
        match kernel {
            Kernel::DistributedToom => self.distributed.as_ref(),
            _ => None,
        }
    }

    fn breaker_state(&self, kernel: Kernel) -> std::sync::MutexGuard<'_, BreakerState> {
        self.breakers[kernel as usize]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Walk `selected` down the degradation ladder past any breaker that
    /// is currently diverting traffic.
    fn effective_kernel(&self, selected: Kernel, now: Instant) -> Kernel {
        let mut kernel = selected;
        while self.breaker_state(kernel).diverting(now) {
            match kernel.degrade() {
                Some(lower) => kernel = lower,
                None => break, // no rung below schoolbook; probe it anyway
            }
        }
        kernel
    }

    fn record_failure(&self, kernel: Kernel, metrics: &Metrics) {
        if self
            .breaker_state(kernel)
            .on_failure(Instant::now(), &self.breaker)
        {
            metrics.add(Stat::BreakerOpens, 1);
        }
    }

    /// Check a freshly computed product modulo the two secret primes
    /// (when `verify_residues`). `false` fails the attempt, and the
    /// element retries as a soft fault.
    fn verify(&self, a: &BigInt, b: &BigInt, product: &BigInt, metrics: &Metrics) -> bool {
        if !self.verify_residues {
            return true;
        }
        let start = Instant::now();
        let ok = residue::verify_product(a, b, product);
        metrics.add(Stat::ResidueChecks, 1);
        metrics.add(Stat::ResidueCostUs, elapsed_us(start));
        if !ok {
            metrics.add(Stat::ResidueFailures, 1);
        }
        ok
    }

    /// Supervised multiplication: returns the verified product and the
    /// kernel that produced it, or [`MulError::WorkerFault`] once the
    /// retry budget *and* the degradation ladder are both exhausted.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn execute(
        &self,
        a: &BigInt,
        b: &BigInt,
        request: u64,
        selected: Kernel,
        policy: &crate::config::KernelPolicy,
        plans: &PlanCache,
        metrics: &Metrics,
    ) -> Result<(BigInt, Kernel), MulError> {
        self.execute_from(a, b, request, selected, policy, plans, metrics, 0)
    }

    /// [`Self::execute`] with the attempt counter starting at
    /// `start_attempt`: the batch path hands its elements here with
    /// `start_attempt == 1` so the failed batch attempt both consumes
    /// retry budget and keeps the chaos attempt sequence monotone (a
    /// fault injected at attempt 0 in the batch is not re-drawn).
    #[allow(clippy::too_many_arguments)]
    fn execute_from(
        &self,
        a: &BigInt,
        b: &BigInt,
        request: u64,
        selected: Kernel,
        policy: &crate::config::KernelPolicy,
        plans: &PlanCache,
        metrics: &Metrics,
        start_attempt: u32,
    ) -> Result<(BigInt, Kernel), MulError> {
        let max_attempts = self.retry.max_retries.saturating_add(1);
        let mut forced: Option<Kernel> = None;
        let mut attempt: u32 = start_attempt;
        loop {
            let kernel = forced.unwrap_or_else(|| self.effective_kernel(selected, Instant::now()));
            if kernel != selected {
                metrics.add(Stat::Fallbacks, 1);
            }
            // Hard (panic) and soft (bad product) faults take the same
            // retry path; they are metered separately.
            if let Some(product) =
                self.attempt(a, b, request, attempt, kernel, policy, plans, metrics)
            {
                if self.breaker_state(kernel).on_success() {
                    metrics.add(Stat::BreakerCloses, 1);
                }
                return Ok((product, kernel));
            }
            self.record_failure(kernel, metrics);
            attempt += 1;
            if attempt >= max_attempts {
                // Retry budget spent: force one step down the ladder per
                // further failure; below schoolbook there is nothing left.
                match kernel.degrade() {
                    Some(lower) => forced = Some(lower),
                    None => {
                        metrics.add(Stat::WorkerFaults, 1);
                        return Err(MulError::WorkerFault { attempts: attempt });
                    }
                }
            }
            metrics.add(Stat::Retries, 1);
            let pause = self.retry.backoff(request, attempt.saturating_sub(1));
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }

    /// Supervised execution of one coalesced batch. The whole batch is a
    /// single attempt (one chaos draw per element at attempt 0, one
    /// `catch_unwind`, one breaker update): if the batch attempt panics,
    /// or individual products fail the product check, only the
    /// affected elements are re-executed on the individual retry path —
    /// one faulty element never fails its batch-mates.
    ///
    /// Returns per-element results in input order. `requests[i]` is the
    /// submission index of `pairs[i]` (seeds chaos and backoff).
    pub(crate) fn execute_batch(
        &self,
        pairs: &[(BigInt, BigInt)],
        requests: &[u64],
        selected: Kernel,
        policy: &crate::config::KernelPolicy,
        plans: &PlanCache,
        metrics: &Metrics,
    ) -> Vec<Result<(BigInt, Kernel), MulError>> {
        debug_assert_eq!(pairs.len(), requests.len());
        let kernel = self.effective_kernel(selected, Instant::now());
        if kernel != selected {
            metrics.add(Stat::Fallbacks, 1);
        }
        let retry_element = |i: usize| {
            metrics.add(Stat::BatchElementRetries, 1);
            metrics.add(Stat::Retries, 1);
            self.execute_from(
                &pairs[i].0,
                &pairs[i].1,
                requests[i],
                selected,
                policy,
                plans,
                metrics,
                1,
            )
        };
        match self.attempt_batch(pairs, requests, kernel, policy, plans, metrics) {
            Ok(products) => {
                // Sound elements resolve from the batch; elements whose
                // check failed inside the attempt retry alone.
                if products.iter().any(Option::is_none) {
                    self.record_failure(kernel, metrics);
                } else if self.breaker_state(kernel).on_success() {
                    metrics.add(Stat::BreakerCloses, 1);
                }
                products
                    .into_iter()
                    .enumerate()
                    .map(|(i, product)| match product {
                        Some(product) => Ok((product, kernel)),
                        None => retry_element(i),
                    })
                    .collect()
            }
            Err(()) => {
                // Hard batch fault: one breaker failure, then every
                // element falls back to the individual supervised path.
                self.record_failure(kernel, metrics);
                metrics.add(Stat::BatchFaults, 1);
                (0..pairs.len()).map(retry_element).collect()
            }
        }
    }

    /// One supervised batch attempt: draw chaos per element (attempt 0),
    /// run the whole batch under a single `catch_unwind`, and check every
    /// product. Returns one entry per element — `Some` for a verified (or
    /// unverified-by-config) product, `None` for one the check rejected —
    /// or `Err(())` when the attempt panicked.
    ///
    /// Verification is *fused*: each product is checked right after its
    /// multiplication, on the calling lane thread, while operands and
    /// product are still cache-hot. A batch big enough to overflow L1
    /// would otherwise pay a second cold pass over every element —
    /// measured as the difference between the batch path losing to and
    /// beating the per-request baseline.
    fn attempt_batch(
        &self,
        pairs: &[(BigInt, BigInt)],
        requests: &[u64],
        kernel: Kernel,
        policy: &crate::config::KernelPolicy,
        plans: &PlanCache,
        metrics: &Metrics,
    ) -> Result<Vec<Option<BigInt>>, ()> {
        let faults: Vec<Option<FaultKind>> = requests
            .iter()
            .map(|&request| {
                self.chaos
                    .as_ref()
                    .and_then(|chaos| chaos.decide(request, 0))
            })
            .collect();
        for kind in faults.iter().flatten() {
            metrics.record_injected(*kind);
        }
        panic::catch_unwind(AssertUnwindSafe(|| {
            let chaos = self.chaos.as_ref();
            if faults.iter().flatten().any(|&k| k == FaultKind::Straggle) {
                // One straggler delays the whole batch — the batch shares
                // its fate, like a slow processor in the paper's model.
                std::thread::sleep(chaos.map_or(Duration::ZERO, ChaosConfig::straggle_duration));
            }
            if let Some(i) = faults.iter().position(|&k| k == Some(FaultKind::Panic)) {
                panic!(
                    "{INJECTED_PANIC_MSG} (batch element {i}, request {})",
                    requests[i]
                );
            }
            // Corrupt (per the chaos draw) and check one product.
            let check = |i: usize, mut product: BigInt| -> Option<BigInt> {
                if let Some(chaos) = chaos {
                    if faults[i] == Some(FaultKind::Corrupt) {
                        product = chaos.corrupt(&product, requests[i], 0);
                    }
                }
                let (a, b) = &pairs[i];
                self.verify(a, b, &product, metrics).then_some(product)
            };
            let mut out = Vec::with_capacity(pairs.len());
            if let Some(backend) = self.backend_for(kernel) {
                // Every element of a promoted batch runs on the coded
                // machine. An unrecoverable element panics the whole
                // batch attempt — its batch-mates re-run on the individual
                // path, exactly like a local hard batch fault.
                for (i, (a, b)) in pairs.iter().enumerate() {
                    out.push(check(i, backend.multiply(a, b, requests[i], 0, metrics)));
                }
            } else {
                kernel.execute_each(pairs, policy, plans, |i, product| {
                    out.push(check(i, product));
                });
            }
            out
        }))
        .map_err(|_| ())
    }

    /// One supervised attempt: inject chaos, run the kernel under
    /// `catch_unwind`, then check the product. `None` when the attempt
    /// panicked or its product failed the check.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        a: &BigInt,
        b: &BigInt,
        request: u64,
        attempt: u32,
        kernel: Kernel,
        policy: &crate::config::KernelPolicy,
        plans: &PlanCache,
        metrics: &Metrics,
    ) -> Option<BigInt> {
        let fault = self
            .chaos
            .as_ref()
            .and_then(|chaos| chaos.decide(request, attempt));
        if let Some(kind) = fault {
            metrics.record_injected(kind);
        }
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let chaos = self.chaos.as_ref();
            match fault {
                Some(FaultKind::Panic) => {
                    panic!("{INJECTED_PANIC_MSG} (request {request}, attempt {attempt})")
                }
                Some(FaultKind::Straggle) => {
                    std::thread::sleep(
                        chaos.map_or(Duration::ZERO, ChaosConfig::straggle_duration),
                    );
                }
                _ => {}
            }
            let product = match self.backend_for(kernel) {
                // The coded machine runs its own (in-machine) fault
                // injection and heartbeat detection; an unrecoverable run
                // panics and lands in the `Err` arm below like any other
                // hard fault.
                Some(backend) => backend.multiply(a, b, request, attempt, metrics),
                None => kernel.execute(a, b, policy, plans),
            };
            match (fault, chaos) {
                (Some(FaultKind::Corrupt), Some(chaos)) => {
                    chaos.corrupt(&product, request, attempt)
                }
                _ => product,
            }
        }));
        let product = outcome.ok()?;
        self.verify(a, b, &product, metrics).then_some(product)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::install_quiet_panic_hook;
    use crate::config::{KernelPolicy, Value};
    use crate::json::Json;

    fn supervisor_with(chaos: Option<ChaosConfig>, verify: bool) -> Supervisor {
        Supervisor::new(
            RetryPolicy::default(),
            BreakerPolicy::default(),
            verify,
            chaos,
            None,
        )
    }

    fn small_operands() -> (BigInt, BigInt) {
        let a: BigInt = "123456789123456789123456789".parse().unwrap();
        let b: BigInt = "-98765432198765432198".parse().unwrap();
        (a, b)
    }

    #[test]
    fn clean_path_returns_verified_product() {
        let sup = supervisor_with(None, true);
        let (a, b) = small_operands();
        let metrics = Metrics::default();
        let (product, kernel) = sup
            .execute(
                &a,
                &b,
                0,
                Kernel::Schoolbook,
                &KernelPolicy::default(),
                &PlanCache::new(2),
                &metrics,
            )
            .unwrap();
        assert_eq!(product, a.mul_schoolbook(&b));
        assert_eq!(kernel, Kernel::Schoolbook);
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.retries, 0);
        assert_eq!(snap.residue_checks, 1);
        assert_eq!(snap.verification_failures, 0);
    }

    #[test]
    fn injected_corruption_is_caught_and_retried() {
        install_quiet_panic_hook();
        let chaos = ChaosConfig {
            force: vec![(5, FaultKind::Corrupt)],
            ..ChaosConfig::default()
        };
        let sup = supervisor_with(Some(chaos), true);
        let (a, b) = small_operands();
        let metrics = Metrics::default();
        let (product, _) = sup
            .execute(
                &a,
                &b,
                5,
                Kernel::Schoolbook,
                &KernelPolicy::default(),
                &PlanCache::new(2),
                &metrics,
            )
            .unwrap();
        assert_eq!(product, a.mul_schoolbook(&b));
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.verification_failures, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.injected_faults[FaultKind::Corrupt as usize].1, 1);
    }

    #[test]
    fn injected_panic_is_caught_and_retried() {
        install_quiet_panic_hook();
        let chaos = ChaosConfig {
            force: vec![(9, FaultKind::Panic)],
            ..ChaosConfig::default()
        };
        let sup = supervisor_with(Some(chaos), false);
        let (a, b) = small_operands();
        let metrics = Metrics::default();
        let (product, _) = sup
            .execute(
                &a,
                &b,
                9,
                Kernel::Schoolbook,
                &KernelPolicy::default(),
                &PlanCache::new(2),
                &metrics,
            )
            .unwrap();
        assert_eq!(product, a.mul_schoolbook(&b));
        assert_eq!(metrics.snapshot(0, (0, 0)).retries, 1);
    }

    #[test]
    fn repeated_failures_trip_the_breaker_and_degrade() {
        install_quiet_panic_hook();
        // Every first attempt of every request panics; retries are clean.
        let chaos = ChaosConfig {
            seed: 7,
            panic_per_10k: 10_000,
            max_faulty_attempts: 1,
            ..ChaosConfig::default()
        };
        let sup = Supervisor::new(
            RetryPolicy {
                max_retries: 0, // exhaust instantly → forced degradation
                backoff_base_ms: 0,
                backoff_max_ms: 0,
            },
            BreakerPolicy {
                failure_threshold: 1,
                open_ms: 10_000,
            },
            true,
            Some(chaos),
            None,
        );
        let (a, b) = small_operands();
        let metrics = Metrics::default();
        let (product, kernel) = sup
            .execute(
                &a,
                &b,
                0,
                Kernel::ParToom,
                &KernelPolicy::default(),
                &PlanCache::new(2),
                &metrics,
            )
            .unwrap();
        assert_eq!(product, a.mul_schoolbook(&b));
        // First attempt on par toom panicked, retries were exhausted, so
        // the ladder forced seq toom; its injected fault only fires on
        // attempt 0 per request... but attempt numbers continue, so the
        // second attempt is clean and succeeds on the degraded kernel.
        assert_eq!(kernel, Kernel::SeqToom);
        let snap = metrics.snapshot(0, (0, 0));
        assert!(snap.fallbacks >= 1, "fallbacks {}", snap.fallbacks);
        assert_eq!(snap.breaker_opens, 1);
        // A later request sees the open par-toom breaker and degrades
        // immediately without a failure.
        let (_, kernel2) = sup
            .execute(
                &a,
                &b,
                1,
                Kernel::ParToom,
                &KernelPolicy::default(),
                &PlanCache::new(2),
                &metrics,
            )
            .unwrap();
        assert_ne!(kernel2, Kernel::ParToom);
    }

    #[test]
    fn unrecoverable_faults_surface_as_worker_fault() {
        install_quiet_panic_hook();
        // Panic on every attempt of every kernel, forever.
        let chaos = ChaosConfig {
            panic_per_10k: 10_000,
            max_faulty_attempts: u32::MAX,
            ..ChaosConfig::default()
        };
        let sup = Supervisor::new(
            RetryPolicy {
                max_retries: 1,
                backoff_base_ms: 0,
                backoff_max_ms: 0,
            },
            BreakerPolicy::default(),
            true,
            Some(chaos),
            None,
        );
        let (a, b) = small_operands();
        let metrics = Metrics::default();
        let err = sup
            .execute(
                &a,
                &b,
                3,
                Kernel::ParToom,
                &KernelPolicy::default(),
                &PlanCache::new(2),
                &metrics,
            )
            .unwrap_err();
        // 2 budgeted attempts + forced seq toom + forced schoolbook.
        assert_eq!(err, MulError::WorkerFault { attempts: 4 });
        assert_eq!(metrics.snapshot(0, (0, 0)).worker_faults, 1);
    }

    #[test]
    fn residue_evading_corruption_is_caught_and_retried() {
        // A delta divisible by 2^128 − 1 is invisible modulo 2^64 ± 1, but
        // not modulo the check's secret primes: the attempt fails and the
        // retry serves the true product.
        install_quiet_panic_hook();
        let chaos = ChaosConfig {
            corruption: crate::chaos::CorruptionKind::ResidueEvading,
            force: vec![(4, FaultKind::Corrupt)],
            ..ChaosConfig::default()
        };
        let sup = supervisor_with(Some(chaos), true);
        let (a, b) = small_operands();
        let metrics = Metrics::default();
        let (product, _) = sup
            .execute(
                &a,
                &b,
                4,
                Kernel::Schoolbook,
                &KernelPolicy::default(),
                &PlanCache::new(2),
                &metrics,
            )
            .unwrap();
        assert_eq!(product, a.mul_schoolbook(&b));
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.verification_failures, 1);
        assert_eq!(snap.verify.residue_checks, 2);
        assert_eq!(snap.retries, 1);
    }

    #[test]
    fn repeated_corruptions_trip_the_breaker() {
        install_quiet_panic_hook();
        // Every request's first three attempts are corrupted: three
        // consecutive failed checks on seq toom trip its breaker, and the
        // fourth attempt is diverted below it.
        let chaos = ChaosConfig {
            seed: 3,
            corrupt_per_10k: 10_000,
            max_faulty_attempts: 3,
            corruption: crate::chaos::CorruptionKind::ResidueEvading,
            ..ChaosConfig::default()
        };
        let sup = Supervisor::new(
            RetryPolicy {
                max_retries: 3,
                backoff_base_ms: 0,
                backoff_max_ms: 0,
            },
            BreakerPolicy {
                failure_threshold: 3,
                open_ms: 60_000,
            },
            true,
            Some(chaos),
            None,
        );
        let (a, b) = small_operands();
        let metrics = Metrics::default();
        let (product, kernel) = sup
            .execute(
                &a,
                &b,
                0,
                Kernel::SeqToom,
                &KernelPolicy::default(),
                &PlanCache::new(2),
                &metrics,
            )
            .unwrap();
        assert_eq!(product, a.mul_schoolbook(&b));
        assert_eq!(
            kernel,
            Kernel::Schoolbook,
            "diverted by the tripped breaker"
        );
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.verification_failures, 3);
        assert_eq!(snap.breaker_opens, 1, "third failed check trips");
        assert_eq!(
            sup.effective_kernel(Kernel::SeqToom, Instant::now()),
            Kernel::Schoolbook,
            "later requests divert up front"
        );
    }

    #[test]
    fn residue_evading_batch_elements_retry_alone() {
        install_quiet_panic_hook();
        let chaos = ChaosConfig {
            corruption: crate::chaos::CorruptionKind::ResidueEvading,
            force: vec![(1, FaultKind::Corrupt), (3, FaultKind::Corrupt)],
            ..ChaosConfig::default()
        };
        let sup = supervisor_with(Some(chaos), true);
        let (pairs, requests) = batch_pairs(4);
        let metrics = Metrics::default();
        let results = sup.execute_batch(
            &pairs,
            &requests,
            Kernel::SeqToom,
            &KernelPolicy::default(),
            &PlanCache::new(2),
            &metrics,
        );
        for ((a, b), result) in pairs.iter().zip(results) {
            assert_eq!(result.unwrap().0, a.mul_schoolbook(b));
        }
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.verification_failures, 2);
        assert_eq!(snap.batch_element_retries, 2, "only the corrupt elements");
        assert_eq!(snap.worker_faults, 0);
    }

    fn batch_pairs(n: u64) -> (Vec<(BigInt, BigInt)>, Vec<u64>) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let pairs: Vec<_> = (0..n)
            .map(|i| {
                (
                    BigInt::random_signed_bits(&mut rng, 500 + 300 * i),
                    BigInt::random_signed_bits(&mut rng, 500 + 300 * i),
                )
            })
            .collect();
        (pairs, (0..n).collect())
    }

    #[test]
    fn clean_batch_resolves_every_element() {
        let sup = supervisor_with(None, true);
        let (pairs, requests) = batch_pairs(5);
        let metrics = Metrics::default();
        let results = sup.execute_batch(
            &pairs,
            &requests,
            Kernel::SeqToom,
            &KernelPolicy::default(),
            &PlanCache::new(2),
            &metrics,
        );
        for ((a, b), result) in pairs.iter().zip(results) {
            let (product, kernel) = result.unwrap();
            assert_eq!(product, a.mul_schoolbook(b));
            assert_eq!(kernel, Kernel::SeqToom);
        }
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.residue_checks, 5);
        assert_eq!(snap.retries, 0);
        assert_eq!(snap.batch_element_retries, 0);
        assert_eq!(snap.batch_faults, 0);
    }

    #[test]
    fn corrupt_batch_element_retries_alone() {
        install_quiet_panic_hook();
        let chaos = ChaosConfig {
            force: vec![(2, FaultKind::Corrupt)],
            ..ChaosConfig::default()
        };
        let sup = supervisor_with(Some(chaos), true);
        let (pairs, requests) = batch_pairs(4);
        let metrics = Metrics::default();
        let results = sup.execute_batch(
            &pairs,
            &requests,
            Kernel::SeqToom,
            &KernelPolicy::default(),
            &PlanCache::new(2),
            &metrics,
        );
        for ((a, b), result) in pairs.iter().zip(results) {
            assert_eq!(result.unwrap().0, a.mul_schoolbook(b));
        }
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.verification_failures, 1);
        assert_eq!(snap.batch_element_retries, 1, "only the corrupt element");
        assert_eq!(snap.batch_faults, 0);
        // 4 batch checks + 1 on the individual retry.
        assert_eq!(snap.residue_checks, 5);
    }

    #[test]
    fn panicking_batch_falls_back_per_element() {
        install_quiet_panic_hook();
        let chaos = ChaosConfig {
            force: vec![(1, FaultKind::Panic)],
            ..ChaosConfig::default()
        };
        let sup = supervisor_with(Some(chaos), true);
        let (pairs, requests) = batch_pairs(3);
        let metrics = Metrics::default();
        let results = sup.execute_batch(
            &pairs,
            &requests,
            Kernel::SeqToom,
            &KernelPolicy::default(),
            &PlanCache::new(2),
            &metrics,
        );
        for ((a, b), result) in pairs.iter().zip(results) {
            assert_eq!(
                result.unwrap().0,
                a.mul_schoolbook(b),
                "uninjured batch-mates"
            );
        }
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.batch_faults, 1);
        assert_eq!(snap.batch_element_retries, 3, "whole batch re-executed");
        assert_eq!(snap.worker_faults, 0);
    }

    #[test]
    fn batch_respects_open_breakers() {
        let sup = Supervisor::new(
            RetryPolicy::default(),
            BreakerPolicy {
                failure_threshold: 1,
                open_ms: 60_000,
            },
            true,
            None,
            None,
        );
        // Trip the seq-toom breaker open by hand.
        sup.record_failure(Kernel::SeqToom, &Metrics::default());
        let (pairs, requests) = batch_pairs(2);
        let metrics = Metrics::default();
        let results = sup.execute_batch(
            &pairs,
            &requests,
            Kernel::SeqToom,
            &KernelPolicy::default(),
            &PlanCache::new(2),
            &metrics,
        );
        for result in results {
            let (_, kernel) = result.unwrap();
            assert_eq!(
                kernel,
                Kernel::Schoolbook,
                "diverted below the open breaker"
            );
        }
        assert_eq!(metrics.snapshot(0, (0, 0)).fallbacks, 1, "once per batch");
    }

    #[test]
    fn breaker_state_machine_half_opens_and_closes() {
        let policy = BreakerPolicy {
            failure_threshold: 2,
            open_ms: 10,
        };
        let mut state = BreakerState::default();
        let t0 = Instant::now();
        assert!(!state.on_failure(t0, &policy));
        assert!(state.on_failure(t0, &policy), "second failure opens");
        assert!(state.diverting(t0 + Duration::from_millis(5)));
        // Past open_ms the breaker is half-open: not diverting, but a
        // failed probe reopens immediately.
        let probe_time = t0 + Duration::from_millis(15);
        assert!(!state.diverting(probe_time));
        assert!(
            state.on_failure(probe_time, &policy),
            "failed probe reopens"
        );
        assert!(state.diverting(probe_time + Duration::from_millis(5)));
        assert!(state.on_success(), "successful probe closes");
        assert!(!state.diverting(probe_time + Duration::from_millis(5)));
        assert!(!state.on_success(), "closing is edge-triggered");
    }

    #[test]
    fn backoff_grows_and_stays_bounded() {
        let retry = RetryPolicy {
            max_retries: 5,
            backoff_base_ms: 2,
            backoff_max_ms: 10,
        };
        let mut last = Duration::ZERO;
        for attempt in 0..6 {
            let pause = retry.backoff(1, attempt);
            assert!(pause >= last / 2, "jitter floor is half the bound");
            assert!(pause <= Duration::from_millis(10));
            assert_eq!(pause, retry.backoff(1, attempt), "deterministic");
            last = pause;
        }
    }

    #[test]
    fn policies_round_trip_through_json() {
        let retry = RetryPolicy {
            max_retries: 7,
            backoff_base_ms: 3,
            backoff_max_ms: 99,
        };
        let parsed = RetryPolicy::from_json(&retry.to_json_value(), "retry");
        assert_eq!(parsed.unwrap(), retry);
        let breaker = BreakerPolicy {
            failure_threshold: 2,
            open_ms: 77,
        };
        let parsed = BreakerPolicy::from_json(&breaker.to_json_value(), "breaker");
        assert_eq!(parsed.unwrap(), breaker);
        assert!(BreakerPolicy::from_json(
            &Json::parse(r#"{"failure_threshold": 0}"#).unwrap(),
            "breaker"
        )
        .is_err());
    }
}
