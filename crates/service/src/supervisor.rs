//! Worker supervision: catch panics, verify products, retry with
//! exponential backoff + jitter, and degrade kernels through per-kernel
//! circuit breakers.
//!
//! Failure handling mirrors the paper's two fault classes: a panicking or
//! straggling kernel is a *hard/delay* fault (caught by `catch_unwind` or
//! absorbed by retry), a corrupted product is a *soft* fault (caught by
//! the verification ladder `residue → dual-algorithm → recompute`; see
//! [`crate::verify`]). Either way the request is retried — first on the
//! same kernel with backoff, then down the degradation ladder parallel
//! Toom → sequential Toom → schoolbook. A kernel that keeps failing trips
//! its circuit breaker, so later requests skip it up front instead of
//! paying the failure again; recompute-confirmed corruptions charge the
//! same breaker, so a kernel that keeps miscalculating trips it too.

use crate::chaos::{ChaosConfig, FaultKind, INJECTED_PANIC_MSG};
use crate::config::options;
use crate::distributed::DistributedBackend;
use crate::error::MulError;
use crate::kernel::Kernel;
use crate::metrics::{Metrics, Stat};
use crate::plan_cache::PlanCache;
use crate::verify::VerifyPolicy;
use ft_bigint::BigInt;
use ft_toom_core::{residue, seq, ToomPlan};
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
    verify: VerifyPolicy,
    chaos: Option<ChaosConfig>,
    /// When present, [`Kernel::DistributedToom`] attempts run on the
    /// simulated coded machine instead of the local delegate kernel.
    distributed: Option<DistributedBackend>,
    breakers: [Mutex<BreakerState>; 5],
}

enum AttemptFailure {
    Panicked,
    BadProduct,
}

/// A product that survived the verification ladder.
enum Verified {
    /// Passed every rung that ran — serve it as-is.
    Clean(BigInt),
    /// The dual-algorithm rung caught a corruption and the recompute rung
    /// confirmed it (2-of-3 vote against the served-path product); this is
    /// the recomputed, correct value.
    Recovered(BigInt),
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
        verify: VerifyPolicy,
        chaos: Option<ChaosConfig>,
        distributed: Option<DistributedBackend>,
    ) -> Supervisor {
        Supervisor {
            retry,
            breaker,
            verify_residues,
            verify,
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

    /// The structurally distinct second algorithm of the dual rung: plain
    /// limb multiplication (schoolbook/Karatsuba) below the small floor,
    /// Toom-Cook on the disjoint alternate evaluation-point set above it.
    /// Neither shares evaluation rows, interpolation matrices, or a
    /// Toom-Graph schedule with the serving kernels' classic plans, so a
    /// soft error in either pipeline makes the two products disagree.
    /// NTT-served products in particular cross-check against an algorithm
    /// with no modular transforms, twiddle tables, or CRT recombination at
    /// all — the two pipelines share nothing past limb addition.
    fn dual_multiply(&self, a: &BigInt, b: &BigInt) -> BigInt {
        let vp = &self.verify;
        if a.bit_length().min(b.bit_length()) <= vp.dual_small_max_bits {
            a.mul_auto(b)
        } else {
            let plan = ToomPlan::shared_alternate(vp.dual_toom_k);
            seq::toom_with_plan(a, b, &plan, vp.dual_small_max_bits.max(8))
        }
    }

    /// Run a freshly computed product up the verification ladder:
    ///
    /// 1. **residue** — the `O(n)` spot-check on every product (when
    ///    `verify_residues`); a mismatch fails the attempt and the element
    ///    retries as a soft fault.
    /// 2. **dual-algorithm** — for sampled requests within the size guard,
    ///    recompute with [`Self::dual_multiply`] and compare.
    /// 3. **recompute** — a dual disagreement escalates to a full clean
    ///    re-execution with the serving kernel, which localizes the
    ///    corrupt result by 2-of-3 majority. A confirmed corruption is
    ///    served from the recompute ([`Verified::Recovered`]) and charges
    ///    the kernel's circuit breaker (when `breaker_on_mismatch`), so
    ///    repeated offenders trip it; if no two results agree the attempt
    ///    fails and the element retries.
    ///
    /// Chaos only corrupts the served-path product (upstream of this
    /// call), so rungs 2–3 compute on clean ground truth.
    #[allow(clippy::too_many_arguments)]
    fn verify_ladder(
        &self,
        a: &BigInt,
        b: &BigInt,
        product: BigInt,
        request: u64,
        kernel: Kernel,
        policy: &crate::config::KernelPolicy,
        plans: &PlanCache,
        metrics: &Metrics,
    ) -> Result<Verified, ()> {
        if self.verify_residues {
            let start = Instant::now();
            let ok = residue::verify_product(a, b, &product);
            metrics.add(Stat::ResidueChecks, 1);
            metrics.add(Stat::ResidueCostUs, elapsed_us(start));
            if !ok {
                metrics.add(Stat::ResidueFailures, 1);
                return Err(());
            }
        }
        let vp = &self.verify;
        if !vp.is_active()
            || a.bit_length().min(b.bit_length()) > vp.dual_max_bits
            || !vp.samples(request)
        {
            return Ok(Verified::Clean(product));
        }
        let start = Instant::now();
        let dual = self.dual_multiply(a, b);
        let mismatch = dual != product;
        metrics.add(Stat::DualChecks, 1);
        metrics.add(Stat::DualCostUs, elapsed_us(start));
        if !mismatch {
            return Ok(Verified::Clean(product));
        }
        metrics.add(Stat::DualFailures, 1);
        let start = Instant::now();
        // Full clean re-execution — always on the local kernel ladder
        // (even for distributed attempts), with no chaos draw: the
        // recompute must be ground truth to arbitrate the disagreement.
        let recompute = kernel.execute(a, b, policy, plans);
        let original_corrupt = recompute != product;
        metrics.add(Stat::RecomputeChecks, 1);
        metrics.add(Stat::RecomputeCostUs, elapsed_us(start));
        if !original_corrupt {
            // The dual computation itself was the corrupt one (2-of-3
            // majority for the served product) — serve the original.
            return Ok(Verified::Clean(product));
        }
        metrics.add(Stat::RecomputeFailures, 1);
        if recompute == dual {
            // Confirmed: the served-path product was corrupt. Serve the
            // agreed value and charge the kernel like any other failure.
            if vp.breaker_on_mismatch {
                self.record_failure(kernel, metrics);
            }
            return Ok(Verified::Recovered(recompute));
        }
        // All three disagree — no majority; fail the attempt and retry.
        Err(())
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
            match self.attempt(a, b, request, attempt, kernel, policy, plans, metrics) {
                Ok(Verified::Clean(product)) => {
                    if self.breaker_state(kernel).on_success() {
                        metrics.add(Stat::BreakerCloses, 1);
                    }
                    return Ok((product, kernel));
                }
                Ok(Verified::Recovered(product)) => {
                    // The ladder already charged the kernel's breaker for
                    // the confirmed corruption; deliberately skip the
                    // success reset so repeated offenders accumulate
                    // failures and trip it.
                    return Ok((product, kernel));
                }
                // Hard (panic) and soft (bad product) faults take the
                // same retry path; they are metered separately.
                Err(AttemptFailure::Panicked | AttemptFailure::BadProduct) => {}
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
    /// or individual products fail their residue spot-check, only the
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
            Ok((products, recovered)) => {
                // Sound elements resolve from the batch; elements whose
                // residue check failed inside the attempt retry alone. A
                // batch that needed a ladder recovery keeps its breaker
                // charge (no success reset), like the individual path.
                if products.iter().any(Option::is_none) {
                    self.record_failure(kernel, metrics);
                } else if !recovered && self.breaker_state(kernel).on_success() {
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
    /// run the whole batch under a single `catch_unwind`, and run every
    /// product up the verification ladder. Returns one entry per element —
    /// `Some` for a verified (or unverified-by-config) product, `None` for
    /// one the ladder rejected — plus a flag for whether any element was
    /// served from a ladder recovery; or `Err(())` when the attempt
    /// panicked.
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
    ) -> Result<(Vec<Option<BigInt>>, bool), ()> {
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
        let recovered = std::sync::atomic::AtomicBool::new(false);
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
            // Corrupt (per the chaos draw) and run one product up the
            // verification ladder.
            let check = |i: usize, mut product: BigInt| -> Option<BigInt> {
                if let Some(chaos) = chaos {
                    if faults[i] == Some(FaultKind::Corrupt) {
                        product = chaos.corrupt(&product, requests[i], 0);
                    }
                }
                match self.verify_ladder(
                    &pairs[i].0,
                    &pairs[i].1,
                    product,
                    requests[i],
                    kernel,
                    policy,
                    plans,
                    metrics,
                ) {
                    Ok(Verified::Clean(product)) => Some(product),
                    Ok(Verified::Recovered(product)) => {
                        recovered.store(true, std::sync::atomic::Ordering::Relaxed);
                        Some(product)
                    }
                    Err(()) => None,
                }
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
        .map(|products| (products, recovered.into_inner()))
        .map_err(|_| ())
    }

    /// One supervised attempt: inject chaos, run the kernel under
    /// `catch_unwind`, then run the product up the verification ladder.
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
    ) -> Result<Verified, AttemptFailure> {
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
        match outcome {
            Ok(product) => self
                .verify_ladder(a, b, product, request, kernel, policy, plans, metrics)
                .map_err(|()| AttemptFailure::BadProduct),
            Err(_) => Err(AttemptFailure::Panicked),
        }
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
            VerifyPolicy::default(),
            chaos,
            None,
        )
    }

    /// A supervisor whose dual rung checks every request.
    fn supervisor_with_dual(chaos: Option<ChaosConfig>, verify_residues: bool) -> Supervisor {
        Supervisor::new(
            RetryPolicy::default(),
            BreakerPolicy::default(),
            verify_residues,
            VerifyPolicy {
                dual_per_10k: 10_000,
                ..VerifyPolicy::default()
            },
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
            VerifyPolicy::default(),
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
            VerifyPolicy::default(),
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
    fn residue_evading_corruption_slips_past_residue_only_supervision() {
        // The blind spot, end to end: with the dual rung off, a crafted
        // residue-preserving corruption is served as if it were correct.
        install_quiet_panic_hook();
        let chaos = ChaosConfig {
            corruption: crate::chaos::CorruptionKind::ResidueEvading,
            force: vec![(4, FaultKind::Corrupt)],
            ..ChaosConfig::default()
        };
        let sup = Supervisor::new(
            RetryPolicy::default(),
            BreakerPolicy::default(),
            true,
            VerifyPolicy {
                dual_per_10k: 0,
                ..VerifyPolicy::default()
            },
            Some(chaos),
            None,
        );
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
        assert_ne!(product, a.mul_schoolbook(&b), "the corruption was served");
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.verification_failures, 0, "residue check saw nothing");
        assert_eq!(snap.verify.residue_checks, 1);
        assert_eq!(snap.verify.dual_checks, 0);
    }

    #[test]
    fn dual_rung_catches_and_recovers_residue_evading_corruption() {
        install_quiet_panic_hook();
        let chaos = ChaosConfig {
            corruption: crate::chaos::CorruptionKind::ResidueEvading,
            force: vec![(4, FaultKind::Corrupt)],
            ..ChaosConfig::default()
        };
        let sup = supervisor_with_dual(Some(chaos), true);
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
        assert_eq!(product, a.mul_schoolbook(&b), "recovered the true product");
        let snap = metrics.snapshot(0, (0, 0));
        // The corruption passed the residue rung, the dual rung disagreed,
        // and the recompute confirmed the served path was corrupt — all
        // without consuming a retry (the element was served in-place).
        assert_eq!(snap.retries, 0);
        assert_eq!(snap.verify.residue_failures, 0);
        assert_eq!(snap.verify.dual_checks, 1);
        assert_eq!(snap.verify.dual_failures, 1);
        assert_eq!(snap.verify.escalations, 1);
        assert_eq!(snap.verify.recompute_checks, 1);
        assert_eq!(snap.verify.recompute_failures, 1);
        assert_eq!(snap.verification_failures, 1, "counted as a caught fault");
    }

    #[test]
    fn dual_rung_uses_the_alternate_toom_plan_above_the_small_floor() {
        install_quiet_panic_hook();
        let chaos = ChaosConfig {
            corruption: crate::chaos::CorruptionKind::ResidueEvading,
            force: vec![(2, FaultKind::Corrupt)],
            ..ChaosConfig::default()
        };
        let sup = Supervisor::new(
            RetryPolicy::default(),
            BreakerPolicy::default(),
            true,
            VerifyPolicy {
                dual_per_10k: 10_000,
                dual_small_max_bits: 256, // force the alternate-plan branch
                ..VerifyPolicy::default()
            },
            Some(chaos),
            None,
        );
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = BigInt::random_signed_bits(&mut rng, 20_000);
        let b = BigInt::random_signed_bits(&mut rng, 20_000);
        let metrics = Metrics::default();
        let (product, _) = sup
            .execute(
                &a,
                &b,
                2,
                Kernel::SeqToom,
                &KernelPolicy::default(),
                &PlanCache::new(2),
                &metrics,
            )
            .unwrap();
        assert_eq!(product, a.mul_schoolbook(&b));
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.verify.dual_failures, 1);
        assert_eq!(snap.verify.recompute_failures, 1);
    }

    #[test]
    fn dual_size_guard_skips_oversized_operands() {
        let sup = Supervisor::new(
            RetryPolicy::default(),
            BreakerPolicy::default(),
            true,
            VerifyPolicy {
                dual_per_10k: 10_000,
                dual_small_max_bits: 16,
                dual_max_bits: 16, // both operands exceed this → rung skipped
                ..VerifyPolicy::default()
            },
            None,
            None,
        );
        let (a, b) = small_operands();
        let metrics = Metrics::default();
        sup.execute(
            &a,
            &b,
            0,
            Kernel::Schoolbook,
            &KernelPolicy::default(),
            &PlanCache::new(2),
            &metrics,
        )
        .unwrap();
        assert_eq!(metrics.snapshot(0, (0, 0)).verify.dual_checks, 0);
    }

    #[test]
    fn repeated_confirmed_corruptions_trip_the_breaker() {
        install_quiet_panic_hook();
        // Every request is corrupted residue-evadingly; dual checks every
        // one; each confirmed corruption charges the breaker.
        let chaos = ChaosConfig {
            seed: 3,
            corrupt_per_10k: 10_000,
            corruption: crate::chaos::CorruptionKind::ResidueEvading,
            ..ChaosConfig::default()
        };
        let sup = Supervisor::new(
            RetryPolicy::default(),
            BreakerPolicy {
                failure_threshold: 3,
                open_ms: 60_000,
            },
            true,
            VerifyPolicy {
                dual_per_10k: 10_000,
                ..VerifyPolicy::default()
            },
            Some(chaos),
            None,
        );
        let (a, b) = small_operands();
        let metrics = Metrics::default();
        for request in 0..3 {
            let (product, kernel) = sup
                .execute(
                    &a,
                    &b,
                    request,
                    Kernel::SeqToom,
                    &KernelPolicy::default(),
                    &PlanCache::new(2),
                    &metrics,
                )
                .unwrap();
            assert_eq!(product, a.mul_schoolbook(&b), "request {request}");
            assert_eq!(kernel, Kernel::SeqToom);
        }
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.verify.recompute_failures, 3);
        assert_eq!(snap.breaker_opens, 1, "third confirmed corruption trips");
        // The next request diverts below the open seq-toom breaker.
        let (_, kernel) = sup
            .execute(
                &a,
                &b,
                100,
                Kernel::SeqToom,
                &KernelPolicy::default(),
                &PlanCache::new(2),
                &metrics,
            )
            .unwrap();
        assert_eq!(
            kernel,
            Kernel::Schoolbook,
            "diverted by the tripped breaker"
        );
    }

    #[test]
    fn batch_dual_rung_recovers_residue_evading_elements() {
        install_quiet_panic_hook();
        let chaos = ChaosConfig {
            corruption: crate::chaos::CorruptionKind::ResidueEvading,
            force: vec![(1, FaultKind::Corrupt), (3, FaultKind::Corrupt)],
            ..ChaosConfig::default()
        };
        let sup = supervisor_with_dual(Some(chaos), true);
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
        assert_eq!(snap.verify.dual_checks, 4, "every element dual-checked");
        assert_eq!(snap.verify.dual_failures, 2);
        assert_eq!(snap.verify.recompute_failures, 2);
        assert_eq!(snap.batch_element_retries, 0, "recovered in place");
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
            VerifyPolicy::default(),
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
