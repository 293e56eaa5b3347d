//! The distributed backend: serve promoted requests on the simulated
//! coded machine.
//!
//! A [`DistributedBackend`] wraps `ft-core`'s polynomial-coded parallel
//! Toom-Cook ([`run_poly_ft_with`]): each multiplication spins up a
//! simulated machine of `(2k−1+f)·P/(2k−1)` ranks whose heartbeat
//! detector — not a fault oracle — finds injected failures, and whose
//! on-the-fly interpolation recovers the product from any `2k−1`
//! surviving columns. The backend owns the *injection* side of chaos:
//! a deterministic per-request fault stream plants up to
//! `hard_faults_per_run` hard faults (distinct columns, `poly-halt`
//! fault point) plus `delay_ranks` delay faults on early attempts, so a
//! supervised retry clears them.
//!
//! When the planned faults exceed the code's redundancy `f`, the run is
//! *unrecoverable*: the backend panics with [`UNRECOVERABLE_MSG`] before
//! touching the machine, the supervisor's `catch_unwind` converts that
//! into an ordinary attempt failure, and the request degrades down the
//! local kernel ladder (parallel Toom → …). The panic is deliberately
//! distinct from the chaos layer's injected-panic marker so it never
//! triggers panic escalation.

use crate::config::DistributedConfig;
use crate::metrics::Metrics;
use ft_bigint::BigInt;
use ft_machine::{DetectorConfig, FaultPlan};
use ft_toom_core::ft::poly::{run_poly_ft_with, PolyFtConfig, PolyRunOptions};
use ft_toom_core::parallel::ParallelConfig;

/// Panic payload of an unrecoverable distributed run (planned column
/// faults exceed the redundancy `f`). Silenced by the quiet panic hook;
/// the supervisor treats it like any other hard fault.
pub const UNRECOVERABLE_MSG: &str = "distributed-run unrecoverable: column faults exceed f";

/// The fault-point label every injected hard fault targets (any victim
/// halts its whole top-level column — see `ft-core`'s `poly` module).
const HALT_LABEL: &str = "poly-halt";

/// The recursion-phase fault point, live only under
/// `recursion_detect`: victims die *after* the first detection round and
/// are caught by the second.
const REC_HALT_LABEL: &str = "poly-rec-halt";

/// Serves multiplications on the simulated coded machine.
#[derive(Debug, Clone)]
pub struct DistributedBackend {
    cfg: DistributedConfig,
    poly: PolyFtConfig,
}

impl DistributedBackend {
    /// Build a backend from the service's distributed config.
    #[must_use]
    pub fn new(cfg: &DistributedConfig) -> DistributedBackend {
        let poly = PolyFtConfig {
            base: ParallelConfig::new(cfg.k, cfg.bfs_steps),
            f: cfg.f,
        };
        DistributedBackend {
            cfg: cfg.clone(),
            poly,
        }
    }

    /// Total simulated ranks a run spins up (data + redundant columns).
    #[must_use]
    pub fn processors(&self) -> usize {
        self.poly.processors()
    }

    /// Whether attempt `attempt` of any request still receives injection.
    fn attempt_is_faulty(&self, attempt: u32) -> bool {
        attempt < self.cfg.faulty_attempts
    }

    /// The deterministic fault plan and delay set for one attempt.
    /// Victims land in *distinct* columns starting from a per-request
    /// column, so `hard_faults_per_run > f` is unrecoverable by
    /// construction and `hard_faults_per_run <= f` always survives.
    fn injection_for(&self, request: u64, attempt: u32) -> (FaultPlan, Vec<(usize, u64)>) {
        if !self.attempt_is_faulty(attempt) {
            return (FaultPlan::none(), Vec::new());
        }
        let mix = splitmix64(self.cfg.fault_seed ^ request.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let cols = self.poly.base.q() + self.poly.f;
        let hard = (self.cfg.hard_faults_per_run as usize).min(cols);
        let start = (mix % cols as u64) as usize;
        let mut plan = FaultPlan::none();
        for i in 0..hard {
            let col = (start + i) % cols;
            let members = self.poly.column_members(col);
            let pick = splitmix64(mix ^ (i as u64 + 1)) as usize % members.len();
            // Two-round mode spreads the injected deaths across both
            // fault points so each wave's detection round finds work.
            let label = if self.cfg.recursion_detect && i % 2 == 1 {
                REC_HALT_LABEL
            } else {
                HALT_LABEL
            };
            plan = plan.kill(members[pick], label);
        }
        let ranks = self.poly.processors();
        let delays = (0..self.cfg.delay_ranks as usize)
            .map(|i| {
                let rank = splitmix64(mix ^ (0x5de1a ^ i as u64)) as usize % ranks;
                (rank, self.cfg.delay_factor)
            })
            .collect();
        (plan, delays)
    }

    /// Distinct columns the plan will halt — the injection-side
    /// recoverability check (mirrors `PolyFtConfig::dead_and_chosen`).
    fn planned_columns(&self, plan: &FaultPlan) -> usize {
        let mut cols: Vec<usize> = plan
            .specs()
            .iter()
            .map(|s| self.poly.column_of(s.rank))
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols.len()
    }

    /// Multiply `a·b` on the coded machine, recording distributed
    /// robustness metrics from the run report.
    ///
    /// # Panics
    /// With [`UNRECOVERABLE_MSG`] when this attempt's planned faults halt
    /// more than `f` columns — the supervisor catches the unwind and
    /// walks the degradation ladder.
    #[must_use]
    pub(crate) fn multiply(
        &self,
        a: &BigInt,
        b: &BigInt,
        request: u64,
        attempt: u32,
        metrics: &Metrics,
    ) -> BigInt {
        let (plan, slowdowns) = self.injection_for(request, attempt);
        if self.planned_columns(&plan) > self.poly.f {
            metrics.record_distributed_unrecoverable();
            panic!("{UNRECOVERABLE_MSG}");
        }
        let opts = PolyRunOptions {
            excluded: Vec::new(),
            slowdowns,
            random: None,
            detector: DetectorConfig {
                deadline_budget: self.cfg.deadline_budget,
                straggler_factor: self.cfg.straggler_factor,
                heartbeat_period: self.cfg.heartbeat_period.max(1),
            },
            recursion_detect: self.cfg.recursion_detect,
        };
        let outcome = run_poly_ft_with(a, b, &self.poly, plan, &opts);
        let deaths = u64::from(outcome.report.total_deaths());
        let detect = outcome.report.detect_totals();
        metrics.record_distributed_run(
            deaths,
            detect.rounds,
            detect.false_positives,
            detect.stragglers_flagged,
            detect.max_missed,
        );
        outcome.product
    }
}

/// SplitMix64 — the same cheap deterministic mixer the machine layer's
/// random fault stream uses.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn backend(hard: u32) -> DistributedBackend {
        DistributedBackend::new(&DistributedConfig {
            enabled: true,
            hard_faults_per_run: hard,
            delay_ranks: 1,
            ..DistributedConfig::default()
        })
    }

    #[test]
    fn survivable_faults_yield_exact_products() {
        // Default config: k=2, m=1, f=1 → 4 ranks, one hard fault
        // recoverable. The detector (not the plan) drives recovery.
        let be = backend(1);
        assert_eq!(be.processors(), 4);
        let metrics = Metrics::default();
        let mut rng = StdRng::seed_from_u64(11);
        for request in 0..4u64 {
            let a = BigInt::random_signed_bits(&mut rng, 3_000);
            let b = BigInt::random_signed_bits(&mut rng, 3_000);
            let product = be.multiply(&a, &b, request, 0, &metrics);
            assert_eq!(product, a.mul_schoolbook(&b));
        }
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.distributed.runs, 4);
        assert_eq!(snap.distributed.recoveries, 4);
        assert_eq!(snap.distributed.unrecoverable, 0);
        assert_eq!(snap.distributed.false_positives, 0);
        assert!(snap.distributed.detect_rounds >= 4);
        assert!(snap.distributed.max_detect_latency_ticks > 0);
    }

    #[test]
    fn two_round_mode_recovers_deaths_in_both_waves() {
        // f=2 with two injected hard faults: injection alternates the
        // fault points, so one column dies before round one and one
        // during the recursion — the second detection round (plus
        // ack_recovery re-integration) recovers both.
        let be = DistributedBackend::new(&DistributedConfig {
            enabled: true,
            f: 2,
            hard_faults_per_run: 2,
            recursion_detect: true,
            ..DistributedConfig::default()
        });
        let metrics = Metrics::default();
        let mut rng = StdRng::seed_from_u64(14);
        for request in 0..3u64 {
            let a = BigInt::random_signed_bits(&mut rng, 3_000);
            let b = BigInt::random_signed_bits(&mut rng, 3_000);
            let (plan, _) = be.injection_for(request, 0);
            let labels: Vec<&str> = plan.specs().iter().map(|s| s.label.as_str()).collect();
            assert!(labels.contains(&HALT_LABEL), "request {request}");
            assert!(labels.contains(&REC_HALT_LABEL), "request {request}");
            let product = be.multiply(&a, &b, request, 0, &metrics);
            assert_eq!(product, a.mul_schoolbook(&b), "request {request}");
        }
        let snap = metrics.snapshot(0, (0, 0));
        assert_eq!(snap.distributed.runs, 3);
        assert_eq!(snap.distributed.recoveries, 3);
        assert_eq!(snap.distributed.false_positives, 0);
    }

    #[test]
    fn retry_attempts_clear_injected_faults() {
        // faulty_attempts defaults to 1: attempt 1 runs clean.
        let be = backend(3);
        let metrics = Metrics::default();
        let mut rng = StdRng::seed_from_u64(12);
        let a = BigInt::random_signed_bits(&mut rng, 2_500);
        let b = BigInt::random_signed_bits(&mut rng, 2_500);
        let product = be.multiply(&a, &b, 9, 1, &metrics);
        assert_eq!(product, a.mul_schoolbook(&b));
        assert_eq!(metrics.snapshot(0, (0, 0)).distributed.recoveries, 0);
    }

    #[test]
    #[should_panic(expected = "unrecoverable")]
    fn too_many_planned_faults_panic_before_the_machine_starts() {
        let be = backend(2); // 2 distinct columns > f = 1
        let metrics = Metrics::default();
        let mut rng = StdRng::seed_from_u64(13);
        let a = BigInt::random_signed_bits(&mut rng, 2_000);
        let b = BigInt::random_signed_bits(&mut rng, 2_000);
        let _ = be.multiply(&a, &b, 0, 0, &metrics);
    }

    #[test]
    fn injection_is_deterministic_per_request_and_attempt() {
        let be = backend(1);
        let (p1, d1) = be.injection_for(7, 0);
        let (p2, d2) = be.injection_for(7, 0);
        assert_eq!(p1.specs().len(), 1);
        assert_eq!(p1.specs()[0].rank, p2.specs()[0].rank);
        assert_eq!(d1, d2);
        // Past the faulty-attempt budget the plan is empty.
        let (clean, delays) = be.injection_for(7, 1);
        assert!(clean.specs().is_empty());
        assert!(delays.is_empty());
    }
}
