//! The verification policy ladder: `residue → dual-algorithm → recompute`.
//!
//! The residue spot-check (rung 1, `ft_toom_core::residue`) is `O(n)` and
//! deterministic for single-limb corruptions, but provably blind to any
//! corruption whose delta is divisible by `2^128 − 1`. Rung 2 closes that
//! blind spot ABFT-style (cf. "Fault-Tolerant Strassen-Like Matrix
//! Multiplication", PAPERS.md): a sampled subset of results is recomputed
//! with a *structurally distinct* algorithm — limb multiplication below a
//! size floor, Toom-Cook on the disjoint alternate evaluation-point set
//! ([`ft_toom_core::ToomPlan::shared_alternate`]) above it — and any
//! disagreement escalates to rung 3, a full clean recompute with the
//! serving kernel that localizes which of the two results was corrupt
//! (2-of-3 majority). Confirmed corruptions charge the per-kernel circuit
//! breaker, so repeated offenders trip it exactly like crash faults.
//!
//! [`VerifyPolicy`] is the JSON-loadable knob set; the ladder itself lives
//! in [`crate::supervisor`], metered per rung in
//! [`crate::metrics::VerifySnapshot`].

use crate::config::options;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

options! {
    /// JSON-loadable policy for the dual-algorithm verification rung.
    pub struct VerifyPolicy {
        /// Dual-check sampling rate per 10 000 requests (0 disables the rung,
        /// 10 000 checks every request). Sampling is deterministic in
        /// `(sample_seed, request index)`, like chaos injection.
        pub dual_per_10k: u32 = 250, ..=10_000;
        /// At or below this operand size (min of the two operands' bit
        /// lengths), the dual check uses plain limb multiplication; above it,
        /// Toom-Cook on the alternate point set.
        pub dual_small_max_bits: u64 = 16_384;
        /// Operands larger than this (min bit length) are never dual-checked —
        /// the size guard that keeps worst-case sampled overhead bounded. The
        /// default (32 Mbit) deliberately covers the NTT regime past
        /// `KernelPolicy::ntt_min_bits`: NTT-served products there dual-check
        /// against alternate-point Toom, a structurally distinct algorithm
        /// with no shared transform/twiddle machinery, and the measured rung-1
        /// residue cost stays negligible at those sizes (see EXPERIMENTS.md
        /// §S9) so the ladder is affordable where the new kernel serves.
        pub dual_max_bits: u64 = 1 << 25;
        /// Split parameter for the alternate-point Toom dual check.
        pub dual_toom_k: usize = 3, 2..;
        /// Charge a recompute-confirmed corruption to the serving kernel's
        /// circuit breaker, so repeated offenders trip it.
        pub breaker_on_mismatch: bool = true;
        /// Seed of the deterministic sampling stream.
        pub sample_seed: u64 = 0;
    }
    check(p) {
        p.dual_small_max_bits <= p.dual_max_bits
            => "dual_small_max_bits must not exceed dual_max_bits";
    }
}

impl VerifyPolicy {
    /// `true` when the dual rung can fire at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.dual_per_10k > 0
    }

    /// Deterministic sampling decision for a request index: does the dual
    /// rung check this result? Uses the same seeded-stream recipe as
    /// [`crate::chaos::ChaosConfig`], so a run is reproducible regardless
    /// of worker scheduling.
    #[must_use]
    pub fn samples(&self, request: u64) -> bool {
        if self.dual_per_10k == 0 {
            return false;
        }
        if self.dual_per_10k >= 10_000 {
            return true;
        }
        let mut rng =
            StdRng::seed_from_u64(self.sample_seed ^ request.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        #[allow(clippy::cast_possible_truncation)] // draw < 10_000
        let draw = rng.random_range(0..10_000) as u32;
        draw < self.dual_per_10k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Value;
    use crate::json::Json;

    #[test]
    fn sampling_is_deterministic_and_tracks_the_rate() {
        let policy = VerifyPolicy {
            dual_per_10k: 500,
            sample_seed: 42,
            ..VerifyPolicy::default()
        };
        let hits: usize = (0..10_000).filter(|&r| policy.samples(r)).count();
        // 5% nominal over 10k draws.
        assert!((300..700).contains(&hits), "hits {hits}");
        for r in 0..100 {
            assert_eq!(policy.samples(r), policy.samples(r));
        }
        // Different seeds give different sample sets.
        let other = VerifyPolicy {
            sample_seed: 43,
            ..policy.clone()
        };
        assert!((0..10_000).any(|r| policy.samples(r) != other.samples(r)));
    }

    #[test]
    fn rate_extremes() {
        let off = VerifyPolicy {
            dual_per_10k: 0,
            ..VerifyPolicy::default()
        };
        assert!(!off.is_active());
        assert!((0..1_000).all(|r| !off.samples(r)));
        let always = VerifyPolicy {
            dual_per_10k: 10_000,
            ..VerifyPolicy::default()
        };
        assert!(always.is_active());
        assert!((0..1_000).all(|r| always.samples(r)));
    }

    #[test]
    fn json_round_trip() {
        let policy = VerifyPolicy {
            dual_per_10k: 2_500,
            dual_small_max_bits: 1_000,
            dual_max_bits: 100_000,
            dual_toom_k: 4,
            breaker_on_mismatch: false,
            sample_seed: 7,
        };
        let text = policy.to_json_value().dump();
        let parsed = VerifyPolicy::from_json(&Json::parse(&text).unwrap(), "verify").unwrap();
        assert_eq!(parsed, policy);
        // Absent fields keep defaults.
        let empty = VerifyPolicy::from_json(&Json::parse("{}").unwrap(), "verify").unwrap();
        assert_eq!(empty, VerifyPolicy::default());
    }

    #[test]
    fn json_rejects_bad_documents() {
        for bad in [
            r#"{"dual_per_10k": 10001}"#,
            r#"{"dual_toom_k": 1}"#,
            r#"{"dual_small_max_bits": 10, "dual_max_bits": 5}"#,
            r#"{"breaker_on_mismatch": "yes"}"#,
            r#"{"dual_per_10k": -3}"#,
        ] {
            assert!(
                VerifyPolicy::from_json(&Json::parse(bad).unwrap(), "verify").is_err(),
                "{bad}"
            );
        }
    }
}
