//! Deterministic fault injection for chaos-testing the service.
//!
//! The simulator can only fault processors deep inside `ft-machine`
//! (`FaultPlan`); this module injects the same fault taxonomy at the
//! serving layer, where the supervisor (see [`crate::supervisor`]) must
//! detect and survive it end to end:
//!
//! | [`FaultKind`] | Paper fault model | Injection |
//! |---|---|---|
//! | `Panic` | hard fault (fail-stop processor) | the kernel panics mid-request |
//! | `Straggle` | delay fault (slow processor) | the kernel sleeps before computing |
//! | `Corrupt` | soft fault (silent miscalculation) | the product is corrupted ([`CorruptionKind`]) |
//!
//! Faults are drawn from `(seed, request index, attempt)` only, so a chaos
//! run is exactly reproducible for a given seed regardless of thread
//! scheduling. Config is JSON-loadable like `KernelPolicy`.

use crate::config::{invalid, join, named, options, required, section, ConfigError, Object, Value};
use crate::json::{obj, Json};
use ft_bigint::{BigInt, Sign};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Duration;

/// Panic message carried by injected hard faults; the supervisor and the
/// quiet panic hook recognise injected panics by this marker.
pub const INJECTED_PANIC_MSG: &str = "chaos-injected worker panic";

/// The injectable fault kinds (see the module docs for the mapping to
/// the paper's hard/delay/soft fault model). The first three target one
/// request attempt inside a lane; the shard kinds target a whole shard
/// of a [`crate::Router`] and are drawn by its monitor via
/// [`ChaosConfig::decide_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Hard fault: the kernel panics mid-request.
    Panic,
    /// Delay fault: the kernel sleeps before computing (straggler).
    Straggle,
    /// Soft fault: the product is silently corrupted ([`CorruptionKind`]).
    Corrupt,
    /// Shard-level fail-stop: the whole shard dies — heartbeats stop and
    /// queued work resolves as `ServiceStopped` for the router to fail
    /// over. Maps to the paper's detected fail-stop processor, one level
    /// up the topology.
    ShardKill,
    /// Shard-level stall: heartbeats pause for `stall_rounds` monitor
    /// rounds while the shard keeps serving — the detector declares it
    /// dead, then re-admits it when beats resume (rejoin path).
    ShardStall,
}

impl FaultKind {
    /// All kinds, in metrics order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Panic,
        FaultKind::Straggle,
        FaultKind::Corrupt,
        FaultKind::ShardKill,
        FaultKind::ShardStall,
    ];

    /// Stable name used as the metrics / JSON key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Straggle => "straggle",
            FaultKind::Corrupt => "corrupt",
            FaultKind::ShardKill => "shard_kill",
            FaultKind::ShardStall => "shard_stall",
        }
    }

    /// `true` for the kinds that target a whole shard rather than one
    /// request attempt.
    #[must_use]
    pub fn is_shard_fault(self) -> bool {
        matches!(self, FaultKind::ShardKill | FaultKind::ShardStall)
    }
}

/// How an injected soft fault corrupts a product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CorruptionKind {
    /// Flip one pseudo-random bit of one limb. The product check always
    /// catches it: the delta `c · 2^{64i}` with `0 < |c| < 2^64` is
    /// divisible by at most one of its two 61-bit primes.
    #[default]
    SingleLimb,
    /// Add `c · 2^{64i} · (2^128 − 1)` to the product: a multi-limb
    /// corruption that preserves both residues mod `2^64 ± 1` exactly, so
    /// a check keyed to those public moduli cannot see it. The product
    /// check always catches it too: no prime factor of `2^128 − 1` has 61
    /// bits, and `|c| < 2^64` is divisible by at most one of its primes.
    ResidueEvading,
}

impl CorruptionKind {
    /// Both kinds, in JSON/metrics order.
    pub const ALL: [CorruptionKind; 2] =
        [CorruptionKind::SingleLimb, CorruptionKind::ResidueEvading];

    /// Stable name used as the JSON value (`chaos.corruption`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CorruptionKind::SingleLimb => "single_limb",
            CorruptionKind::ResidueEvading => "residue_evading",
        }
    }

    /// Inverse of [`CorruptionKind::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<CorruptionKind> {
        CorruptionKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Per-10k rates are probabilities, so none may exceed this.
const PER_10K: u32 = 10_000;

options! {
    /// A JSON-loadable chaos plan. Rates are per 10 000 requests; a request
    /// draws at most one fault per attempt.
    pub struct ChaosConfig {
        /// Seed of the deterministic fault stream.
        pub seed: u64 = 0;
        /// Hard-fault (panic) rate per 10 000 requests.
        pub panic_per_10k: u32 = 0, ..=PER_10K;
        /// Delay-fault (straggler) rate per 10 000 requests.
        pub straggle_per_10k: u32 = 0, ..=PER_10K;
        /// Soft-fault (corruption) rate per 10 000 requests.
        pub corrupt_per_10k: u32 = 0, ..=PER_10K;
        /// Shape of injected corruptions: single-limb bit flips, or multi-limb
        /// deltas divisible by `2^128 − 1`. The product check catches both.
        pub corruption: CorruptionKind = CorruptionKind::SingleLimb;
        /// How long an injected straggler sleeps, in milliseconds.
        pub straggle_ms: u64 = 2;
        /// Probabilistic faults fire only on attempts below this bound, so a
        /// supervised retry deterministically clears an injected fault.
        pub max_faulty_attempts: u32 = 1;
        /// Forced faults `(request index, kind)`, fired on the first attempt
        /// regardless of the probabilistic rates. In JSON each is
        /// `{"index": N, "kind": "panic|straggle|corrupt"}`.
        pub force: Vec<(u64, FaultKind)> = Vec::new();
        /// Shard-kill rate per 10 000 (shard, monitor round) draws.
        pub shard_kill_per_10k: u32 = 0, ..=PER_10K;
        /// Shard-stall rate per 10 000 (shard, monitor round) draws.
        pub shard_stall_per_10k: u32 = 0, ..=PER_10K;
        /// How many monitor rounds a stalled shard withholds heartbeats
        /// before beats resume and the shard rejoins.
        pub stall_rounds: u64 = 4;
        /// Forced shard faults `(shard index, monitor round, kind)`, fired at
        /// exactly that round regardless of the probabilistic rates. Kinds
        /// must be shard-level: in JSON each is
        /// `{"shard": N, "round": R, "kind": "shard_kill|shard_stall"}`.
        pub force_shard: Vec<(usize, u64, FaultKind)> = Vec::new();
    }
    check(c) {
        c.panic_per_10k + c.straggle_per_10k + c.corrupt_per_10k <= PER_10K
            => "panic_per_10k + straggle_per_10k + corrupt_per_10k must be <= 10000";
        c.shard_kill_per_10k + c.shard_stall_per_10k <= PER_10K
            => "shard_kill_per_10k + shard_stall_per_10k must be <= 10000";
    }
}

impl ChaosConfig {
    /// `true` when this plan can inject at least one fault.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.panic_per_10k + self.straggle_per_10k + self.corrupt_per_10k > 0
            || !self.force.is_empty()
    }

    /// The deterministic per-(request, attempt) random stream.
    fn rng_for(&self, request: u64, attempt: u32) -> StdRng {
        StdRng::seed_from_u64(
            self.seed ^ request.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (u64::from(attempt) << 56),
        )
    }

    /// The fault (if any) to inject on the given attempt of a request.
    #[must_use]
    pub fn decide(&self, request: u64, attempt: u32) -> Option<FaultKind> {
        if attempt == 0 {
            if let Some(&(_, kind)) = self.force.iter().find(|&&(i, _)| i == request) {
                return Some(kind);
            }
        }
        if attempt >= self.max_faulty_attempts {
            return None;
        }
        let (p, s, c) = (
            self.panic_per_10k,
            self.straggle_per_10k,
            self.corrupt_per_10k,
        );
        if p + s + c == 0 {
            return None;
        }
        #[allow(clippy::cast_possible_truncation)] // draw < 10_000
        let draw = self.rng_for(request, attempt).random_range(0..10_000) as u32;
        if draw < p {
            Some(FaultKind::Panic)
        } else if draw < p + s {
            Some(FaultKind::Straggle)
        } else if draw < p + s + c {
            Some(FaultKind::Corrupt)
        } else {
            None
        }
    }

    /// `true` when this plan can fault whole shards (router-level chaos).
    #[must_use]
    pub fn shard_chaos_active(&self) -> bool {
        self.shard_kill_per_10k + self.shard_stall_per_10k > 0 || !self.force_shard.is_empty()
    }

    /// The shard fault (if any) the router's monitor should apply to
    /// `shard` at monitor round `round`. Deterministic over
    /// `(seed, shard, round)` only, so a chaos run kills the same shards
    /// at the same rounds regardless of request traffic.
    #[must_use]
    pub fn decide_shard(&self, shard: usize, round: u64) -> Option<FaultKind> {
        if let Some(&(_, _, kind)) = self
            .force_shard
            .iter()
            .find(|&&(s, r, _)| s == shard && r == round)
        {
            return Some(kind);
        }
        let (k, s) = (self.shard_kill_per_10k, self.shard_stall_per_10k);
        if k + s == 0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ (shard as u64).wrapping_mul(0xd605_bbb5_8c8a_bc03)
                ^ round.wrapping_mul(0x2545_f491_4f6c_dd1d),
        );
        #[allow(clippy::cast_possible_truncation)] // draw < 10_000
        let draw = rng.random_range(0..10_000) as u32;
        if draw < k {
            Some(FaultKind::ShardKill)
        } else if draw < k + s {
            Some(FaultKind::ShardStall)
        } else {
            None
        }
    }

    /// How long an injected straggler sleeps.
    #[must_use]
    pub fn straggle_duration(&self) -> Duration {
        Duration::from_millis(self.straggle_ms)
    }

    /// Soft fault: return a corrupted `product`. The corruption is drawn
    /// from the same deterministic stream as [`Self::decide`]; its shape is
    /// set by [`ChaosConfig::corruption`].
    #[must_use]
    pub fn corrupt(&self, product: &BigInt, request: u64, attempt: u32) -> BigInt {
        let mut rng = self.rng_for(request, attempt.wrapping_add(0x5bd1));
        match self.corruption {
            CorruptionKind::SingleLimb => {
                // One pseudo-random bit of one limb (a corrupted zero
                // becomes one).
                let mut limbs = product.limbs().to_vec();
                if limbs.is_empty() {
                    return BigInt::one();
                }
                let limb = rng.random_range(0..limbs.len() as u64) as usize;
                let bit = rng.random_range(0..64);
                limbs[limb] ^= 1u64 << bit;
                BigInt::from_sign_limbs(product.sign(), limbs)
            }
            CorruptionKind::ResidueEvading => {
                // Add c · 2^{64i} · (2^128 − 1) = (c << 64(i+2)) − (c << 64i)
                // with c ≠ 0: nonzero, multi-limb, and ≡ 0 modulo both
                // 2^64 − 1 and 2^64 + 1.
                let i = if product.word_len() == 0 {
                    0
                } else {
                    rng.random_range(0..product.word_len() as u64) as usize
                };
                let c = 1 + rng.random_range(0..u64::MAX);
                let mut hi = vec![0u64; i + 2];
                hi.push(c);
                let mut lo = vec![0u64; i];
                lo.push(c);
                let delta = &BigInt::from_sign_limbs(Sign::Positive, hi)
                    - &BigInt::from_sign_limbs(Sign::Positive, lo);
                product + &delta
            }
        }
    }
}

impl Value for FaultKind {
    fn from_json(json: &Json, path: &str) -> Result<FaultKind, ConfigError> {
        named(json, path, &FaultKind::ALL, FaultKind::name)
    }

    fn to_json_value(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl Value for CorruptionKind {
    fn from_json(json: &Json, path: &str) -> Result<CorruptionKind, ConfigError> {
        named(json, path, &CorruptionKind::ALL, CorruptionKind::name)
    }

    fn to_json_value(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

/// The `kind` of a forced-fault entry, which must be a shard fault
/// exactly when `shard` is set.
fn forced_kind(map: &Object, path: &str, shard: bool) -> Result<FaultKind, ConfigError> {
    let kind: FaultKind = required(map, path, "kind")?;
    if kind.is_shard_fault() != shard {
        let level = if shard { "a shard" } else { "a request" };
        return Err(invalid(
            &join(path, "kind"),
            format!("must be {level} fault"),
        ));
    }
    Ok(kind)
}

/// A `chaos.force` entry.
impl Value for (u64, FaultKind) {
    fn from_json(json: &Json, path: &str) -> Result<(u64, FaultKind), ConfigError> {
        let map = section(json, path, "force", &["index", "kind"])?;
        Ok((
            required(map, path, "index")?,
            forced_kind(map, path, false)?,
        ))
    }

    fn to_json_value(&self) -> Json {
        obj([
            ("index", self.0.to_json_value()),
            ("kind", self.1.to_json_value()),
        ])
    }
}

/// A `chaos.force_shard` entry.
impl Value for (usize, u64, FaultKind) {
    fn from_json(json: &Json, path: &str) -> Result<(usize, u64, FaultKind), ConfigError> {
        let map = section(json, path, "force_shard", &["shard", "round", "kind"])?;
        Ok((
            required(map, path, "shard")?,
            required(map, path, "round")?,
            forced_kind(map, path, true)?,
        ))
    }

    fn to_json_value(&self) -> Json {
        obj([
            ("shard", self.0.to_json_value()),
            ("round", self.1.to_json_value()),
            ("kind", self.2.to_json_value()),
        ])
    }
}

/// Install a process-wide panic hook that silences the backtrace spam from
/// *expected* panics — chaos-injected kernel panics and the distributed
/// backend's unrecoverable-run marker, both caught by the supervisor —
/// while delegating every other panic to the previously installed hook. Idempotent; intended for chaos tests and
/// demos.
pub fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = |s: &str| {
                s.contains(INJECTED_PANIC_MSG) || s.contains(crate::distributed::UNRECOVERABLE_MSG)
            };
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| expected(s))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| expected(s));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_config() -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            panic_per_10k: 300,
            straggle_per_10k: 300,
            corrupt_per_10k: 400,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn decisions_are_deterministic_and_hit_every_kind() {
        let chaos = active_config();
        let mut counts = [0u32; 3];
        for request in 0..5_000 {
            let first = chaos.decide(request, 0);
            assert_eq!(first, chaos.decide(request, 0), "request {request}");
            if let Some(kind) = first {
                assert!(!kind.is_shard_fault(), "decide() never yields shard kinds");
                counts[kind as usize] += 1;
            }
            // Attempts at or past max_faulty_attempts are always clean.
            assert_eq!(chaos.decide(request, 1), None);
        }
        let total: u32 = counts.iter().sum();
        // 10% nominal rate over 5000 requests: expect roughly 500 faults.
        assert!((300..700).contains(&total), "total {total}");
        assert!(counts.iter().all(|&c| c > 0), "counts {counts:?}");
    }

    #[test]
    fn forced_faults_override_rates() {
        let chaos = ChaosConfig {
            force: vec![(7, FaultKind::Corrupt)],
            ..ChaosConfig::default()
        };
        assert!(!chaos.is_active() || chaos.is_active()); // force makes it active
        assert!(chaos.is_active());
        assert_eq!(chaos.decide(7, 0), Some(FaultKind::Corrupt));
        assert_eq!(chaos.decide(7, 1), None, "forced faults fire once");
        assert_eq!(chaos.decide(8, 0), None);
    }

    #[test]
    fn corruption_always_changes_the_value() {
        let chaos = active_config();
        let mut rng = StdRng::seed_from_u64(9);
        for request in 0..50 {
            let x = BigInt::random_signed_bits(&mut rng, 1 + request * 13);
            let bad = chaos.corrupt(&x, request, 0);
            assert_ne!(bad, x, "request {request}");
            assert_eq!(bad, chaos.corrupt(&x, request, 0), "deterministic");
        }
        assert_eq!(chaos.corrupt(&BigInt::zero(), 0, 0), BigInt::one());
    }

    #[test]
    fn residue_evading_corruption_changes_value_but_preserves_residues() {
        let chaos = ChaosConfig {
            corruption: CorruptionKind::ResidueEvading,
            ..active_config()
        };
        // 2^128 − 1 = (2^64 − 1)(2^64 + 1): a delta it divides leaves both
        // residues unchanged.
        let m128 = BigInt::from_sign_limbs(Sign::Positive, vec![u64::MAX; 2]);
        let mut rng = StdRng::seed_from_u64(11);
        for request in 0..50 {
            let x = BigInt::random_signed_bits(&mut rng, 1 + request * 29);
            let bad = chaos.corrupt(&x, request, 0);
            assert_ne!(bad, x, "request {request}");
            assert_eq!(bad, chaos.corrupt(&x, request, 0), "deterministic");
            assert!(
                (&bad - &x).mod_floor(&m128).is_zero(),
                "request {request}: residues must be preserved"
            );
        }
        // The zero product is corrupted too (delta is never zero), and the
        // corruption still evades both residues.
        let bad_zero = chaos.corrupt(&BigInt::zero(), 3, 0);
        assert!(!bad_zero.is_zero());
        assert!(
            bad_zero.mod_floor(&m128).is_zero(),
            "zero's residues preserved"
        );
    }

    #[test]
    fn shard_decisions_are_deterministic_and_forced_rounds_fire() {
        let chaos = ChaosConfig {
            seed: 7,
            shard_kill_per_10k: 400,
            shard_stall_per_10k: 400,
            force_shard: vec![(1, 5, FaultKind::ShardKill)],
            ..ChaosConfig::default()
        };
        assert!(chaos.shard_chaos_active());
        assert_eq!(chaos.decide_shard(1, 5), Some(FaultKind::ShardKill));
        let mut kills = 0u32;
        let mut stalls = 0u32;
        for shard in 0..3usize {
            for round in 0..2_000u64 {
                let fault = chaos.decide_shard(shard, round);
                assert_eq!(fault, chaos.decide_shard(shard, round));
                match fault {
                    Some(FaultKind::ShardKill) => kills += 1,
                    Some(FaultKind::ShardStall) => stalls += 1,
                    Some(other) => panic!("non-shard fault {other:?}"),
                    None => {}
                }
            }
        }
        // 8% nominal rate over 6000 draws: expect roughly 240 per kind.
        assert!((100..500).contains(&kills), "kills {kills}");
        assert!((100..500).contains(&stalls), "stalls {stalls}");
        // The default plan never touches shards.
        assert!(!ChaosConfig::default().shard_chaos_active());
        assert_eq!(ChaosConfig::default().decide_shard(0, 0), None);
    }

    #[test]
    fn json_round_trip() {
        let cfg = ChaosConfig {
            seed: 42,
            panic_per_10k: 100,
            straggle_per_10k: 200,
            corrupt_per_10k: 300,
            corruption: CorruptionKind::ResidueEvading,
            straggle_ms: 5,
            max_faulty_attempts: 2,
            force: vec![(3, FaultKind::Panic), (9, FaultKind::Straggle)],
            shard_kill_per_10k: 10,
            shard_stall_per_10k: 20,
            stall_rounds: 6,
            force_shard: vec![(2, 11, FaultKind::ShardStall), (0, 4, FaultKind::ShardKill)],
        };
        let text = cfg.to_json_value().dump();
        let parsed = ChaosConfig::from_json(&Json::parse(&text).unwrap(), "chaos").unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn json_rejects_bad_documents() {
        for bad in [
            r#"{"panic_per_10k": 9000, "corrupt_per_10k": 2000}"#,
            r#"{"shard_kill_per_10k": 9000, "shard_stall_per_10k": 2000}"#,
            // Each rate is bounded before the sums, so they cannot overflow.
            r#"{"panic_per_10k": 4294967295, "straggle_per_10k": 1}"#,
            r#"{"shard_kill_per_10k": 4294967295, "shard_stall_per_10k": 1}"#,
            r#"{"force": [{"index": 1, "kind": "meltdown"}]}"#,
            r#"{"straggle_ms": true}"#,
            r#"{"corruption": "cosmic_ray"}"#,
            r#"{"corruption": 7}"#,
            // Shard kinds are rejected in request-level force, and vice versa.
            r#"{"force": [{"index": 1, "kind": "shard_kill"}]}"#,
            r#"{"force_shard": [{"shard": 0, "round": 1, "kind": "panic"}]}"#,
        ] {
            let parsed = ChaosConfig::from_json(&Json::parse(bad).unwrap(), "chaos");
            assert!(matches!(parsed, Err(ConfigError::Invalid(_))), "{bad}");
        }
    }
}
