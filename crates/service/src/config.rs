//! Service configuration, loadable from JSON.
//!
//! Every option is declared once, as a row of an `options!` block: its
//! doc line, name, type, default and optional bounds. The block generates
//! the public struct, its `Default`, and its `Value` impl, which loads the
//! section from JSON and writes it back. Loading rejects a key no row
//! declares with [`ConfigError::UnknownKey`], except the retired keys of
//! removed options, which load and are ignored; then it checks each row's
//! bounds and the section's cross-field rules.
//! [`ServiceConfig::to_json`] is the `/v1/config` body.

use crate::chaos::ChaosConfig;
use crate::json::{Json, JsonError};
use crate::supervisor::{BreakerPolicy, RetryPolicy};
use ft_toom_core::seq;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::ops::{Bound, RangeBounds};

/// Declares a config section. Each field is one row,
/// `/// doc` then `pub name: Type = default, bounds;`, where `bounds` is
/// an optional range such as `1..` or `..=10_000`. An optional
/// `check(c) { rule => "what broke"; … }` after the struct lists the
/// section's cross-field rules: conditions on `c` that must hold.
macro_rules! options {
    ($(#[$attr:meta])* pub struct $name:ident {
        $($(#[$doc:meta])* pub $field:ident: $ty:ty = $default:expr $(, $bounds:expr)?;)*
    }
    $(check($c:ident) { $($rule:expr => $broken:expr;)* })?) => {
        $(#[$attr])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Default for $name {
            fn default() -> $name {
                $name { $($field: $default,)* }
            }
        }

        impl $crate::config::Value for $name {
            fn from_json(
                json: &$crate::json::Json,
                path: &str,
            ) -> Result<$name, $crate::config::ConfigError> {
                let keys = [$(stringify!($field)),*];
                let map = $crate::config::section(json, path, stringify!($name), &keys)?;
                let cfg = $name {
                    $($field: $crate::config::row::<$ty>(map, path, stringify!($field), $default)?,)*
                };
                $($($crate::config::bounded(&cfg.$field, $bounds, path, stringify!($field))?;)?)*
                $(
                    let $c = &cfg;
                    $(if !$rule {
                        return Err($crate::config::ConfigError::Invalid(
                            $crate::config::join(path, $broken),
                        ));
                    })*
                )?
                Ok(cfg)
            }

            fn to_json_value(&self) -> $crate::json::Json {
                $crate::json::obj([
                    $((stringify!($field), $crate::config::Value::to_json_value(&self.$field)),)*
                ])
            }
        }
    };
}
pub(crate) use options;

/// A type an option can have: how it loads from JSON and how it is
/// written back. Implemented for the unsigned integers, `bool`, `Option`
/// (`null` is `None`), `Vec` (a JSON array), every config section, and in
/// [`crate::chaos`] for the fault kinds and the forced-fault entries.
pub(crate) trait Value: Sized {
    /// Load from `json`; `path` is its dotted key path, for errors.
    fn from_json(json: &Json, path: &str) -> Result<Self, ConfigError>;
    /// The JSON form, which [`Value::from_json`] loads back.
    fn to_json_value(&self) -> Json;
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn from_json(json: &Json, path: &str) -> Result<$t, ConfigError> {
                json.as_i128()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| invalid(path, format!("must be an integer in 0..={}", <$t>::MAX)))
            }

            fn to_json_value(&self) -> Json {
                Json::Num(*self as i128)
            }
        }
    )*};
}
unsigned!(u32, u64, usize);

impl Value for bool {
    fn from_json(json: &Json, path: &str) -> Result<bool, ConfigError> {
        json.as_bool()
            .ok_or_else(|| invalid(path, "must be a boolean"))
    }

    fn to_json_value(&self) -> Json {
        Json::Bool(*self)
    }
}

impl<T: Value> Value for Option<T> {
    fn from_json(json: &Json, path: &str) -> Result<Option<T>, ConfigError> {
        match json {
            Json::Null => Ok(None),
            v => T::from_json(v, path).map(Some),
        }
    }

    fn to_json_value(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json_value)
    }
}

impl<T: Value> Value for Vec<T> {
    fn from_json(json: &Json, path: &str) -> Result<Vec<T>, ConfigError> {
        let Json::Arr(items) = json else {
            return Err(invalid(path, "must be an array"));
        };
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item, &format!("{path}[{i}]")))
            .collect()
    }

    fn to_json_value(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json_value).collect())
    }
}

/// Keys of removed options, as (section, key). Documents that still set
/// them load, and the value is ignored: `workers`, `queue_capacity`,
/// `batch_max` and the whole `verify` section at the top of a service
/// config, `batching.lanes`, `batching.window_us` and
/// `chaos.escalate_panics`.
pub(crate) const RETIRED: &[(&str, &str)] = &[
    ("ServiceConfig", "workers"),
    ("ServiceConfig", "queue_capacity"),
    ("ServiceConfig", "batch_max"),
    ("ServiceConfig", "verify"),
    ("BatchingConfig", "lanes"),
    ("BatchingConfig", "window_us"),
    ("ChaosConfig", "escalate_panics"),
];

/// A JSON object's entries.
pub(crate) type Object = BTreeMap<String, Json>;

/// `key` under `path`, dotted (the root's path is empty).
pub(crate) fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// A mistyped or out-of-range value at `path`.
pub(crate) fn invalid(path: &str, rule: impl Display) -> ConfigError {
    let path = if path.is_empty() {
        "the document"
    } else {
        path
    };
    ConfigError::Invalid(format!("{path} {rule}"))
}

/// The object at `path` of section `name`, once every key in it is one
/// of `keys` or retired.
pub(crate) fn section<'a>(
    json: &'a Json,
    path: &str,
    name: &str,
    keys: &[&str],
) -> Result<&'a Object, ConfigError> {
    let Json::Obj(map) = json else {
        return Err(invalid(path, "must be an object"));
    };
    let declared = |key: &str| keys.contains(&key) || RETIRED.contains(&(name, key));
    match map.keys().find(|key| !declared(key)) {
        None => Ok(map),
        Some(key) => Err(ConfigError::UnknownKey {
            path: join(path, key),
            nearest: join(path, nearest(key, keys)),
        }),
    }
}

/// Row `key` of the section at `path`, or `default` when the key is absent.
pub(crate) fn row<T: Value>(
    map: &Object,
    path: &str,
    key: &str,
    default: T,
) -> Result<T, ConfigError> {
    map.get(key)
        .map_or(Ok(default), |v| T::from_json(v, &join(path, key)))
}

/// Entry `key` of the object at `path`, which must be present.
pub(crate) fn required<T: Value>(map: &Object, path: &str, key: &str) -> Result<T, ConfigError> {
    let path = join(path, key);
    T::from_json(
        map.get(key).ok_or_else(|| invalid(&path, "is required"))?,
        &path,
    )
}

/// Row `key` of the section at `path` must lie in `bounds`.
pub(crate) fn bounded<T: PartialOrd + Display>(
    value: &T,
    bounds: impl RangeBounds<T>,
    path: &str,
    key: &str,
) -> Result<(), ConfigError> {
    if bounds.contains(value) {
        return Ok(());
    }
    let rule = match (bounds.start_bound(), bounds.end_bound()) {
        (Bound::Included(lo), Bound::Unbounded) => format!("must be >= {lo}"),
        (Bound::Unbounded, Bound::Included(hi)) => format!("must be <= {hi}"),
        (Bound::Included(lo), Bound::Included(hi)) => format!("must be in {lo}..={hi}"),
        _ => "is out of range".to_string(),
    };
    Err(invalid(&join(path, key), rule))
}

/// The one of `all` whose `name` is the string `json`.
pub(crate) fn named<T: Copy>(
    json: &Json,
    path: &str,
    all: &[T],
    name: fn(T) -> &'static str,
) -> Result<T, ConfigError> {
    let found = all
        .iter()
        .copied()
        .find(|&kind| matches!(json, Json::Str(s) if s == name(kind)));
    found.ok_or_else(|| {
        let names: Vec<&str> = all.iter().map(|&kind| name(kind)).collect();
        invalid(path, format!("must be one of {}", names.join(", ")))
    })
}

/// The declared key with the fewest single-character edits from `key`
/// (ignoring case); the first such key on a tie.
fn nearest<'k>(key: &str, keys: &[&'k str]) -> &'k str {
    let key = key.to_ascii_lowercase();
    keys.iter()
        .copied()
        .min_by_key(|declared| edits(&key, declared))
        .unwrap_or_default()
}

/// Levenshtein distance between `a` and `b`, in characters.
fn edits(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let here = (diagonal + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diagonal = row[j + 1];
            row[j + 1] = here;
        }
    }
    row[b.len()]
}

/// Load a whole document from JSON text.
fn load<T: Value>(text: &str) -> Result<T, ConfigError> {
    T::from_json(&Json::parse(text).map_err(ConfigError::Parse)?, "")
}

options! {
    /// Size thresholds steering kernel auto-selection, in operand bits
    /// (`min(bit_length(a), bit_length(b))`).
    ///
    /// Defaults follow the crossover points measured by the
    /// `tune_thresholds` and `kernel_baseline` sweeps against the
    /// scratch-arena limb kernels: schoolbook only wins below ~2 kbit (the
    /// in-place Karatsuba base case takes over early), sequential
    /// Toom-Cook carries to 1 Mbit, and the two-prime NTT, one prime per
    /// core, wins from there up on the 2-core host of BENCH_kernels.json.
    /// Both Toom/NTT defaults derive from `ft_bigint::ntt::NTT_THRESHOLD_LIMBS`
    /// (through `seq::NTT_MIN_BITS`), so the service and `auto_mul` agree.
    /// The 1 Mbit edge also keeps every product at or below it on one
    /// core, leaving the other to the small lane; lowering it trades that
    /// lane's latency for bulk throughput.
    pub struct KernelPolicy {
        /// Requests at or below this size run schoolbook.
        pub schoolbook_max_bits: u64 = 2_048;
        /// Requests at or below this size (and above schoolbook) run
        /// sequential Toom-Cook.
        pub seq_toom_max_bits: u64 = seq::NTT_MIN_BITS;
        /// Requests *above* this size run the two-prime CRT NTT kernel
        /// (`ft_bigint::ntt`); requests between `seq_toom_max_bits` and here
        /// run parallel Toom-Cook. The default leaves that band one bit
        /// wide: parallel Toom wins at no size on the 2-core host (see
        /// BENCH_kernels.json), and stays a rung for hosts that widen it.
        pub ntt_min_bits: u64 = seq::NTT_MIN_BITS + 1;
        /// Split parameter for the sequential Toom-Cook kernel.
        pub seq_toom_k: usize = 3, 2..;
        /// Split parameter for the parallel Toom-Cook kernel.
        pub par_toom_k: usize = 3, 2..;
        /// Base-case cutoff inside the Toom recursions. Also the lane
        /// boundary: a product whose larger operand is at most this size is
        /// one limb-kernel call and runs in the service's small lane. The
        /// tuner never moves it.
        pub toom_threshold_bits: u64 = 24_576;
        /// Recursion levels the parallel kernel forks before going sequential.
        pub par_depth: usize = 2;
    }
    check(p) {
        p.schoolbook_max_bits <= p.seq_toom_max_bits
            => "schoolbook_max_bits must not exceed seq_toom_max_bits";
        p.seq_toom_max_bits <= p.ntt_min_bits => "seq_toom_max_bits must not exceed ntt_min_bits";
    }
}

options! {
    /// Knobs for the two execution lanes: how many queued requests a
    /// lane's dispatcher takes into one round, and how much each lane
    /// queues. A lane never waits for companions: a round is what is
    /// queued when the lane frees, so same-shape requests coalesce only
    /// from a backlog (group commit; see the `dispatcher` module).
    pub struct BatchingConfig {
        /// Most requests one round takes from the lane's queue, and so
        /// the most merged into one executed batch (a bulk submission
        /// joins its round whole). Each lane sizes its round buffers by it
        /// at start-up.
        pub max_batch: usize = 32, 1..=4_096;
        /// Capacity of each lane's submission queue; a submission beyond it
        /// returns [`crate::SubmitError::QueueFull`].
        pub queue_capacity: usize = 1_024, 1..;
    }
}

options! {
    /// Cadence and sensitivity of the adaptive threshold tuner, which
    /// periodically re-derives [`KernelPolicy`] size thresholds from the
    /// live per-(kernel, size-class) latency histogram.
    pub struct TunerConfig {
        /// Master switch; `false` keeps the static policy forever.
        pub enabled: bool = true;
        /// How often the tuner re-examines the histogram, ms.
        pub interval_ms: u64 = 500, 1..;
        /// Minimum served samples a (kernel, size-class) cell needs on
        /// *both* sides of a threshold before the tuner will move it.
        pub min_samples: u64 = 64;
        /// Move a threshold only when the losing kernel's mean latency is at
        /// least this percentage of the winner's (e.g. `125` = 25% slower),
        /// so noise does not flap the policy.
        pub slowdown_pct: u64 = 125, 100..;
    }
}

/// Most simulated ranks one run of the distributed backend may use. Each
/// rank is an OS thread, started when the first group is promoted.
pub(crate) const MAX_RANKS: usize = 1_024;

options! {
    /// The distributed backend: coalesced groups promoted to the simulated
    /// coded machine (`ft-core`'s polynomial-coded parallel Toom-Cook with
    /// heartbeat failure detection). Each promoted request runs on a
    /// machine of `(2k−1)^(bfs_steps−1)·(2k−1+f)` simulated ranks, at most
    /// 1,024, that survives up to `f` column faults per run;
    /// unrecoverable runs fall back down the ordinary kernel ladder. The
    /// injection knobs drive deterministic chaos *inside* the machine
    /// (planned hard faults plus one delay fault), where the heartbeat
    /// detector — not an oracle — must find them.
    pub struct DistributedConfig {
        /// Master switch; `false` keeps every group on the local kernels.
        pub enabled: bool = false;
        /// Toom split parameter `k` of the coded machine.
        pub k: usize = 2, 2..;
        /// BFS steps `m` of the coded machine (`(2k−1)^m` data processors).
        pub bfs_steps: usize = 1, 1..;
        /// Redundant evaluation points `f` — column faults survivable per run.
        pub f: usize = 1;
        /// Smallest coalesced group the dispatcher promotes. A lone request
        /// never is, so the floor is 2.
        pub min_group: usize = 2, 2..;
        /// Promotion window: only operands of at least this many bits…
        pub min_bits: u64 = 2_048;
        /// …and at most this many bits run on the simulated machine.
        pub max_bits: u64 = 4_000_000;
        /// Seed of the deterministic in-machine fault stream.
        pub fault_seed: u64 = 0;
        /// Planned hard faults injected per machine run (distinct victim
        /// ranks at the `poly-halt` fault point). More than `f` distinct
        /// *columns* makes the run unrecoverable, exercising the fallback.
        pub hard_faults_per_run: u32 = 0;
        /// Ranks per run additionally given a delay fault (slowdown), at
        /// most the machine's rank count.
        pub delay_ranks: u32 = 0;
        /// Slowdown factor applied to delayed ranks (1 = no delay).
        pub delay_factor: u64 = 4, 1..;
        /// Attempts (per request) that receive injection, so a supervised
        /// retry deterministically clears injected faults. `u32::MAX` makes
        /// every distributed attempt faulty (forces the fallback ladder).
        pub faulty_attempts: u32 = 1;
        /// Heartbeat deadline budget of the in-machine detector.
        pub deadline_budget: u64 = 1;
        /// Straggler factor of the in-machine detector (0 disables flagging).
        pub straggler_factor: u64 = 0;
        /// Heartbeats posted per fault point inside the machine (density of
        /// the heartbeat schedule). `1` is the classic one-beat-per-point
        /// cadence, which caps the usable `deadline_budget` at 1 between
        /// rounds (the EXPERIMENTS.md S7 cliff); a period of `h` makes every
        /// budget `≤ h` detect a fresh death.
        pub heartbeat_period: u64 = 1, 1..;
        /// Run a second in-machine detection round after the nested
        /// recursion: first-wave victims re-integrate via `ack_recovery` and
        /// keep serving the protocol, and injected hard faults alternate
        /// between the two fault points (`poly-halt` / `poly-rec-halt`).
        pub recursion_detect: bool = false;
    }
    check(d) {
        d.min_bits <= d.max_bits => "min_bits must not exceed max_bits";
        d.ranks().is_some_and(|ranks| ranks <= MAX_RANKS)
            => &format!("k, bfs_steps and f must give at most {MAX_RANKS} simulated ranks");
        d.ranks().is_some_and(|ranks| d.delay_ranks as usize <= ranks)
            => "delay_ranks must not exceed the simulated ranks";
    }
}

impl DistributedConfig {
    /// Simulated ranks of one run, `(2k−1)^(bfs_steps−1)·(2k−1+f)`, or
    /// `None` when that overflows.
    fn ranks(&self) -> Option<usize> {
        let q = self.k.checked_mul(2)?.checked_sub(1)?;
        let steps = u32::try_from(self.bfs_steps.checked_sub(1)?).ok()?;
        q.checked_pow(steps)?.checked_mul(q.checked_add(self.f)?)
    }
}

options! {
    /// Full service configuration. [`Self::from_json`] rejects keys no row
    /// declares, except seven retired ones that load and are ignored:
    /// `workers`, `queue_capacity`, `batch_max`, `verify`,
    /// `batching.lanes`, `batching.window_us` and `chaos.escalate_panics`.
    pub struct ServiceConfig {
        /// Queue-age bound in milliseconds after which deadline-less
        /// requests are shed ([`crate::MulError::Shed`]); `None` disables
        /// shedding.
        pub shed_after_ms: Option<u64> = None;
        /// Capacity of the shared Toom-plan LRU cache, allocated at
        /// start-up.
        pub plan_cache_capacity: usize = 8, 1..=256;
        /// Kernel selection thresholds.
        pub kernel_policy: KernelPolicy = KernelPolicy::default();
        /// Check every product modulo two secret primes
        /// (`ft_toom_core::residue`); a mismatch counts as a soft fault and
        /// the request is retried.
        pub verify_residues: bool = true;
        /// Per-request retry/backoff policy for supervised failures.
        pub retry: RetryPolicy = RetryPolicy::default();
        /// Per-kernel circuit-breaker policy.
        pub breaker: BreakerPolicy = BreakerPolicy::default();
        /// Optional deterministic fault-injection plan (chaos testing);
        /// `None` injects nothing.
        pub chaos: Option<ChaosConfig> = None;
        /// Both lanes' round bound and queue capacity.
        pub batching: BatchingConfig = BatchingConfig::default();
        /// Adaptive threshold tuner driven by the live latency histogram.
        pub tuner: TunerConfig = TunerConfig::default();
        /// Distributed backend: promote coalesced groups to the simulated
        /// coded machine with heartbeat failure detection.
        pub distributed: DistributedConfig = DistributedConfig::default();
    }
}

impl ServiceConfig {
    /// Parse a config from JSON text; absent fields keep their defaults,
    /// and a key no row declares is a [`ConfigError::UnknownKey`].
    ///
    /// ```
    /// use ft_service::ServiceConfig;
    /// let cfg = ServiceConfig::from_json(
    ///     r#"{"shed_after_ms": 20, "kernel_policy": {"schoolbook_max_bits": 4000}}"#,
    /// ).unwrap();
    /// assert_eq!(cfg.shed_after_ms, Some(20));
    /// assert_eq!(cfg.kernel_policy.schoolbook_max_bits, 4000);
    /// assert_eq!(cfg.batching, ServiceConfig::default().batching);
    /// ```
    pub fn from_json(text: &str) -> Result<ServiceConfig, ConfigError> {
        load(text)
    }

    /// Serialize to compact JSON (round-trips through [`Self::from_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        Value::to_json_value(self).dump()
    }
}

options! {
    /// The sharded topology: N [`crate::MulService`] shards behind a
    /// [`crate::Router`] with rendezvous-hash placement on (kernel,
    /// size-class), per-shard heartbeat liveness, failover re-routing, and
    /// cross-shard work stealing. Every shard runs the same
    /// [`ServiceConfig`] template; the chaos injector inside that template
    /// also drives shard-level faults (`shard_kill` / `shard_stall`),
    /// decided deterministically per (seed, shard, monitor round).
    pub struct ShardConfig {
        /// Number of service shards behind the router. Each starts two
        /// lane threads and a tuner thread.
        pub shards: usize = 3, 1..=64;
        /// Per-shard service configuration template.
        pub service: ServiceConfig = ServiceConfig::default();
        /// Monitor cadence: each shard posts one heartbeat per period of
        /// this many milliseconds, and the router's monitor samples all
        /// watermarks and derives one liveness verdict per period.
        pub heartbeat_ms: u64 = 20, 1..;
        /// Monitor rounds a shard's watermark may lag before the verdict
        /// declares it dead (service-level `deadline_budget`; the shard
        /// passes through *suspect* after one missed beat). The default of
        /// 3 tolerates scheduling jitter between the beat and monitor
        /// threads without flapping.
        pub deadline_budget: u64 = 3, 1..;
        /// Work stealing: when a request's owner shard has more than this
        /// many requests queued, the router looks for an idle sibling.
        pub hot_watermark: usize = 32;
        /// …and steals to a live sibling whose queue depth is at or below
        /// this.
        pub idle_watermark: usize = 2;
        /// Most times one request may be failed over to another shard after
        /// its current shard dies under it, before the error surfaces to
        /// the caller.
        pub max_failovers: u32 = 3;
    }
    check(s) {
        s.idle_watermark <= s.hot_watermark => "idle_watermark must not exceed hot_watermark";
    }
}

impl ShardConfig {
    /// Parse a topology config from JSON text; absent fields keep their
    /// defaults, and a key no row declares is a [`ConfigError::UnknownKey`].
    ///
    /// ```
    /// use ft_service::ShardConfig;
    /// let cfg = ShardConfig::from_json(
    ///     r#"{"shards": 4, "deadline_budget": 2, "service": {"shed_after_ms": 50}}"#,
    /// ).unwrap();
    /// assert_eq!(cfg.shards, 4);
    /// assert_eq!(cfg.service.shed_after_ms, Some(50));
    /// assert_eq!(cfg.heartbeat_ms, ShardConfig::default().heartbeat_ms);
    /// ```
    pub fn from_json(text: &str) -> Result<ShardConfig, ConfigError> {
        load(text)
    }

    /// Serialize to compact JSON (round-trips through [`Self::from_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        Value::to_json_value(self).dump()
    }
}

/// Config validation / parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The document was not valid JSON.
    Parse(JsonError),
    /// A value was mistyped, outside its row's bounds, or broke one of its
    /// section's cross-field rules.
    Invalid(String),
    /// A key that no row declares and that no removed option used.
    UnknownKey {
        /// The key's full dotted path, e.g. `batching.max_batches`.
        path: String,
        /// The declared key at the same level closest to it, as a full
        /// path, e.g. `batching.max_batch`.
        nearest: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Parse(e) => write!(f, "config parse error: {e}"),
            ConfigError::Invalid(msg) => write!(f, "invalid config: {msg}"),
            ConfigError::UnknownKey { path, nearest } => {
                write!(f, "unknown config key `{path}` (did you mean `{nearest}`?)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_round_trip_through_json() {
        let cfg = ServiceConfig::default();
        let again = ServiceConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, again);
    }

    #[test]
    fn partial_document_keeps_defaults() {
        let cfg =
            ServiceConfig::from_json(r#"{"plan_cache_capacity": 7, "shed_after_ms": 12}"#).unwrap();
        assert_eq!(cfg.plan_cache_capacity, 7);
        assert_eq!(cfg.shed_after_ms, Some(12));
        assert_eq!(cfg.batching, BatchingConfig::default());
        assert!(cfg.verify_residues);
        assert_eq!(cfg.chaos, None);
    }

    #[test]
    fn removed_options_are_ignored() {
        // Documents written for the worker pool, per-batch lane threads,
        // panic escalation, the dual-algorithm verification rung and the
        // coalescing window still load; the keys no longer mean anything,
        // even values the old validation rejected.
        let cfg = ServiceConfig::from_json(
            r#"{"workers": 0, "queue_capacity": 0, "batch_max": 0,
                "batching": {"lanes": 2, "max_batch": 8},
                "chaos": {"seed": 3, "escalate_panics": true}}"#,
        )
        .unwrap();
        assert_eq!(cfg.batching.max_batch, 8);
        assert_eq!(cfg.chaos.as_ref().map(|c| c.seed), Some(3));
        for key in ["workers", "batch_max", "lanes", "escalate_panics"] {
            assert!(!cfg.to_json().contains(key), "{key} is still emitted");
        }
        let cfg = ServiceConfig::from_json(
            r#"{"verify_residues": false,
                "verify": {"dual_per_10k": 10001, "dual_small_max_bits": 16384,
                           "dual_max_bits": 33554432, "dual_toom_k": 1,
                           "breaker_on_mismatch": true, "sample_seed": 0}}"#,
        )
        .unwrap();
        assert!(!cfg.verify_residues);
        assert!(
            !cfg.to_json().contains("\"verify\""),
            "verify is still emitted"
        );
        let cfg = ServiceConfig::from_json(
            r#"{"batching": {"window_us": 150, "max_batch": 8, "queue_capacity": 32}}"#,
        )
        .unwrap();
        assert_eq!(cfg.batching.max_batch, 8);
        assert_eq!(cfg.batching.queue_capacity, 32);
        assert!(
            !cfg.to_json().contains("window_us"),
            "window_us is still emitted"
        );
    }

    #[test]
    fn robustness_fields_round_trip() {
        let cfg = ServiceConfig::from_json(
            r#"{
                "verify_residues": false,
                "retry": {"max_retries": 9, "backoff_base_ms": 2},
                "breaker": {"failure_threshold": 3, "open_ms": 40},
                "chaos": {"seed": 42, "corrupt_per_10k": 1000,
                          "force": [{"index": 4, "kind": "panic"}]}
            }"#,
        )
        .unwrap();
        assert!(!cfg.verify_residues);
        assert_eq!(cfg.retry.max_retries, 9);
        assert_eq!(cfg.breaker.failure_threshold, 3);
        let chaos = cfg.chaos.as_ref().unwrap();
        assert_eq!(chaos.seed, 42);
        assert_eq!(chaos.corrupt_per_10k, 1000);
        assert_eq!(chaos.force, vec![(4, crate::chaos::FaultKind::Panic)]);
        let again = ServiceConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, again);
        // Explicit null disables chaos, like omitting the key.
        let off = ServiceConfig::from_json(r#"{"chaos": null}"#).unwrap();
        assert_eq!(off.chaos, None);
    }

    #[test]
    fn batching_and_tuner_round_trip() {
        let cfg = ServiceConfig::from_json(
            r#"{
                "batching": {"max_batch": 8, "queue_capacity": 32},
                "tuner": {"enabled": false, "interval_ms": 250, "min_samples": 10,
                          "slowdown_pct": 150}
            }"#,
        )
        .unwrap();
        assert_eq!(cfg.batching.max_batch, 8);
        assert_eq!(cfg.batching.queue_capacity, 32);
        assert!(!cfg.tuner.enabled);
        assert_eq!(cfg.tuner.interval_ms, 250);
        assert_eq!(cfg.tuner.min_samples, 10);
        assert_eq!(cfg.tuner.slowdown_pct, 150);
        let again = ServiceConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, again);
        // Absent sections keep defaults.
        let plain = ServiceConfig::from_json("{}").unwrap();
        assert_eq!(plain.batching, BatchingConfig::default());
        assert_eq!(plain.tuner, TunerConfig::default());
    }

    #[test]
    fn rejects_invalid_batching_and_tuner_values() {
        assert!(matches!(
            ServiceConfig::from_json(r#"{"batching": {"max_batch": 0}}"#),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json(r#"{"batching": {"queue_capacity": 0}}"#),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json(r#"{"tuner": {"interval_ms": 0}}"#),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json(r#"{"tuner": {"slowdown_pct": 99}}"#),
            Err(ConfigError::Invalid(_))
        ));
    }

    /// `max_batch` sizes both lanes' round buffers and
    /// `plan_cache_capacity` the plan cache, at start-up: a huge value
    /// must fail to load, not to allocate.
    #[test]
    fn start_up_allocations_are_bounded() {
        for bad in [
            r#"{"batching": {"max_batch": 18446744073709551615}}"#,
            r#"{"batching": {"max_batch": 4097}}"#,
            r#"{"plan_cache_capacity": 18446744073709551615}"#,
            r#"{"plan_cache_capacity": 257}"#,
        ] {
            assert!(
                matches!(ServiceConfig::from_json(bad), Err(ConfigError::Invalid(_))),
                "{bad}"
            );
        }
        let largest = ServiceConfig::from_json(
            r#"{"batching": {"max_batch": 4096}, "plan_cache_capacity": 256}"#,
        )
        .unwrap();
        assert_eq!(largest.batching.max_batch, 4_096);
        assert_eq!(largest.plan_cache_capacity, 256);
    }

    #[test]
    fn distributed_round_trips() {
        let cfg = ServiceConfig::from_json(
            r#"{
                "distributed": {"enabled": true, "k": 3, "bfs_steps": 1, "f": 2,
                                "min_group": 3, "min_bits": 4096, "max_bits": 65536,
                                "fault_seed": 7, "hard_faults_per_run": 2,
                                "delay_ranks": 1, "delay_factor": 8,
                                "faulty_attempts": 2, "deadline_budget": 3,
                                "straggler_factor": 4, "heartbeat_period": 4}
            }"#,
        )
        .unwrap();
        assert!(cfg.distributed.enabled);
        assert_eq!(cfg.distributed.k, 3);
        assert_eq!(cfg.distributed.f, 2);
        assert_eq!(cfg.distributed.min_group, 3);
        assert_eq!(cfg.distributed.hard_faults_per_run, 2);
        assert_eq!(cfg.distributed.deadline_budget, 3);
        assert_eq!(cfg.distributed.heartbeat_period, 4);
        let again = ServiceConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(again, cfg);
        // Absent section keeps the disabled default.
        let plain = ServiceConfig::from_json("{}").unwrap();
        assert_eq!(plain.distributed, DistributedConfig::default());
        assert!(!plain.distributed.enabled);
    }

    #[test]
    fn rejects_invalid_distributed_values() {
        for bad in [
            r#"{"distributed": {"k": 1}}"#,
            r#"{"distributed": {"bfs_steps": 0}}"#,
            r#"{"distributed": {"min_group": 0}}"#,
            r#"{"distributed": {"min_bits": 10, "max_bits": 5}}"#,
            r#"{"distributed": {"delay_factor": 0}}"#,
            r#"{"distributed": {"heartbeat_period": 0}}"#,
            r#"{"distributed": {"enabled": 1}}"#,
            r#"{"distributed": {"faulty_attempts": 4294967296}}"#,
            // A lone request is never promoted, so 1 would act as 2.
            r#"{"distributed": {"min_group": 1}}"#,
            // Machines of more than MAX_RANKS simulated ranks (threads).
            r#"{"distributed": {"k": 10, "bfs_steps": 64}}"#,
            r#"{"distributed": {"k": 3, "bfs_steps": 5}}"#,
            r#"{"distributed": {"f": 2000}}"#,
            r#"{"distributed": {"k": 9223372036854775807}}"#,
            r#"{"distributed": {"bfs_steps": 18446744073709551615}}"#,
            // More delayed ranks than the default machine's 3^0 · (3 + 1).
            r#"{"distributed": {"enabled": true, "delay_ranks": 4294967295}}"#,
            r#"{"distributed": {"delay_ranks": 5}}"#,
        ] {
            assert!(
                matches!(ServiceConfig::from_json(bad), Err(ConfigError::Invalid(_))),
                "{bad}"
            );
        }
        // The largest machine under the cap: 3^5 · (3 + 1) = 972 ranks.
        let largest = ServiceConfig::from_json(r#"{"distributed": {"bfs_steps": 6}}"#).unwrap();
        assert_eq!(largest.distributed.bfs_steps, 6);
        let every_rank =
            ServiceConfig::from_json(r#"{"distributed": {"delay_ranks": 4}}"#).unwrap();
        assert_eq!(every_rank.distributed.delay_ranks, 4);
    }

    #[test]
    fn shard_config_round_trips() {
        let cfg = ShardConfig::from_json(
            r#"{
                "shards": 5, "heartbeat_ms": 10, "deadline_budget": 2,
                "hot_watermark": 16, "idle_watermark": 1, "max_failovers": 2,
                "service": {"shed_after_ms": 9, "batching": {"queue_capacity": 8}}
            }"#,
        )
        .unwrap();
        assert_eq!(cfg.shards, 5);
        assert_eq!(cfg.heartbeat_ms, 10);
        assert_eq!(cfg.deadline_budget, 2);
        assert_eq!(cfg.hot_watermark, 16);
        assert_eq!(cfg.idle_watermark, 1);
        assert_eq!(cfg.max_failovers, 2);
        assert_eq!(cfg.service.shed_after_ms, Some(9));
        assert_eq!(cfg.service.batching.queue_capacity, 8);
        let again = ShardConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, again);
        // Absent fields keep defaults, including the service template.
        let plain = ShardConfig::from_json("{}").unwrap();
        assert_eq!(plain, ShardConfig::default());
        assert_eq!(
            ShardConfig::from_json(r#"{"shards": 64}"#).unwrap().shards,
            64
        );
    }

    #[test]
    fn rejects_invalid_shard_values() {
        for bad in [
            r#"{"shards": 0}"#,
            // Each shard starts three threads.
            r#"{"shards": 65}"#,
            r#"{"shards": 1000000}"#,
            r#"{"service": {"distributed": {"enabled": true, "delay_ranks": 4294967295}}}"#,
            r#"{"heartbeat_ms": 0}"#,
            r#"{"deadline_budget": 0}"#,
            r#"{"hot_watermark": 1, "idle_watermark": 2}"#,
            r#"{"service": {"plan_cache_capacity": 0}}"#,
        ] {
            assert!(
                matches!(ShardConfig::from_json(bad), Err(ConfigError::Invalid(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn rejects_invalid_values() {
        assert!(matches!(
            ServiceConfig::from_json(r#"{"plan_cache_capacity": 0}"#),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json(r#"{"plan_cache_capacity": -3}"#),
            Err(ConfigError::Invalid(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json("{"),
            Err(ConfigError::Parse(_))
        ));
        assert!(matches!(
            ServiceConfig::from_json(
                r#"{"kernel_policy": {"schoolbook_max_bits": 10, "seq_toom_max_bits": 5}}"#
            ),
            Err(ConfigError::Invalid(_))
        ));
        // The NTT floor may not undercut the sequential-Toom ceiling.
        assert!(matches!(
            ServiceConfig::from_json(
                r#"{"kernel_policy": {"seq_toom_max_bits": 9000000, "ntt_min_bits": 8000000}}"#
            ),
            Err(ConfigError::Invalid(_))
        ));
        let cfg =
            ServiceConfig::from_json(r#"{"kernel_policy": {"ntt_min_bits": 16000000}}"#).unwrap();
        assert_eq!(cfg.kernel_policy.ntt_min_bits, 16_000_000);
    }
}
