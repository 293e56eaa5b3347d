//! Service configuration, loadable from JSON.
//!
//! The derives come from the workspace `serde` (a no-op shim in the
//! offline container — see `vendor/README.md`), so the JSON round-trip is
//! implemented directly via [`crate::json`]; the derive keeps the structs
//! source-compatible with upstream serde for when the real crate returns.

use crate::chaos::ChaosConfig;
use crate::json::{obj, Json, JsonError};
use crate::supervisor::{BreakerPolicy, RetryPolicy};
use crate::verify::VerifyPolicy;
use serde::{Deserialize, Serialize};

/// Size thresholds steering kernel auto-selection, in operand bits
/// (`min(bit_length(a), bit_length(b))`).
///
/// Defaults follow the crossover points measured by the `tune_thresholds`
/// sweep against the scratch-arena limb kernels: schoolbook only wins
/// below ~2 kbit (the in-place Karatsuba base case takes over early), and
/// sequential Toom-Cook carries to multi-megabit sizes on the single-core
/// CI container — multicore deployments should lower `seq_toom_max_bits`
/// to wherever their fork-join overhead amortizes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelPolicy {
    /// Requests at or below this size run schoolbook.
    pub schoolbook_max_bits: u64,
    /// Requests at or below this size (and above schoolbook) run
    /// sequential Toom-Cook.
    pub seq_toom_max_bits: u64,
    /// Requests *above* this size run the two-prime CRT NTT kernel
    /// (`ft_bigint::ntt`); requests between `seq_toom_max_bits` and here
    /// run parallel Toom-Cook. The default is the 8 Mbit crossover the
    /// `tune_thresholds` big-operand sweep measured (≥1.5× over Toom-3
    /// there and above; see BENCH_kernels.json).
    pub ntt_min_bits: u64,
    /// Split parameter for the sequential Toom-Cook kernel.
    pub seq_toom_k: usize,
    /// Split parameter for the parallel Toom-Cook kernel.
    pub par_toom_k: usize,
    /// Base-case cutoff inside the Toom recursions. Also the lane
    /// boundary: a product whose larger operand is at most this size is
    /// one limb-kernel call and runs in the service's small lane. The
    /// tuner never moves it.
    pub toom_threshold_bits: u64,
    /// Recursion levels the parallel kernel forks before going sequential.
    pub par_depth: usize,
}

impl Default for KernelPolicy {
    fn default() -> KernelPolicy {
        KernelPolicy {
            schoolbook_max_bits: 2_048,
            seq_toom_max_bits: 4_000_000,
            ntt_min_bits: 8_388_608,
            seq_toom_k: 3,
            par_toom_k: 3,
            toom_threshold_bits: 24_576,
            par_depth: 2,
        }
    }
}

/// Knobs for the two execution lanes: how long a lane's dispatcher waits
/// to coalesce same-shape requests, and how much each lane queues.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchingConfig {
    /// Coalescing window in µs: after the first queued request arrives,
    /// the dispatcher keeps collecting for at most this long before
    /// dispatching. `0` disables coalescing (every request dispatches
    /// alone, still through its lane's dispatcher).
    pub window_us: u64,
    /// Most requests merged into one executed batch.
    pub max_batch: usize,
    /// Capacity of each lane's submission queue; a submission beyond it
    /// returns [`crate::SubmitError::QueueFull`].
    pub queue_capacity: usize,
}

impl Default for BatchingConfig {
    fn default() -> BatchingConfig {
        BatchingConfig {
            window_us: 150,
            max_batch: 32,
            queue_capacity: 1_024,
        }
    }
}

/// Cadence and sensitivity of the adaptive threshold tuner, which
/// periodically re-derives [`KernelPolicy`] size thresholds from the live
/// per-(kernel, size-class) latency histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TunerConfig {
    /// Master switch; `false` keeps the static policy forever.
    pub enabled: bool,
    /// How often the tuner re-examines the histogram, ms.
    pub interval_ms: u64,
    /// Minimum served samples a (kernel, size-class) cell needs on *both*
    /// sides of a threshold before the tuner will move it.
    pub min_samples: u64,
    /// Move a threshold only when the losing kernel's mean latency is at
    /// least this percentage of the winner's (e.g. `125` = 25% slower),
    /// so noise does not flap the policy.
    pub slowdown_pct: u64,
}

impl Default for TunerConfig {
    fn default() -> TunerConfig {
        TunerConfig {
            enabled: true,
            interval_ms: 500,
            min_samples: 64,
            slowdown_pct: 125,
        }
    }
}

/// The distributed backend: coalesced groups promoted to the simulated
/// coded machine (`ft-core`'s polynomial-coded parallel Toom-Cook with
/// heartbeat failure detection). Each promoted request runs on a machine
/// of `(2k−1+f)·k^(bfs_steps−1)·…` simulated processors that survives up
/// to `f` column faults per run; unrecoverable runs fall back down the
/// ordinary kernel ladder. The injection knobs drive deterministic chaos
/// *inside* the machine (planned hard faults plus one delay fault), where
/// the heartbeat detector — not an oracle — must find them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributedConfig {
    /// Master switch; `false` keeps every group on the local kernels.
    pub enabled: bool,
    /// Toom split parameter `k` of the coded machine.
    pub k: usize,
    /// BFS steps `m` of the coded machine (`P = (k²)^m` data processors).
    pub bfs_steps: usize,
    /// Redundant evaluation points `f` — column faults survivable per run.
    pub f: usize,
    /// Smallest coalesced group the dispatcher promotes.
    pub min_group: usize,
    /// Promotion window: only operands of at least this many bits…
    pub min_bits: u64,
    /// …and at most this many bits run on the simulated machine.
    pub max_bits: u64,
    /// Seed of the deterministic in-machine fault stream.
    pub fault_seed: u64,
    /// Planned hard faults injected per machine run (distinct victim
    /// ranks at the `poly-halt` fault point). More than `f` distinct
    /// *columns* makes the run unrecoverable, exercising the fallback.
    pub hard_faults_per_run: u32,
    /// Ranks per run additionally given a delay fault (slowdown).
    pub delay_ranks: u32,
    /// Slowdown factor applied to delayed ranks (1 = no delay).
    pub delay_factor: u64,
    /// Attempts (per request) that receive injection, so a supervised
    /// retry deterministically clears injected faults. `u32::MAX` makes
    /// every distributed attempt faulty (forces the fallback ladder).
    pub faulty_attempts: u32,
    /// Heartbeat deadline budget of the in-machine detector.
    pub deadline_budget: u64,
    /// Straggler factor of the in-machine detector (0 disables flagging).
    pub straggler_factor: u64,
    /// Heartbeats posted per fault point inside the machine (density of
    /// the heartbeat schedule). `1` is the classic one-beat-per-point
    /// cadence, which caps the usable `deadline_budget` at 1 between
    /// rounds (the EXPERIMENTS.md S7 cliff); a period of `h` makes every
    /// budget `≤ h` detect a fresh death.
    pub heartbeat_period: u64,
    /// Run a second in-machine detection round after the nested
    /// recursion: first-wave victims re-integrate via `ack_recovery` and
    /// keep serving the protocol, and injected hard faults alternate
    /// between the two fault points (`poly-halt` / `poly-rec-halt`).
    pub recursion_detect: bool,
}

impl Default for DistributedConfig {
    fn default() -> DistributedConfig {
        DistributedConfig {
            enabled: false,
            k: 2,
            bfs_steps: 1,
            f: 1,
            min_group: 2,
            min_bits: 2_048,
            max_bits: 4_000_000,
            fault_seed: 0,
            hard_faults_per_run: 0,
            delay_ranks: 0,
            delay_factor: 4,
            faulty_attempts: 1,
            deadline_budget: 1,
            straggler_factor: 0,
            heartbeat_period: 1,
            recursion_detect: false,
        }
    }
}

impl DistributedConfig {
    /// Read a distributed config from a parsed JSON object; absent fields
    /// keep their defaults.
    pub fn from_json(json: &Json) -> Result<DistributedConfig, ConfigError> {
        let d = DistributedConfig::default();
        let enabled = match json.get("enabled") {
            None => d.enabled,
            Some(v) => v.as_bool().ok_or_else(|| {
                ConfigError::Invalid("distributed.enabled must be a boolean".to_string())
            })?,
        };
        let cfg = DistributedConfig {
            enabled,
            k: field_usize(json, "k", d.k)?,
            bfs_steps: field_usize(json, "bfs_steps", d.bfs_steps)?,
            f: field_usize(json, "f", d.f)?,
            min_group: field_usize(json, "min_group", d.min_group)?,
            min_bits: field_u64(json, "min_bits", d.min_bits)?,
            max_bits: field_u64(json, "max_bits", d.max_bits)?,
            fault_seed: field_u64(json, "fault_seed", d.fault_seed)?,
            hard_faults_per_run: field_u32(json, "hard_faults_per_run", d.hard_faults_per_run)?,
            delay_ranks: field_u32(json, "delay_ranks", d.delay_ranks)?,
            delay_factor: field_u64(json, "delay_factor", d.delay_factor)?,
            faulty_attempts: field_u32(json, "faulty_attempts", d.faulty_attempts)?,
            deadline_budget: field_u64(json, "deadline_budget", d.deadline_budget)?,
            straggler_factor: field_u64(json, "straggler_factor", d.straggler_factor)?,
            heartbeat_period: field_u64(json, "heartbeat_period", d.heartbeat_period)?,
            recursion_detect: match json.get("recursion_detect") {
                None => d.recursion_detect,
                Some(v) => v.as_bool().ok_or_else(|| {
                    ConfigError::Invalid(
                        "distributed.recursion_detect must be a boolean".to_string(),
                    )
                })?,
            },
        };
        if cfg.k < 2 {
            return Err(ConfigError::Invalid(
                "distributed.k must be >= 2".to_string(),
            ));
        }
        if cfg.bfs_steps == 0 {
            return Err(ConfigError::Invalid(
                "distributed.bfs_steps must be >= 1".to_string(),
            ));
        }
        if cfg.min_group == 0 {
            return Err(ConfigError::Invalid(
                "distributed.min_group must be >= 1".to_string(),
            ));
        }
        if cfg.min_bits > cfg.max_bits {
            return Err(ConfigError::Invalid(
                "distributed.min_bits must not exceed distributed.max_bits".to_string(),
            ));
        }
        if cfg.delay_factor == 0 {
            return Err(ConfigError::Invalid(
                "distributed.delay_factor must be >= 1".to_string(),
            ));
        }
        if cfg.heartbeat_period == 0 {
            return Err(ConfigError::Invalid(
                "distributed.heartbeat_period must be >= 1".to_string(),
            ));
        }
        Ok(cfg)
    }

    fn to_json_value(&self) -> Json {
        obj([
            ("enabled", Json::Bool(self.enabled)),
            ("k", Json::Num(self.k as i128)),
            ("bfs_steps", Json::Num(self.bfs_steps as i128)),
            ("f", Json::Num(self.f as i128)),
            ("min_group", Json::Num(self.min_group as i128)),
            ("min_bits", Json::Num(i128::from(self.min_bits))),
            ("max_bits", Json::Num(i128::from(self.max_bits))),
            ("fault_seed", Json::Num(i128::from(self.fault_seed))),
            (
                "hard_faults_per_run",
                Json::Num(i128::from(self.hard_faults_per_run)),
            ),
            ("delay_ranks", Json::Num(i128::from(self.delay_ranks))),
            ("delay_factor", Json::Num(i128::from(self.delay_factor))),
            (
                "faulty_attempts",
                Json::Num(i128::from(self.faulty_attempts)),
            ),
            (
                "deadline_budget",
                Json::Num(i128::from(self.deadline_budget)),
            ),
            (
                "straggler_factor",
                Json::Num(i128::from(self.straggler_factor)),
            ),
            (
                "heartbeat_period",
                Json::Num(i128::from(self.heartbeat_period)),
            ),
            ("recursion_detect", Json::Bool(self.recursion_detect)),
        ])
    }
}

impl BatchingConfig {
    /// Read a batching config from a parsed JSON object; absent fields
    /// keep their defaults.
    pub fn from_json(json: &Json) -> Result<BatchingConfig, ConfigError> {
        let d = BatchingConfig::default();
        let cfg = BatchingConfig {
            window_us: field_u64(json, "window_us", d.window_us)?,
            max_batch: field_usize(json, "max_batch", d.max_batch)?,
            queue_capacity: field_usize(json, "queue_capacity", d.queue_capacity)?,
        };
        if cfg.max_batch == 0 {
            return Err(ConfigError::Invalid(
                "batching.max_batch must be >= 1".to_string(),
            ));
        }
        if cfg.queue_capacity == 0 {
            return Err(ConfigError::Invalid(
                "batching.queue_capacity must be >= 1".to_string(),
            ));
        }
        Ok(cfg)
    }

    fn to_json_value(&self) -> Json {
        obj([
            ("window_us", Json::Num(i128::from(self.window_us))),
            ("max_batch", Json::Num(self.max_batch as i128)),
            ("queue_capacity", Json::Num(self.queue_capacity as i128)),
        ])
    }
}

impl TunerConfig {
    /// Read a tuner config from a parsed JSON object; absent fields keep
    /// their defaults.
    pub fn from_json(json: &Json) -> Result<TunerConfig, ConfigError> {
        let d = TunerConfig::default();
        let enabled = match json.get("enabled") {
            None => d.enabled,
            Some(v) => v.as_bool().ok_or_else(|| {
                ConfigError::Invalid("tuner.enabled must be a boolean".to_string())
            })?,
        };
        let cfg = TunerConfig {
            enabled,
            interval_ms: field_u64(json, "interval_ms", d.interval_ms)?,
            min_samples: field_u64(json, "min_samples", d.min_samples)?,
            slowdown_pct: field_u64(json, "slowdown_pct", d.slowdown_pct)?,
        };
        if cfg.interval_ms == 0 {
            return Err(ConfigError::Invalid(
                "tuner.interval_ms must be >= 1".to_string(),
            ));
        }
        if cfg.slowdown_pct < 100 {
            return Err(ConfigError::Invalid(
                "tuner.slowdown_pct must be >= 100".to_string(),
            ));
        }
        Ok(cfg)
    }

    fn to_json_value(&self) -> Json {
        obj([
            ("enabled", Json::Bool(self.enabled)),
            ("interval_ms", Json::Num(i128::from(self.interval_ms))),
            ("min_samples", Json::Num(i128::from(self.min_samples))),
            ("slowdown_pct", Json::Num(i128::from(self.slowdown_pct))),
        ])
    }
}

/// Full service configuration. [`Self::from_json`] ignores unknown keys,
/// so documents written for earlier versions (with `workers`,
/// `queue_capacity`, `batch_max`, `batching.lanes` or
/// `chaos.escalate_panics`) still load.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Queue-age bound in milliseconds after which deadline-less requests
    /// are shed ([`crate::MulError::Shed`]); `None` disables shedding.
    pub shed_after_ms: Option<u64>,
    /// Capacity of the shared Toom-plan LRU cache.
    pub plan_cache_capacity: usize,
    /// Kernel selection thresholds.
    pub kernel_policy: KernelPolicy,
    /// Residue-spot-check every product (`ft_toom_core::residue`); a
    /// mismatch counts as a soft fault and the request is retried.
    pub verify_residues: bool,
    /// Dual-algorithm verification rung: sampled re-computation with a
    /// structurally distinct algorithm, escalating mismatches to a full
    /// recompute (see [`crate::verify`]).
    pub verify: VerifyPolicy,
    /// Per-request retry/backoff policy for supervised failures.
    pub retry: RetryPolicy,
    /// Per-kernel circuit-breaker policy.
    pub breaker: BreakerPolicy,
    /// Optional deterministic fault-injection plan (chaos testing);
    /// `None` injects nothing.
    pub chaos: Option<ChaosConfig>,
    /// Both lanes' coalescing window, batch bound, and queue capacity.
    pub batching: BatchingConfig,
    /// Adaptive threshold tuner driven by the live latency histogram.
    pub tuner: TunerConfig,
    /// Distributed backend: promote coalesced groups to the simulated
    /// coded machine with heartbeat failure detection.
    pub distributed: DistributedConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            shed_after_ms: None,
            plan_cache_capacity: 8,
            kernel_policy: KernelPolicy::default(),
            verify_residues: true,
            verify: VerifyPolicy::default(),
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            chaos: None,
            batching: BatchingConfig::default(),
            tuner: TunerConfig::default(),
            distributed: DistributedConfig::default(),
        }
    }
}

/// The sharded topology: N [`crate::MulService`] shards behind a
/// [`crate::Router`] with rendezvous-hash placement on (kernel,
/// size-class), per-shard heartbeat liveness, failover re-routing, and
/// cross-shard work stealing. Every shard runs the same
/// [`ServiceConfig`] template; the chaos injector inside that template
/// also drives shard-level faults (`shard_kill` / `shard_stall`),
/// decided deterministically per (seed, shard, monitor round).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Number of service shards behind the router.
    pub shards: usize,
    /// Per-shard service configuration template.
    pub service: ServiceConfig,
    /// Monitor cadence: each shard posts one heartbeat per period of
    /// this many milliseconds, and the router's monitor samples all
    /// watermarks and derives one liveness verdict per period.
    pub heartbeat_ms: u64,
    /// Monitor rounds a shard's watermark may lag before the verdict
    /// declares it dead (service-level `deadline_budget`; the shard
    /// passes through *suspect* after one missed beat). The default of
    /// 3 tolerates scheduling jitter between the beat and monitor
    /// threads without flapping.
    pub deadline_budget: u64,
    /// Work stealing: when a request's owner shard has more than this
    /// many requests queued, the router looks for an idle sibling.
    pub hot_watermark: usize,
    /// …and steals to a live sibling whose queue depth is at or below
    /// this.
    pub idle_watermark: usize,
    /// Most times one request may be failed over to another shard after
    /// its current shard dies under it, before the error surfaces to
    /// the caller.
    pub max_failovers: u32,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 3,
            service: ServiceConfig::default(),
            heartbeat_ms: 20,
            deadline_budget: 3,
            hot_watermark: 32,
            idle_watermark: 2,
            max_failovers: 3,
        }
    }
}

impl ShardConfig {
    /// Parse a topology config from JSON text; absent fields keep their
    /// defaults.
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
        let json = Json::parse(text).map_err(ConfigError::Parse)?;
        let d = ShardConfig::default();
        let service = match json.get("service") {
            None => d.service.clone(),
            Some(v) => ServiceConfig::from_json(&v.dump())?,
        };
        let cfg = ShardConfig {
            shards: field_usize(&json, "shards", d.shards)?,
            service,
            heartbeat_ms: field_u64(&json, "heartbeat_ms", d.heartbeat_ms)?,
            deadline_budget: field_u64(&json, "deadline_budget", d.deadline_budget)?,
            hot_watermark: field_usize(&json, "hot_watermark", d.hot_watermark)?,
            idle_watermark: field_usize(&json, "idle_watermark", d.idle_watermark)?,
            max_failovers: field_u32(&json, "max_failovers", d.max_failovers)?,
        };
        if cfg.shards == 0 {
            return Err(ConfigError::Invalid("shards must be >= 1".to_string()));
        }
        if cfg.heartbeat_ms == 0 {
            return Err(ConfigError::Invalid(
                "heartbeat_ms must be >= 1".to_string(),
            ));
        }
        if cfg.deadline_budget == 0 {
            return Err(ConfigError::Invalid(
                "deadline_budget must be >= 1".to_string(),
            ));
        }
        if cfg.idle_watermark > cfg.hot_watermark {
            return Err(ConfigError::Invalid(
                "idle_watermark must not exceed hot_watermark".to_string(),
            ));
        }
        Ok(cfg)
    }

    /// Serialize to compact JSON (round-trips through [`Self::from_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let service = Json::parse(&self.service.to_json()).expect("service config JSON");
        obj([
            ("shards", Json::Num(self.shards as i128)),
            ("service", service),
            ("heartbeat_ms", Json::Num(i128::from(self.heartbeat_ms))),
            (
                "deadline_budget",
                Json::Num(i128::from(self.deadline_budget)),
            ),
            ("hot_watermark", Json::Num(self.hot_watermark as i128)),
            ("idle_watermark", Json::Num(self.idle_watermark as i128)),
            ("max_failovers", Json::Num(i128::from(self.max_failovers))),
        ])
        .dump()
    }
}

/// Config validation / parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The document was not valid JSON.
    Parse(JsonError),
    /// A field was missing, mistyped, or out of range.
    Invalid(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Parse(e) => write!(f, "config parse error: {e}"),
            ConfigError::Invalid(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

pub(crate) fn field_u64(json: &Json, key: &str, default: u64) -> Result<u64, ConfigError> {
    match json.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| ConfigError::Invalid(format!("{key} must be a non-negative integer"))),
    }
}

pub(crate) fn field_u32(json: &Json, key: &str, default: u32) -> Result<u32, ConfigError> {
    let wide = field_u64(json, key, u64::from(default))?;
    u32::try_from(wide)
        .map_err(|_| ConfigError::Invalid(format!("{key} must fit in an unsigned 32-bit integer")))
}

pub(crate) fn field_usize(json: &Json, key: &str, default: usize) -> Result<usize, ConfigError> {
    match json.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| ConfigError::Invalid(format!("{key} must be a non-negative integer"))),
    }
}

impl KernelPolicy {
    /// Read a policy from a parsed JSON object; absent fields keep their
    /// defaults.
    pub fn from_json(json: &Json) -> Result<KernelPolicy, ConfigError> {
        let d = KernelPolicy::default();
        let policy = KernelPolicy {
            schoolbook_max_bits: field_u64(json, "schoolbook_max_bits", d.schoolbook_max_bits)?,
            seq_toom_max_bits: field_u64(json, "seq_toom_max_bits", d.seq_toom_max_bits)?,
            ntt_min_bits: field_u64(json, "ntt_min_bits", d.ntt_min_bits)?,
            seq_toom_k: field_usize(json, "seq_toom_k", d.seq_toom_k)?,
            par_toom_k: field_usize(json, "par_toom_k", d.par_toom_k)?,
            toom_threshold_bits: field_u64(json, "toom_threshold_bits", d.toom_threshold_bits)?,
            par_depth: field_usize(json, "par_depth", d.par_depth)?,
        };
        if policy.schoolbook_max_bits > policy.seq_toom_max_bits {
            return Err(ConfigError::Invalid(
                "schoolbook_max_bits must not exceed seq_toom_max_bits".to_string(),
            ));
        }
        if policy.seq_toom_max_bits > policy.ntt_min_bits {
            return Err(ConfigError::Invalid(
                "seq_toom_max_bits must not exceed ntt_min_bits".to_string(),
            ));
        }
        if policy.seq_toom_k < 2 || policy.par_toom_k < 2 {
            return Err(ConfigError::Invalid(
                "toom k parameters must be >= 2".to_string(),
            ));
        }
        Ok(policy)
    }

    fn to_json_value(&self) -> Json {
        obj([
            (
                "schoolbook_max_bits",
                Json::Num(i128::from(self.schoolbook_max_bits)),
            ),
            (
                "seq_toom_max_bits",
                Json::Num(i128::from(self.seq_toom_max_bits)),
            ),
            ("ntt_min_bits", Json::Num(i128::from(self.ntt_min_bits))),
            ("seq_toom_k", Json::Num(self.seq_toom_k as i128)),
            ("par_toom_k", Json::Num(self.par_toom_k as i128)),
            (
                "toom_threshold_bits",
                Json::Num(i128::from(self.toom_threshold_bits)),
            ),
            ("par_depth", Json::Num(self.par_depth as i128)),
        ])
    }
}

impl ServiceConfig {
    /// Parse a config from JSON text; absent fields keep their defaults.
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
        let json = Json::parse(text).map_err(ConfigError::Parse)?;
        let d = ServiceConfig::default();
        let shed_after_ms = match json.get("shed_after_ms") {
            None => d.shed_after_ms,
            Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                ConfigError::Invalid("shed_after_ms must be an integer or null".to_string())
            })?),
        };
        let kernel_policy = match json.get("kernel_policy") {
            None => d.kernel_policy.clone(),
            Some(v) => KernelPolicy::from_json(v)?,
        };
        let verify_residues = match json.get("verify_residues") {
            None => d.verify_residues,
            Some(v) => v.as_bool().ok_or_else(|| {
                ConfigError::Invalid("verify_residues must be a boolean".to_string())
            })?,
        };
        let verify = match json.get("verify") {
            None => d.verify.clone(),
            Some(v) => VerifyPolicy::from_json(v)?,
        };
        let retry = match json.get("retry") {
            None => d.retry.clone(),
            Some(v) => RetryPolicy::from_json(v)?,
        };
        let breaker = match json.get("breaker") {
            None => d.breaker.clone(),
            Some(v) => BreakerPolicy::from_json(v)?,
        };
        let chaos = match json.get("chaos") {
            None | Some(Json::Null) => None,
            Some(v) => Some(ChaosConfig::from_json(v)?),
        };
        let batching = match json.get("batching") {
            None => d.batching.clone(),
            Some(v) => BatchingConfig::from_json(v)?,
        };
        let tuner = match json.get("tuner") {
            None => d.tuner.clone(),
            Some(v) => TunerConfig::from_json(v)?,
        };
        let distributed = match json.get("distributed") {
            None => d.distributed.clone(),
            Some(v) => DistributedConfig::from_json(v)?,
        };
        let cfg = ServiceConfig {
            shed_after_ms,
            plan_cache_capacity: field_usize(&json, "plan_cache_capacity", d.plan_cache_capacity)?,
            kernel_policy,
            verify_residues,
            verify,
            retry,
            breaker,
            chaos,
            batching,
            tuner,
            distributed,
        };
        if cfg.plan_cache_capacity == 0 {
            return Err(ConfigError::Invalid(
                "plan_cache_capacity must be >= 1".to_string(),
            ));
        }
        Ok(cfg)
    }

    /// Serialize to compact JSON (round-trips through [`Self::from_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        obj([
            (
                "shed_after_ms",
                self.shed_after_ms
                    .map_or(Json::Null, |ms| Json::Num(i128::from(ms))),
            ),
            (
                "plan_cache_capacity",
                Json::Num(self.plan_cache_capacity as i128),
            ),
            ("kernel_policy", self.kernel_policy.to_json_value()),
            ("verify_residues", Json::Bool(self.verify_residues)),
            ("verify", self.verify.to_json_value()),
            ("retry", self.retry.to_json_value()),
            ("breaker", self.breaker.to_json_value()),
            (
                "chaos",
                self.chaos
                    .as_ref()
                    .map_or(Json::Null, ChaosConfig::to_json_value),
            ),
            ("batching", self.batching.to_json_value()),
            ("tuner", self.tuner.to_json_value()),
            ("distributed", self.distributed.to_json_value()),
        ])
        .dump()
    }
}

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
        // and panic escalation still load; the keys no longer mean
        // anything, even values the old validation rejected.
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
                "batching": {"window_us": 75, "max_batch": 8, "queue_capacity": 32},
                "tuner": {"enabled": false, "interval_ms": 250, "min_samples": 10,
                          "slowdown_pct": 150}
            }"#,
        )
        .unwrap();
        assert_eq!(cfg.batching.window_us, 75);
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
        ] {
            assert!(
                matches!(ServiceConfig::from_json(bad), Err(ConfigError::Invalid(_))),
                "{bad}"
            );
        }
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
    }

    #[test]
    fn rejects_invalid_shard_values() {
        for bad in [
            r#"{"shards": 0}"#,
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
