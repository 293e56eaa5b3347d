//! N shards behind one front door: consistent-hash placement, heartbeat
//! liveness, failover re-routing, and cross-shard work stealing. The
//! router holds its shards (each a [`MulService`](crate::MulService) plus
//! a heartbeat) and calls them directly.
//!
//! ## Placement
//!
//! Requests are placed by **rendezvous (highest-random-weight) hashing**
//! on the key `(kernel, size class)`: every shard gets a pseudo-random
//! weight per key ([`rendezvous_weight`]) and the live shard with the
//! highest weight owns the key. Rendezvous hashing is *stable*: when a
//! shard dies or rejoins, only the keys it owned (≈ `1/N` of them) move;
//! every other key keeps its owner, so shard-local caches (plan cache,
//! tuner state) stay warm through membership churn.
//!
//! ## Liveness
//!
//! A monitor thread runs one detection round per `heartbeat_ms`: it
//! samples every shard's beat counter and feeds lag rows into the *same*
//! pure verdict function the simulated machine's in-run detector uses
//! ([`ft_machine::detect::verdict_from`]) — the service level reuses the
//! paper's detected fail-stop model one layer up. Shard lifecycle:
//!
//! ```text
//! Live ──lag ≥ 1──▶ Suspect ──lag ≥ deadline_budget──▶ Dead
//!   ▲                  │                                 │
//!   └──────beats advance───────────◀──(rejoin)───────────┘
//! ```
//!
//! A death is *survived*, not just observed: queued work the dead shard
//! surrenders (`ServiceStopped`) is re-routed to survivors by the
//! completion callback (`router.failovers`), under the absolute deadline
//! its client set at submission, so failover never extends a deadline.
//! Work already started rides the existing supervisor retry/verify
//! ladder, and new work routes around the corpse immediately. When one
//! shard runs hot (`queue depth > hot_watermark`) while a sibling idles
//! (`≤ idle_watermark`), placement redirects to the idle sibling
//! (`router.steals`). Only when *every* live shard refuses does the
//! router shed — callers map that to HTTP 429 with a live-depth
//! `Retry-After`.

use crate::config::{ServiceConfig, ShardConfig};
use crate::error::{MulError, SubmitError};
use crate::metrics::{size_class, MetricsSnapshot, RouterSnapshot};
use crate::service::{BatchHandle, Deadline, ResponseHandle, Slot};
use crate::shard::Shard;
use ft_bigint::BigInt;
use ft_machine::detect::verdict_from;
use ft_machine::{DetectorConfig, RankStatus};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Identity of one shard: its index in the router's shard list
/// (dense, `0..shards`).
pub type ShardId = usize;

/// SplitMix64: the same cheap mixer the fault-injection streams use.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The placement key of a request: its selected kernel and operand size
/// class, mixed into one word. Same-shape requests share a key, so they
/// land on the same shard and coalesce into the same batches.
#[must_use]
pub fn placement_key(kernel: usize, class: usize) -> u64 {
    splitmix64(((kernel as u64) << 32) | class as u64)
}

/// Rendezvous weight of `shard` for `key`. Pure and stateless: every
/// router (and every test) computes identical placements.
#[must_use]
pub fn rendezvous_weight(key: u64, shard: ShardId) -> u64 {
    splitmix64(key ^ splitmix64(shard as u64 + 1))
}

/// The rendezvous owner of `key` among `shards` (highest weight wins;
/// ties break toward the higher id, though 64-bit ties are fanciful).
#[must_use]
pub fn rendezvous_owner(key: u64, shards: &[ShardId]) -> Option<ShardId> {
    shards
        .iter()
        .copied()
        .max_by_key(|&s| (rendezvous_weight(key, s), s))
}

/// Routing state of one shard, as seen by the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Heartbeats current; owns its share of the key space.
    Live,
    /// Heartbeats lagging but under the deadline budget; still routable.
    Suspect,
    /// Declared dead by the heartbeat verdict; excluded from routing
    /// until its beats advance again (rejoin).
    Dead,
}

struct MonitorClock {
    stopped: parking_lot::Mutex<bool>,
    tick: std::sync::Condvar,
    // std Condvar needs a std Mutex; pair the flag with one.
    gate: std::sync::Mutex<()>,
}

struct RouterInner {
    shards: Vec<Shard>,
    cfg: ShardConfig,
    states: parking_lot::RwLock<Vec<ShardState>>,
    shard_deaths: AtomicU64,
    failovers: AtomicU64,
    steals: AtomicU64,
    rejoins: AtomicU64,
    monitor_rounds: AtomicU64,
    shutting_down: AtomicBool,
    clock: MonitorClock,
}

impl RouterInner {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn live_shards(&self) -> Vec<ShardId> {
        let states = self.states.read();
        (0..states.len())
            .filter(|&s| states[s] != ShardState::Dead)
            .collect()
    }

    fn depth(&self, shard: ShardId) -> usize {
        self.shards[shard].queue_depth()
    }

    /// Routable shards for `key`, best owner first, optionally excluding
    /// the shard a failover just fled.
    fn candidates(&self, key: u64, exclude: Option<ShardId>) -> Vec<ShardId> {
        let mut live: Vec<ShardId> = self
            .live_shards()
            .into_iter()
            .filter(|&s| Some(s) != exclude)
            .collect();
        if live.is_empty() {
            // Nowhere else to go: a lone (possibly suspect) excluded
            // shard beats giving up outright.
            live = self.live_shards();
        }
        live.sort_by_key(|&s| std::cmp::Reverse((rendezvous_weight(key, s), s)));
        live
    }

    fn placement_key_for(&self, a: &BigInt, b: &BigInt) -> u64 {
        let kernel = crate::Kernel::select(a, b, &self.cfg.service.kernel_policy);
        let bits = a.bit_length().min(b.bit_length());
        placement_key(kernel as usize, size_class(bits))
    }
}

/// Place (or re-place) one request. The initial placement is
/// synchronous: a terminal refusal is returned to the submitter with
/// nothing enqueued (`done` drops, resolving its never-shared handle).
/// Re-placements happen inside the completion callback of the previous
/// shard: a surrendered request (`ServiceStopped` from a killed shard)
/// re-routes to a survivor up to `max_failovers` times, still under
/// `deadline`, which was fixed once at submission.
fn route(
    inner: &Arc<RouterInner>,
    a: BigInt,
    b: BigInt,
    deadline: Deadline,
    done: Slot,
    attempts: u32,
    exclude: Option<ShardId>,
) -> Result<(), SubmitError> {
    let key = inner.placement_key_for(&a, &b);
    let mut candidates = inner.candidates(key, exclude);
    // Cross-shard work stealing: when the owner runs hot and a sibling
    // idles, redirect this request to the idlest idle sibling.
    if candidates.len() >= 2 && inner.depth(candidates[0]) > inner.cfg.hot_watermark {
        let idle = candidates
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &s)| (inner.depth(s), i))
            .filter(|&(d, _)| d <= inner.cfg.idle_watermark)
            .min();
        if let Some((_, i)) = idle {
            candidates.swap(0, i);
            inner.steals.fetch_add(1, Ordering::Relaxed);
        }
    }
    let mut queue_full: Option<SubmitError> = None;
    for shard in candidates {
        match inner.shards[shard].submit(a.clone(), b.clone(), deadline) {
            Ok(handle) => {
                let inner = inner.clone();
                handle.on_ready(move |result| match result {
                    // The shard fail-stopped under this request before
                    // starting it: re-route to a survivor.
                    Err(MulError::ServiceStopped)
                        if !inner.shutting_down.load(Ordering::Acquire)
                            && attempts < inner.cfg.max_failovers =>
                    {
                        inner.failovers.fetch_add(1, Ordering::Relaxed);
                        // A terminal refusal drops `done`, which resolves
                        // the client's handle as ServiceStopped — correct:
                        // every survivor refused admission.
                        let _ = route(&inner, a, b, deadline, done, attempts + 1, Some(shard));
                    }
                    other => done.fill(other),
                });
                return Ok(());
            }
            Err(error) => {
                // Keep probing the remaining candidates; remember the
                // strongest signal for the caller (QueueFull carries the
                // backpressure semantics a front door turns into 429).
                if matches!(error, SubmitError::QueueFull { .. }) || queue_full.is_none() {
                    queue_full = Some(error);
                }
            }
        }
    }
    Err(queue_full.unwrap_or(SubmitError::ShuttingDown))
}

/// N [`MulService`](crate::MulService) shards behind consistent-hash
/// placement, heartbeat liveness, failover, and work stealing. See the
/// module docs for the topology; see [`ShardConfig`] for the knobs.
///
/// ```
/// use ft_service::router::Router;
/// use ft_service::config::ShardConfig;
/// use ft_bigint::BigInt;
///
/// let router = Router::start(ShardConfig {
///     shards: 2,
///     ..ShardConfig::default()
/// });
/// let a: BigInt = "123456789123456789".parse().unwrap();
/// let b: BigInt = "-987654321987654321".parse().unwrap();
/// let handle = router.submit(a.clone(), b.clone()).unwrap();
/// assert_eq!(handle.wait().unwrap(), a.mul_schoolbook(&b));
/// let snap = router.shutdown();
/// assert_eq!(snap.served, 1);
/// assert_eq!(snap.router.shards, 2);
/// ```
pub struct Router {
    inner: Arc<RouterInner>,
    monitor: Option<JoinHandle<()>>,
}

impl Router {
    /// Start `cfg.shards` fresh shards behind a router.
    #[must_use]
    pub fn start(cfg: ShardConfig) -> Router {
        let shards = (0..cfg.shards.max(1))
            .map(|_| Shard::start(cfg.service.clone(), cfg.heartbeat_ms))
            .collect();
        Router::over(shards, cfg)
    }

    /// Wrap one already-running service as a single-shard topology — the
    /// compatibility path for unsharded callers (the HTTP front door's
    /// default). Routing degenerates to pass-through; the heartbeat
    /// monitor still runs.
    #[must_use]
    pub fn single(service: crate::MulService) -> Router {
        let cfg = ShardConfig {
            shards: 1,
            service: service.config().clone(),
            ..ShardConfig::default()
        };
        let shard = Shard::from_service(service, cfg.heartbeat_ms);
        Router::over(vec![shard], cfg)
    }

    /// Route over `shards` and start the heartbeat monitor.
    fn over(shards: Vec<Shard>, cfg: ShardConfig) -> Router {
        let n = shards.len();
        let inner = Arc::new(RouterInner {
            shards,
            cfg,
            states: parking_lot::RwLock::new(vec![ShardState::Live; n]),
            shard_deaths: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            monitor_rounds: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            clock: MonitorClock {
                stopped: parking_lot::Mutex::new(false),
                tick: std::sync::Condvar::new(),
                gate: std::sync::Mutex::new(()),
            },
        });
        let monitor = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("ftsvc-router".to_string())
                .spawn(move || monitor_loop(&inner))
                .expect("spawn router monitor")
        };
        Router {
            inner,
            monitor: Some(monitor),
        }
    }

    /// Submit `a × b` with no deadline.
    pub fn submit(&self, a: BigInt, b: BigInt) -> Result<ResponseHandle, SubmitError> {
        self.submit_inner(a, b, Deadline::None)
    }

    /// Submit `a × b` under a deadline. The deadline runs from this call
    /// and is not renewed when the request fails over to another shard.
    pub fn submit_with_deadline(
        &self,
        a: BigInt,
        b: BigInt,
        deadline: Duration,
    ) -> Result<ResponseHandle, SubmitError> {
        self.submit_inner(a, b, Deadline::after(deadline))
    }

    fn submit_inner(
        &self,
        a: BigInt,
        b: BigInt,
        deadline: Deadline,
    ) -> Result<ResponseHandle, SubmitError> {
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let (handle, done) = ResponseHandle::new();
        route(&self.inner, a, b, deadline, done, 0, None)?;
        Ok(handle)
    }

    /// Bulk submission: each pair routes (and fails over) independently,
    /// so one dead shard never poisons a whole batch; pairs that land on
    /// the same shard still coalesce in its dispatcher. A terminal
    /// refusal for any pair refuses the submission: the caller gets the
    /// error and no handle, and no later pair is placed. Pairs placed
    /// before the refusal still run, and their results are dropped.
    pub fn submit_many(&self, pairs: Vec<(BigInt, BigInt)>) -> Result<BatchHandle, SubmitError> {
        self.submit_many_inner(pairs, Deadline::None)
    }

    /// [`Self::submit_many`] with one deadline covering every pair, fixed
    /// once at this call like [`Self::submit_with_deadline`]'s.
    pub fn submit_many_with_deadline(
        &self,
        pairs: Vec<(BigInt, BigInt)>,
        deadline: Duration,
    ) -> Result<BatchHandle, SubmitError> {
        self.submit_many_inner(pairs, Deadline::after(deadline))
    }

    fn submit_many_inner(
        &self,
        pairs: Vec<(BigInt, BigInt)>,
        deadline: Deadline,
    ) -> Result<BatchHandle, SubmitError> {
        if self.inner.shutting_down.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let (handle, slots) = BatchHandle::new(pairs.len());
        let mut error = None;
        for ((a, b), done) in pairs.into_iter().zip(slots) {
            if error.is_some() {
                // Already refusing the submission; surrender the slot
                // (drop resolves it) instead of enqueuing more work.
                continue;
            }
            if let Err(e) = route(&self.inner, a, b, deadline, done, 0, None) {
                error = Some(e);
            }
        }
        match error {
            None => Ok(handle),
            Some(e) => Err(e),
        }
    }

    /// Point-in-time merged metrics across every shard, with the
    /// `router` topology section stamped in.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for shard in &self.inner.shards {
            merged.merge(&shard.metrics());
        }
        merged.router = self.router_snapshot();
        merged
    }

    fn router_snapshot(&self) -> RouterSnapshot {
        RouterSnapshot {
            shards: self.inner.shard_count() as u64,
            live: self.inner.live_shards().len() as u64,
            shard_deaths: self.inner.shard_deaths.load(Ordering::Relaxed),
            failovers: self.inner.failovers.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
            rejoins: self.inner.rejoins.load(Ordering::Relaxed),
            monitor_rounds: self.inner.monitor_rounds.load(Ordering::Relaxed),
        }
    }

    /// The topology configuration.
    #[must_use]
    pub fn config(&self) -> &ShardConfig {
        &self.inner.cfg
    }

    /// The per-shard service configuration.
    #[must_use]
    pub fn service_config(&self) -> &ServiceConfig {
        &self.inner.cfg.service
    }

    /// The *minimum* queue depth across live shards — the backlog a new
    /// request would actually face, since placement prefers survivors
    /// and steals toward idle siblings. This is what a front door's
    /// `Retry-After` must be derived from: the deepest queue may belong
    /// to a dead shard no retry will ever land on.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner
            .live_shards()
            .into_iter()
            .map(|s| self.inner.depth(s))
            .min()
            .unwrap_or(0)
    }

    /// Per-shard queue depths, indexed by shard id (`usize::MAX` for a
    /// shard that no longer answers). Operational visibility: which
    /// shard is hot, which is idle, which is gone.
    #[must_use]
    pub fn shard_depths(&self) -> Vec<usize> {
        (0..self.inner.shard_count())
            .map(|s| self.inner.depth(s))
            .collect()
    }

    /// Current routing states, indexed by shard id.
    #[must_use]
    pub fn shard_states(&self) -> Vec<ShardState> {
        self.inner.states.read().clone()
    }

    /// Ids of shards currently routable (not `Dead`).
    #[must_use]
    pub fn live_shards(&self) -> Vec<ShardId> {
        self.inner.live_shards()
    }

    /// Fail-stop one shard (testing / operational drain). Death is still
    /// *detected* by the heartbeat monitor, not assumed from this call.
    pub fn kill_shard(&self, shard: ShardId) {
        self.inner.shards[shard].kill();
    }

    /// Stall one shard's heartbeats for `rounds` monitor rounds.
    pub fn stall_shard(&self, shard: ShardId, rounds: u64) {
        self.inner.shards[shard].stall(rounds);
    }

    /// The rendezvous owner a fresh `(a, b)` request would be placed on,
    /// ignoring stealing (testing / introspection).
    #[must_use]
    pub fn owner_of(&self, a: &BigInt, b: &BigInt) -> Option<ShardId> {
        let key = self.inner.placement_key_for(a, b);
        rendezvous_owner(key, &self.inner.live_shards())
    }

    /// Stop routing, stop the monitor, drain and stop every shard, and
    /// return the merged final metrics.
    #[must_use]
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.inner.shutting_down.store(true, Ordering::Release);
        self.stop_monitor();
        let mut merged = MetricsSnapshot::default();
        for shard in &self.inner.shards {
            merged.merge(&shard.shutdown());
        }
        merged.router = self.router_snapshot();
        merged
    }

    fn stop_monitor(&mut self) {
        *self.inner.clock.stopped.lock() = true;
        self.inner.clock.tick.notify_all();
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.inner.shutting_down.store(true, Ordering::Release);
        self.stop_monitor();
        for shard in &self.inner.shards {
            let _ = shard.shutdown();
        }
    }
}

/// One heartbeat round per `heartbeat_ms`: apply shard-level chaos,
/// sample beats, run the pure detector verdict, and transition states.
fn monitor_loop(inner: &Arc<RouterInner>) {
    let n = inner.shard_count();
    let period = Duration::from_millis(inner.cfg.heartbeat_ms.max(1));
    let detector = DetectorConfig {
        deadline_budget: inner.cfg.deadline_budget.max(1),
        straggler_factor: 0,
        heartbeat_period: 1,
    };
    let mut round: u64 = 0;
    let mut last_beats = vec![0u64; n];
    let mut last_advance = vec![0u64; n];
    let mut incarnations = vec![0u32; n];
    loop {
        {
            let guard = inner
                .clock
                .gate
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if *inner.clock.stopped.lock() {
                return;
            }
            let (_guard, _timeout) = inner
                .clock
                .tick
                .wait_timeout(guard, period)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if *inner.clock.stopped.lock() {
            return;
        }
        round += 1;
        inner.monitor_rounds.fetch_add(1, Ordering::Relaxed);
        // Shard-level chaos, deterministic in (seed, shard, round).
        if let Some(chaos) = &inner.cfg.service.chaos {
            for shard in 0..n {
                match chaos.decide_shard(shard, round) {
                    Some(crate::FaultKind::ShardKill) => inner.shards[shard].kill(),
                    Some(crate::FaultKind::ShardStall) => {
                        inner.shards[shard].stall(chaos.stall_rounds);
                    }
                    _ => {}
                }
            }
        }
        // Sample heartbeats and build the detector's gather rows. `lag`
        // is rounds since this shard's beat counter last advanced — the
        // same hb_total − hb_live shape the machine-level detector sees.
        let mut rows = Vec::with_capacity(n);
        for shard in 0..n {
            let beats = inner.shards[shard].beats();
            if beats > last_beats[shard] || round == 1 {
                last_beats[shard] = beats;
                last_advance[shard] = round;
            }
            let lag = round - last_advance[shard];
            rows.push(RankStatus {
                rank: shard,
                incarnation: incarnations[shard],
                hb_total: round,
                hb_live: round - lag,
                clock: 0,
            });
        }
        let verdict = verdict_from(rows, &detector);
        let mut states = inner.states.write();
        for shard in 0..n {
            let lag = round - last_advance[shard];
            let next = if verdict.is_dead(shard) {
                ShardState::Dead
            } else if lag > 0 {
                ShardState::Suspect
            } else {
                ShardState::Live
            };
            match (states[shard], next) {
                (ShardState::Dead, ShardState::Dead) => {}
                (_, ShardState::Dead) => {
                    // Heartbeat verdict: the shard is gone. Meter the
                    // death; routing now excludes it.
                    inner.shard_deaths.fetch_add(1, Ordering::Relaxed);
                    incarnations[shard] += 1;
                    states[shard] = ShardState::Dead;
                }
                (ShardState::Dead, _) => {
                    // Beats advanced again: a stalled shard rejoins.
                    inner.rejoins.fetch_add(1, Ordering::Relaxed);
                    states[shard] = next;
                }
                _ => states[shard] = next,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_owner_is_argmax_of_weights() {
        let shards: Vec<ShardId> = (0..5).collect();
        for kernel in 0..5 {
            for class in 0..8 {
                let key = placement_key(kernel, class);
                let owner = rendezvous_owner(key, &shards).unwrap();
                for &s in &shards {
                    assert!(rendezvous_weight(key, owner) >= rendezvous_weight(key, s));
                }
            }
        }
        assert_eq!(rendezvous_owner(7, &[]), None);
    }

    #[test]
    fn placement_spreads_keys_across_shards() {
        // 5 kernels × 32 classes over 4 shards: every shard should own
        // a non-trivial slice of the key space.
        let shards: Vec<ShardId> = (0..4).collect();
        let mut owned = [0usize; 4];
        for kernel in 0..5 {
            for class in 0..32 {
                let key = placement_key(kernel, class);
                owned[rendezvous_owner(key, &shards).unwrap()] += 1;
            }
        }
        for (shard, &count) in owned.iter().enumerate() {
            assert!(count >= 160 / 16, "shard {shard} owns only {count} keys");
        }
    }
}
