//! Service metrics: lock-free counters plus a JSON-serializable snapshot.
//!
//! ## One declaration per scalar
//!
//! Every scalar metric is one row of [`SCALARS`]. Loading a snapshot,
//! [`MetricsSnapshot::merge`], [`MetricsSnapshot::to_json`] and the
//! service half of the Prometheus exposition loop over the rows; only the
//! latency histogram and the labelled families are written out by hand.
//!
//! ## Snapshot consistency
//!
//! Counters are independent relaxed atomics, so a snapshot taken while
//! the lanes are recording can observe *torn* combinations (a request
//! counted in one counter but not yet in another). The snapshot therefore
//! derives `served` from the latency histogram itself — the bucket sum
//! *is* the served count, so `served == Σ latency_buckets` holds by
//! construction in every snapshot. The remaining per-request counters
//! (`per_kernel`, `latency_total_us`, the size-class stats) may lag or
//! lead `served` by the handful of requests in flight at snapshot time;
//! they converge exactly once the service quiesces (e.g. the final
//! snapshot returned by `shutdown`).

use crate::chaos::FaultKind;
use crate::json::{obj, Json};
use crate::kernel::Kernel;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (µs) of the latency histogram buckets; the last bucket is
/// unbounded. Spans schoolbook-on-tiny-operands through parallel
/// multi-megabit products.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 8] =
    [100, 500, 1_000, 5_000, 25_000, 100_000, 500_000, 2_000_000];

/// Histogram buckets: one per finite bound plus the overflow bucket.
pub const BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

/// Number of operand size classes tracked per kernel. Class `c` covers
/// operands whose smaller bit length lies in `[2^c, 2^{c+1})` (class 0
/// additionally covers 0-bit operands), so 32 classes span past 2-Gbit
/// operands — far beyond anything the service multiplies.
pub const SIZE_CLASSES: usize = 32;

/// The size class of an operand pair by its smaller bit length.
#[must_use]
pub fn size_class(bits: u64) -> usize {
    if bits < 2 {
        return 0;
    }
    (bits.ilog2() as usize).min(SIZE_CLASSES - 1)
}

/// Per-(kernel, size-class) `(served count, total latency µs)` cells, in
/// [`crate::kernel::Kernel::ALL`] order; the tuner's raw material.
pub(crate) type ClassStats = [[(u64, u64); SIZE_CLASSES]; 5];

/// Saturating add for counters that accumulate unbounded sums (latency
/// totals): a long chaos run must pin at `u64::MAX` instead of wrapping.
fn saturating_fetch_add(counter: &AtomicU64, value: u64) {
    // fetch_update with a total closure never returns Err.
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |current| {
        Some(current.saturating_add(value))
    });
}

/// A latency histogram over [`LATENCY_BUCKET_BOUNDS_US`]: relaxed atomic
/// buckets and a saturating µs sum; its count is the bucket sum. Serves
/// the service's completion latency and the HTTP per-route durations.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl Histogram {
    /// Count one observation of `us` microseconds.
    pub fn observe(&self, us: u64) {
        let bucket = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.sum_us, us);
    }

    /// The bucket counts (bucket `i` counts observations at or under
    /// [`LATENCY_BUCKET_BOUNDS_US`]`[i]` µs, the last one the rest) and
    /// the sum of all observations, µs.
    #[must_use]
    pub fn read(&self) -> ([u64; BUCKETS], u64) {
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        (buckets, self.sum_us.load(Ordering::Relaxed))
    }
}

/// How [`MetricsSnapshot::merge`] combines one scalar across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Merge {
    /// Saturating sum.
    Sum,
    /// High-water mark: the larger value.
    Max,
    /// Left alone: the router stamps it after merging its shards.
    Router,
}

/// One scalar metric, declared once as a row of [`SCALARS`].
pub struct Scalar {
    /// Its atomic cell, or `None` when the snapshot computes it.
    stat: Option<Stat>,
    /// Reads the value from a snapshot.
    pub get: fn(&MetricsSnapshot) -> u64,
    set: fn(&mut MetricsSnapshot, u64),
    /// How shard snapshots combine.
    merge: Merge,
    /// JSON key, after its section and a dot if it has one.
    json: &'static str,
    /// Prometheus sample name, labels included. Rows of one family are
    /// adjacent and share type and help.
    pub prom: &'static str,
    /// Prometheus type: `counter` or `gauge`.
    pub prom_type: &'static str,
    /// Prometheus help text.
    pub help: &'static str,
}

macro_rules! scalars {
    (@row $stat:expr, $($field:ident).+, $merge:ident, $json:literal, $kind:ident,
     $prom:literal, $help:literal) => {
        Scalar {
            stat: $stat,
            get: |s| s.$($field).+ as u64,
            set: |s, v| s.$($field).+ = v as _,
            merge: Merge::$merge,
            json: $json,
            prom: $prom,
            prom_type: stringify!($kind),
            help: $help,
        }
    };
    (stored { $($stat:ident $($sf:ident).+: $sm:ident, $sj:literal, $sk:ident $sp:literal,
                $sh:literal;)* }
     computed { $($($cf:ident).+: $cm:ident, $cj:literal, $ck:ident $cp:literal,
                  $ch:literal;)* }) => {
        /// A scalar recorded in an atomic cell of [`Metrics`].
        #[derive(Debug, Clone, Copy)]
        pub(crate) enum Stat { $($stat),* }
        const STATS: usize = [$(Stat::$stat),*].len();

        /// Every scalar metric, one row each: first those recorded in
        /// cells, then those the snapshot computes.
        pub static SCALARS: &[Scalar] = &[
            $(scalars!(@row Some(Stat::$stat), $($sf).+, $sm, $sj, $sk, $sp, $sh),)*
            $(scalars!(@row None, $($cf).+, $cm, $cj, $ck, $cp, $ch),)*
        ];
    };
}

// Each row: [cell] snapshot field: merge rule, JSON key, Prometheus type
// and sample, help text. A family's rows are adjacent.
scalars! {
    stored {
        RejectedQueueFull rejected_queue_full: Sum, "rejected_queue_full",
            counter "ft_rejected_queue_full_total",
            "Submissions refused at the queue boundary (backpressure).";
        TimedOut timed_out: Sum, "timed_out", counter "ft_timed_out_total",
            "Accepted requests whose deadline passed in queue.";
        Shed shed: Sum, "shed", counter "ft_shed_total", "Accepted requests shed under load.";
        QueueDepthHighWater queue_depth_high_water: Max, "queue_depth_high_water",
            gauge "ft_queue_depth_high_water",
            "Largest total of queued requests, both lanes summed, observed at submit time.";
        Batches batches: Sum, "batching.batches", counter "ft_batches_total",
            "Dispatch groups run by the lanes, a lone request counting as a group of one.";
        BatchedRequests batched_requests: Sum, "batching.batched_requests",
            counter "ft_batched_requests_total",
            "Requests dispatched in those groups, lone requests included.";
        BatchSizeHighWater batch_size_high_water: Max, "batching.batch_size_high_water",
            gauge "ft_batch_size_high_water", "Largest coalesced batch dispatched.";
        BatchFaults batch_faults: Sum, "batching.batch_faults", counter "ft_batch_faults_total",
            "Whole-batch attempts that fell back to per-element execution.";
        BatchElementRetries batch_element_retries: Sum, "batching.batch_element_retries",
            counter "ft_batch_element_retries_total", "Batch elements re-executed individually.";
        TunerRetunes tuner_retunes: Sum, "tuner_retunes", counter "ft_tuner_retunes_total",
            "Kernel-policy updates published by the adaptive tuner.";
        Retries retries: Sum, "robustness.retries", counter "ft_retries_total",
            "Supervised re-attempts after a failed attempt.";
        Fallbacks fallbacks: Sum, "robustness.fallbacks", counter "ft_fallbacks_total",
            "Attempts executed on a kernel below the selected one.";
        WorkerFaults worker_faults: Sum, "robustness.worker_faults",
            counter "ft_worker_faults_total",
            "Requests that exhausted the retry budget and the degradation ladder.";
        BreakerOpens breaker_opens: Sum, "robustness.breaker_opens",
            counter "ft_breaker_opens_total", "Circuit-breaker transitions into the open state.";
        BreakerCloses breaker_closes: Sum, "robustness.breaker_closes",
            counter "ft_breaker_closes_total", "Circuit-breaker transitions back to closed.";
        ResidueChecks verify.residue_checks: Sum, "verify.residue_checks",
            counter "ftsvc_verify_checks_total{rung=\"residue\"}",
            "Verification-ladder checks executed, by rung.";
        DualChecks verify.dual_checks: Sum, "verify.dual_checks",
            counter "ftsvc_verify_checks_total{rung=\"dual\"}",
            "Verification-ladder checks executed, by rung.";
        RecomputeChecks verify.recompute_checks: Sum, "verify.recompute_checks",
            counter "ftsvc_verify_checks_total{rung=\"recompute\"}",
            "Verification-ladder checks executed, by rung.";
        ResidueFailures verify.residue_failures: Sum, "verify.residue_failures",
            counter "ftsvc_verify_failures_total{rung=\"residue\"}",
            "Verification-ladder checks that flagged a product, by rung.";
        DualFailures verify.dual_failures: Sum, "verify.dual_failures",
            counter "ftsvc_verify_failures_total{rung=\"dual\"}",
            "Verification-ladder checks that flagged a product, by rung.";
        RecomputeFailures verify.recompute_failures: Sum, "verify.recompute_failures",
            counter "ftsvc_verify_failures_total{rung=\"recompute\"}",
            "Verification-ladder checks that flagged a product, by rung.";
        ResidueCostUs verify.residue_cost_us: Sum, "verify.residue_cost_us",
            counter "ftsvc_verify_cost_us_total{rung=\"residue\"}",
            "Microseconds spent in each verification rung.";
        DualCostUs verify.dual_cost_us: Sum, "verify.dual_cost_us",
            counter "ftsvc_verify_cost_us_total{rung=\"dual\"}",
            "Microseconds spent in each verification rung.";
        RecomputeCostUs verify.recompute_cost_us: Sum, "verify.recompute_cost_us",
            counter "ftsvc_verify_cost_us_total{rung=\"recompute\"}",
            "Microseconds spent in each verification rung.";
        DistributedRuns distributed.runs: Sum, "distributed.runs",
            counter "ft_distributed_runs_total",
            "Multiplications completed on the simulated coded machine.";
        DistributedRecoveries distributed.recoveries: Sum, "distributed.recoveries",
            counter "ft_distributed_recoveries_total",
            "Runs that survived at least one simulated processor death.";
        DistributedUnrecoverable distributed.unrecoverable: Sum, "distributed.unrecoverable",
            counter "ft_distributed_unrecoverable_total",
            "Distributed attempts whose faults exceeded the redundancy f.";
        DistributedFalsePositives distributed.false_positives: Sum, "distributed.false_positives",
            counter "ft_distributed_false_positives_total",
            "Live ranks the in-machine detector wrongly declared dead.";
        DistributedDetectRounds distributed.detect_rounds: Sum, "distributed.detect_rounds",
            counter "ft_distributed_detect_rounds_total",
            "Heartbeat detection rounds executed across all runs.";
        DistributedStragglersFlagged distributed.stragglers_flagged: Sum,
            "distributed.stragglers_flagged", counter "ft_distributed_stragglers_flagged_total",
            "Ranks flagged and dropped as stragglers across all runs.";
        DistributedMaxDetectLatency distributed.max_detect_latency_ticks: Max,
            "distributed.max_detect_latency_ticks", gauge "ft_distributed_max_detect_latency_ticks",
            "Worst heartbeat detection latency observed, simulated ticks.";
    }
    // Set by `Metrics::snapshot` from the histogram, its arguments or other
    // cells, and for `router.*` by the router.
    computed {
        served: Sum, "served", counter "ft_requests_served_total",
            "Multiplications completed successfully.";
        queue_depth: Sum, "queue_depth", gauge "ft_queue_depth", "Queued requests at scrape time.";
        plan_cache_hits: Sum, "plan_cache_hits", counter "ft_plan_cache_hits_total",
            "Toom-plan cache hits.";
        plan_cache_misses: Sum, "plan_cache_misses", counter "ft_plan_cache_misses_total",
            "Toom-plan cache misses.";
        residue_checks: Sum, "robustness.residue_checks", counter "ft_residue_checks_total",
            "Products spot-checked by the residue verifier.";
        verification_failures: Sum, "robustness.verification_failures",
            counter "ft_verification_failures_total",
            "Spot-checks that caught an inconsistent product.";
        verify.escalations: Sum, "verify.escalations", counter "ftsvc_verify_escalations_total",
            "Dual-check disagreements escalated to a full recompute.";
        router.shards: Router, "router.shards", gauge "ftsvc_router_shards",
            "Shards in the topology.";
        router.live: Router, "router.live", gauge "ftsvc_router_shards_live",
            "Shards currently routable (not declared dead).";
        router.shard_deaths: Router, "router.shard_deaths",
            counter "ftsvc_router_shard_deaths_total",
            "Shards declared dead by the heartbeat verdict.";
        router.failovers: Router, "router.failovers", counter "ftsvc_router_failovers_total",
            "Requests re-routed to a survivor after their shard died.";
        router.steals: Router, "router.steals", counter "ftsvc_router_steals_total",
            "Requests stolen from a hot shard by an idle sibling.";
        router.rejoins: Router, "router.rejoins", counter "ftsvc_router_rejoins_total",
            "Dead shards re-admitted after their heartbeats resumed.";
        router.monitor_rounds: Router, "router.monitor_rounds",
            counter "ftsvc_router_monitor_rounds_total",
            "Service-level heartbeat detection rounds executed.";
    }
}

/// Shared mutable counters, updated by submitters and lane dispatchers.
pub(crate) struct Metrics {
    stats: [AtomicU64; STATS],
    per_kernel: [AtomicU64; 5],
    latency: Histogram,
    /// Served-request counts per (kernel, operand size class).
    class_served: [[AtomicU64; SIZE_CLASSES]; 5],
    /// Summed completion latency (µs, saturating) per (kernel, class).
    class_total_us: [[AtomicU64; SIZE_CLASSES]; 5],
    injected_faults: [AtomicU64; 5],
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            stats: std::array::from_fn(|_| AtomicU64::new(0)),
            per_kernel: Default::default(),
            latency: Histogram::default(),
            class_served: Default::default(),
            class_total_us: Default::default(),
            injected_faults: Default::default(),
        }
    }
}

impl Metrics {
    /// Add `n` to a counter (saturating).
    pub(crate) fn add(&self, stat: Stat, n: u64) {
        saturating_fetch_add(&self.stats[stat as usize], n);
    }

    /// Raise a high-water mark to at least `value`.
    pub(crate) fn raise(&self, stat: Stat, value: u64) {
        self.stats[stat as usize].fetch_max(value, Ordering::Relaxed);
    }

    pub(crate) fn record_served(&self, kernel: Kernel, bits: u64, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.latency.observe(us);
        self.per_kernel[kernel as usize].fetch_add(1, Ordering::Relaxed);
        let class = size_class(bits);
        self.class_served[kernel as usize][class].fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.class_total_us[kernel as usize][class], us);
    }

    /// A lane dispatched one group of `size` requests as one unit (a
    /// lone request is a group of one).
    pub(crate) fn record_batch(&self, size: usize) {
        self.add(Stat::Batches, 1);
        self.add(Stat::BatchedRequests, size as u64);
        self.raise(Stat::BatchSizeHighWater, size as u64);
    }

    pub(crate) fn record_injected(&self, kind: FaultKind) {
        self.injected_faults[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Per-(kernel, size-class) `(count, total_us)` cells for the tuner.
    pub(crate) fn kernel_class_stats(&self) -> ClassStats {
        std::array::from_fn(|k| {
            std::array::from_fn(|c| {
                (
                    self.class_served[k][c].load(Ordering::Relaxed),
                    self.class_total_us[k][c].load(Ordering::Relaxed),
                )
            })
        })
    }

    pub(crate) fn snapshot(&self, queue_depth: usize, plan_stats: (u64, u64)) -> MetricsSnapshot {
        let (latency_buckets, latency_total_us) = self.latency.read();
        let kernel_classes = Kernel::ALL
            .iter()
            .flat_map(|&k| {
                (0..SIZE_CLASSES).filter_map(move |c| {
                    let count = self.class_served[k as usize][c].load(Ordering::Relaxed);
                    (count > 0).then(|| KernelClassRow {
                        kernel: k.name(),
                        class_bits: 1u64 << c,
                        served: count,
                        total_us: self.class_total_us[k as usize][c].load(Ordering::Relaxed),
                    })
                })
            })
            .collect();
        let mut snap = MetricsSnapshot {
            // Self-consistency: served is *defined* as the bucket sum, so
            // the histogram always accounts for exactly the served
            // requests even when the snapshot races concurrent
            // record_served calls.
            served: latency_buckets.iter().sum(),
            queue_depth,
            latency_buckets,
            latency_total_us,
            kernel_classes,
            plan_cache_hits: plan_stats.0,
            plan_cache_misses: plan_stats.1,
            ..MetricsSnapshot::default()
        };
        let labelled = snap.per_kernel.iter_mut().zip(&self.per_kernel);
        for (cell, count) in
            labelled.chain(snap.injected_faults.iter_mut().zip(&self.injected_faults))
        {
            cell.1 = count.load(Ordering::Relaxed);
        }
        for row in SCALARS {
            if let Some(stat) = row.stat {
                (row.set)(&mut snap, self.stats[stat as usize].load(Ordering::Relaxed));
            }
        }
        // Counters that always move together are derived, not stored.
        snap.residue_checks = snap.verify.residue_checks;
        snap.verification_failures = snap
            .verify
            .residue_failures
            .saturating_add(snap.verify.recompute_failures);
        snap.verify.escalations = snap.verify.dual_failures;
        snap
    }
}

/// One non-empty `(kernel, operand size class)` cell of the served-latency
/// breakdown; the adaptive tuner steers thresholds from these.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct KernelClassRow {
    /// Kernel name ([`Kernel::name`]).
    pub kernel: &'static str,
    /// Lower bound of the class: operands with
    /// `class_bits <= min_bits < 2 * class_bits` land here.
    pub class_bits: u64,
    /// Requests served from this cell.
    pub served: u64,
    /// Summed completion latency of the cell, µs (saturating).
    pub total_us: u64,
}

impl KernelClassRow {
    /// Mean completion latency of the cell in µs.
    #[must_use]
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.served).unwrap_or(0)
    }
}

/// Declares [`MetricsSnapshot`] and its `Default`: every field zero, the
/// labelled families with their labels.
macro_rules! snapshot_struct {
    ($(#[$attr:meta])* pub struct MetricsSnapshot {
        $($(#[$field_attr:meta])* pub $field:ident: $ty:ty,)*
    }) => {
        $(#[$attr])*
        pub struct MetricsSnapshot {
            $($(#[$field_attr])* pub $field: $ty,)*
        }

        impl Default for MetricsSnapshot {
            fn default() -> MetricsSnapshot {
                MetricsSnapshot {
                    per_kernel: Kernel::ALL.map(|k| (k.name(), 0)),
                    injected_faults: FaultKind::ALL.map(|k| (k.name(), 0)),
                    ..MetricsSnapshot { $($field: Default::default()),* }
                }
            }
        }
    };
}

snapshot_struct! {
    /// A point-in-time copy of the service's counters. `Default` is the
    /// all-zero snapshot, its kernel and fault-kind labels filled in — useful
    /// as a merge accumulator and as a fixture for exporters.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize)]
    pub struct MetricsSnapshot {
        /// Requests completed successfully. Always equals the sum of
        /// `latency_buckets` (derived from the histogram, see the module docs
        /// on snapshot consistency).
        pub served: u64,
        /// Submissions refused at the queue boundary (backpressure).
        pub rejected_queue_full: u64,
        /// Accepted requests rejected because their deadline passed in queue.
        pub timed_out: u64,
        /// Accepted requests shed under load (queue age exceeded the bound).
        pub shed: u64,
        /// Completions per kernel, keyed by [`Kernel::name`]. May differ from
        /// `served` by requests in flight at snapshot time.
        pub per_kernel: [(&'static str, u64); 5],
        /// Total queued requests at snapshot time.
        pub queue_depth: usize,
        /// Largest total of queued requests, both lanes summed, observed at
        /// submit time.
        pub queue_depth_high_water: usize,
        /// Completion-latency histogram; bucket `i` counts requests at or
        /// under [`LATENCY_BUCKET_BOUNDS_US`]`[i]` µs, with one overflow
        /// bucket at the end.
        pub latency_buckets: [u64; BUCKETS],
        /// Sum of all completion latencies, µs (saturating at `u64::MAX`).
        pub latency_total_us: u64,
        /// Non-empty per-(kernel, size-class) latency cells.
        pub kernel_classes: Vec<KernelClassRow>,
        /// Dispatch groups run by the lanes; a lone request counts as a
        /// group of one.
        pub batches: u64,
        /// Requests dispatched in those groups, lone requests included.
        pub batched_requests: u64,
        /// Largest coalesced batch dispatched.
        pub batch_size_high_water: usize,
        /// Whole-batch attempts that failed and fell back to per-element
        /// supervised execution.
        pub batch_faults: u64,
        /// Batch elements re-executed individually (verification failure or
        /// whole-batch fault).
        pub batch_element_retries: u64,
        /// Kernel-policy updates published by the adaptive tuner.
        pub tuner_retunes: u64,
        /// Toom-plan cache hits.
        pub plan_cache_hits: u64,
        /// Toom-plan cache misses.
        pub plan_cache_misses: u64,
        /// Supervised re-attempts after a failed attempt (hard or soft fault).
        pub retries: u64,
        /// Attempts executed on a kernel below the selected one (breaker
        /// diversion or forced degradation).
        pub fallbacks: u64,
        /// Requests that exhausted the retry budget and the whole degradation
        /// ladder ([`crate::MulError::WorkerFault`]).
        pub worker_faults: u64,
        /// Products spot-checked by the residue verifier.
        pub residue_checks: u64,
        /// Caught soft faults across the whole verification ladder: residue
        /// mismatches plus recompute-confirmed dual-check disagreements.
        pub verification_failures: u64,
        /// Per-rung counters and costs of the verification ladder
        /// (`residue → dual-algorithm → recompute`).
        pub verify: VerifySnapshot,
        /// Circuit-breaker transitions into the open state.
        pub breaker_opens: u64,
        /// Circuit-breaker transitions back to closed (successful probe).
        pub breaker_closes: u64,
        /// Chaos-injected faults by kind, keyed by
        /// [`crate::chaos::FaultKind::name`].
        pub injected_faults: [(&'static str, u64); 5],
        /// Robustness counters of the distributed backend (the simulated
        /// coded machine with heartbeat failure detection).
        pub distributed: DistributedSnapshot,
        /// Topology counters of the sharded router (zero when the service
        /// runs unsharded). Filled in by [`crate::router::Router`] when it
        /// merges per-shard snapshots.
        pub router: RouterSnapshot,
    }
}

/// Per-rung counters of the verification ladder (see `crate::verify`):
/// how often each rung ran, what it caught, and what it cost. Rung
/// semantics: `residue` is the `O(n)` spot-check on every product,
/// `dual` the sampled structurally-distinct recomputation, `recompute`
/// the full clean re-execution that localizes a dual-check disagreement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct VerifySnapshot {
    /// Residue spot-checks performed (mirrors the top-level counter).
    pub residue_checks: u64,
    /// Residue mismatches (caught soft faults; the element was retried).
    pub residue_failures: u64,
    /// Total µs spent in residue checks (saturating).
    pub residue_cost_us: u64,
    /// Sampled dual-algorithm checks performed.
    pub dual_checks: u64,
    /// Dual checks where the two algorithms disagreed.
    pub dual_failures: u64,
    /// Total µs spent in dual-algorithm recomputations (saturating).
    pub dual_cost_us: u64,
    /// Full recomputes triggered by dual-check disagreements.
    pub recompute_checks: u64,
    /// Recomputes that confirmed the served-path product was corrupt
    /// (2-of-3 vote against the original).
    pub recompute_failures: u64,
    /// Total µs spent in localization recomputes (saturating).
    pub recompute_cost_us: u64,
    /// Ladder escalations: dual-check disagreements promoted to a full
    /// recompute.
    pub escalations: u64,
}

/// Counters of the distributed backend: runs on the simulated coded
/// machine, detector-driven recoveries, and fallbacks past redundancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DistributedSnapshot {
    /// Multiplications completed on the simulated coded machine.
    pub runs: u64,
    /// Runs that survived at least one simulated processor death (the
    /// heartbeat detector found the faults; interpolation recovered the
    /// product from the surviving columns).
    pub recoveries: u64,
    /// Distributed attempts whose injected faults exceeded the code's
    /// redundancy `f` — each fell back down the local kernel ladder.
    pub unrecoverable: u64,
    /// Live ranks the in-machine detector wrongly declared dead.
    pub false_positives: u64,
    /// Heartbeat detection rounds executed across all runs.
    pub detect_rounds: u64,
    /// Ranks flagged (and dropped) as stragglers across all runs.
    pub stragglers_flagged: u64,
    /// Worst heartbeat detection latency observed in any run, in
    /// simulated ticks between a victim's last heartbeat and the
    /// detector's dead verdict.
    pub max_detect_latency_ticks: u64,
}

/// Topology counters of the sharded service router: shard liveness as
/// seen by the service-level heartbeat detector, plus the failover and
/// work-stealing traffic it generated. All-zero when unsharded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RouterSnapshot {
    /// Shards in the topology.
    pub shards: u64,
    /// Shards the heartbeat detector currently considers live.
    pub live: u64,
    /// Shard deaths declared by the heartbeat verdict (kills and stalls
    /// past the deadline budget both count).
    pub shard_deaths: u64,
    /// Requests re-routed from a dead shard to a survivor.
    pub failovers: u64,
    /// Requests redirected from a hot shard's queue to an idle sibling.
    pub steals: u64,
    /// Dead shards whose heartbeats resumed and were re-admitted.
    pub rejoins: u64,
    /// Heartbeat monitor rounds executed.
    pub monitor_rounds: u64,
}

impl MetricsSnapshot {
    /// Fold another shard's snapshot into this one: each scalar by its
    /// declared rule (saturating sum, or max for high-water marks),
    /// histograms and labelled counters by summing, per-cell kernel stats
    /// by (kernel, class). `served` stays the bucket sum by construction.
    /// The `router` section is left untouched — the router owns it and
    /// stamps it after merging its shards.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for row in SCALARS {
            let (mine, theirs) = ((row.get)(self), (row.get)(other));
            match row.merge {
                Merge::Sum => (row.set)(self, mine.saturating_add(theirs)),
                Merge::Max => (row.set)(self, mine.max(theirs)),
                Merge::Router => {}
            }
        }
        let labelled = self.per_kernel.iter_mut().zip(&other.per_kernel);
        for (mine, theirs) in
            labelled.chain(self.injected_faults.iter_mut().zip(&other.injected_faults))
        {
            mine.1 = mine.1.saturating_add(theirs.1);
        }
        for (mine, theirs) in self.latency_buckets.iter_mut().zip(&other.latency_buckets) {
            *mine = mine.saturating_add(*theirs);
        }
        self.served = self.latency_buckets.iter().sum();
        self.latency_total_us = self.latency_total_us.saturating_add(other.latency_total_us);
        for row in &other.kernel_classes {
            match self
                .kernel_classes
                .iter_mut()
                .find(|r| r.kernel == row.kernel && r.class_bits == row.class_bits)
            {
                Some(cell) => {
                    cell.served += row.served;
                    cell.total_us = cell.total_us.saturating_add(row.total_us);
                }
                None => self.kernel_classes.push(row.clone()),
            }
        }
    }

    /// Mean completion latency in µs (0 when nothing was served).
    #[must_use]
    pub fn mean_latency_us(&self) -> u64 {
        self.latency_total_us.checked_div(self.served).unwrap_or(0)
    }

    /// Estimated completion-latency quantile in µs, by linear
    /// interpolation inside the histogram bucket holding the target rank
    /// (the same estimator Prometheus's `histogram_quantile` applies to
    /// these buckets). Ranks landing in the unbounded overflow bucket
    /// report the last finite bound — the histogram cannot resolve
    /// beyond it. Returns 0 when nothing was served; `q` is clamped to
    /// `[0, 1]`.
    #[must_use]
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        if self.served == 0 {
            return 0;
        }
        let last_bound = LATENCY_BUCKET_BOUNDS_US[LATENCY_BUCKET_BOUNDS_US.len() - 1];
        let target = q.clamp(0.0, 1.0) * self.served as f64;
        let mut cumulative = 0u64;
        for (i, &count) in self.latency_buckets.iter().enumerate() {
            let below = cumulative as f64;
            cumulative += count;
            if (cumulative as f64) < target || count == 0 {
                continue;
            }
            let Some(&upper) = LATENCY_BUCKET_BOUNDS_US.get(i) else {
                return last_bound; // overflow bucket: unresolvable
            };
            let lower = i.checked_sub(1).map_or(0, |p| LATENCY_BUCKET_BOUNDS_US[p]);
            let fraction = ((target - below) / count as f64).clamp(0.0, 1.0);
            return lower + ((upper - lower) as f64 * fraction).round() as u64;
        }
        last_bound
    }

    /// Median completion latency (µs), histogram-estimated.
    #[must_use]
    pub fn p50_latency_us(&self) -> u64 {
        self.latency_quantile_us(0.50)
    }

    /// 99th-percentile completion latency (µs), histogram-estimated.
    #[must_use]
    pub fn p99_latency_us(&self) -> u64 {
        self.latency_quantile_us(0.99)
    }

    /// 99.9th-percentile completion latency (µs), histogram-estimated.
    #[must_use]
    pub fn p999_latency_us(&self) -> u64 {
        self.latency_quantile_us(0.999)
    }

    /// Serialize to compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let num = |n: u64| Json::Num(i128::from(n));
        let labelled = |cells: &[(&str, u64)]| {
            Json::Obj(
                cells
                    .iter()
                    .map(|&(k, n)| (k.to_string(), num(n)))
                    .collect(),
            )
        };
        let buckets = self.latency_buckets.iter().enumerate().map(|(i, &count)| {
            let le = LATENCY_BUCKET_BOUNDS_US
                .get(i)
                .map_or(Json::Null, |&b| num(b));
            obj([("le_us", le), ("count", num(count))])
        });
        let classes = self.kernel_classes.iter().map(|row| {
            obj([
                ("kernel", Json::Str(row.kernel.to_string())),
                ("class_bits", num(row.class_bits)),
                ("served", num(row.served)),
                ("mean_us", num(row.mean_us())),
            ])
        });
        let quantiles = [("p50_us", 0.5), ("p99_us", 0.99), ("p999_us", 0.999)]
            .map(|(key, q)| (key, num(self.latency_quantile_us(q))));
        let scalars = SCALARS.iter().map(|row| (row.json, num((row.get)(self))));
        let mut sections = BTreeMap::<&str, BTreeMap<String, Json>>::new();
        for (path, value) in scalars.chain([
            (
                "robustness.injected_faults",
                labelled(&self.injected_faults),
            ),
            ("per_kernel", labelled(&self.per_kernel)),
            ("latency_buckets", Json::Arr(buckets.collect())),
            ("mean_latency_us", num(self.mean_latency_us())),
            ("latency_quantiles", obj(quantiles)),
            ("size_classes", Json::Arr(classes.collect())),
        ]) {
            let (section, key) = path.split_once('.').unwrap_or(("", path));
            sections
                .entry(section)
                .or_default()
                .insert(key.to_string(), value);
        }
        let mut doc = sections.remove("").unwrap_or_default();
        doc.extend(
            sections
                .into_iter()
                .map(|(name, map)| (name.to_string(), Json::Obj(map))),
        );
        Json::Obj(doc).dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_land_in_the_snapshot() {
        let m = Metrics::default();
        m.record_served(Kernel::Schoolbook, 2_000, Duration::from_micros(80));
        m.record_served(Kernel::ParToom, 200_000, Duration::from_millis(300));
        m.add(Stat::RejectedQueueFull, 1);
        m.add(Stat::TimedOut, 1);
        m.add(Stat::Shed, 1);
        m.raise(Stat::QueueDepthHighWater, 5);
        m.raise(Stat::QueueDepthHighWater, 3);
        m.record_batch(7);
        m.record_batch(3);
        m.add(Stat::BatchFaults, 1);
        m.add(Stat::BatchElementRetries, 1);
        m.add(Stat::TunerRetunes, 1);
        m.add(Stat::Retries, 1);
        m.add(Stat::Retries, 1);
        m.add(Stat::Fallbacks, 1);
        m.add(Stat::WorkerFaults, 1);
        // Two residue checks (3 µs, 2 µs), the second failing; two dual
        // checks (40 µs, 55 µs), the second disagreeing; two recomputes
        // (200 µs, 100 µs), the first confirming a corrupt product.
        for (checks, failures, cost, us, failed) in [
            (
                Stat::ResidueChecks,
                Stat::ResidueFailures,
                Stat::ResidueCostUs,
                [3, 2],
                [false, true],
            ),
            (
                Stat::DualChecks,
                Stat::DualFailures,
                Stat::DualCostUs,
                [40, 55],
                [false, true],
            ),
            (
                Stat::RecomputeChecks,
                Stat::RecomputeFailures,
                Stat::RecomputeCostUs,
                [200, 100],
                [true, false],
            ),
        ] {
            for (us, failed) in us.into_iter().zip(failed) {
                m.add(checks, 1);
                m.add(cost, us);
                if failed {
                    m.add(failures, 1);
                }
            }
        }
        m.add(Stat::BreakerOpens, 1);
        m.add(Stat::BreakerCloses, 1);
        m.record_injected(FaultKind::Corrupt);
        let s = m.snapshot(2, (10, 1));
        assert_eq!(s.served, 2);
        assert_eq!(s.rejected_queue_full, 1);
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_depth_high_water, 5);
        assert_eq!(s.per_kernel[0], ("schoolbook", 1));
        assert_eq!(s.per_kernel[2], ("par_toom", 1));
        assert_eq!(s.latency_buckets[0], 1); // 80 µs ≤ 100 µs
        assert_eq!(s.latency_buckets.iter().sum::<u64>(), 2);
        assert_eq!(s.batches, 2);
        assert_eq!(s.batched_requests, 10);
        assert_eq!(s.batch_size_high_water, 7);
        assert_eq!(s.batch_faults, 1);
        assert_eq!(s.batch_element_retries, 1);
        assert_eq!(s.tuner_retunes, 1);
        assert_eq!(s.plan_cache_hits, 10);
        assert_eq!(s.retries, 2);
        assert_eq!(s.fallbacks, 1);
        assert_eq!(s.worker_faults, 1);
        assert_eq!(s.residue_checks, 2);
        // Legacy total: 1 residue failure + 1 recompute-confirmed corruption.
        assert_eq!(s.verification_failures, 2);
        assert_eq!(
            s.verify,
            VerifySnapshot {
                residue_checks: 2,
                residue_failures: 1,
                residue_cost_us: 5,
                dual_checks: 2,
                dual_failures: 1,
                dual_cost_us: 95,
                recompute_checks: 2,
                recompute_failures: 1,
                recompute_cost_us: 300,
                escalations: 1,
            }
        );
        assert_eq!(s.breaker_opens, 1);
        assert_eq!(s.breaker_closes, 1);
        assert_eq!(
            s.injected_faults[FaultKind::Corrupt as usize],
            ("corrupt", 1)
        );
        assert_eq!(s.injected_faults[FaultKind::Panic as usize], ("panic", 0));
        assert_eq!(s.distributed, DistributedSnapshot::default());
        // Size-class cells: schoolbook at 2 kbit → class 2^10, par toom at
        // 200 kbit → class 2^17.
        assert_eq!(
            s.kernel_classes,
            vec![
                KernelClassRow {
                    kernel: "schoolbook",
                    class_bits: 1 << 10,
                    served: 1,
                    total_us: 80,
                },
                KernelClassRow {
                    kernel: "par_toom",
                    class_bits: 1 << 17,
                    served: 1,
                    total_us: 300_000,
                },
            ]
        );
    }

    #[test]
    fn merged_snapshots_sum_counters_and_stay_self_consistent() {
        let a = Metrics::default();
        a.record_served(Kernel::Schoolbook, 2_000, Duration::from_micros(80));
        a.record_served(Kernel::ParToom, 200_000, Duration::from_millis(3));
        a.add(Stat::RejectedQueueFull, 1);
        a.add(Stat::Retries, 1);
        a.raise(Stat::QueueDepthHighWater, 5);
        a.record_injected(FaultKind::ShardKill);
        let b = Metrics::default();
        b.record_served(Kernel::Schoolbook, 2_000, Duration::from_micros(90));
        b.add(Stat::ResidueChecks, 1);
        b.add(Stat::ResidueCostUs, 3);
        b.add(Stat::ResidueFailures, 1);
        b.raise(Stat::QueueDepthHighWater, 9);
        // One distributed run that recovered a death over two detection
        // rounds, detected after 7 ticks.
        b.add(Stat::DistributedRuns, 1);
        b.add(Stat::DistributedRecoveries, 1);
        b.add(Stat::DistributedDetectRounds, 2);
        b.raise(Stat::DistributedMaxDetectLatency, 7);
        let mut merged = a.snapshot(2, (4, 1));
        merged.merge(&b.snapshot(3, (0, 2)));
        assert_eq!(merged.served, 3);
        assert_eq!(
            merged.served,
            merged.latency_buckets.iter().sum::<u64>(),
            "merge must preserve the served == bucket-sum invariant"
        );
        assert_eq!(merged.rejected_queue_full, 1);
        assert_eq!(merged.retries, 1);
        assert_eq!(merged.queue_depth, 5, "queue depths sum");
        assert_eq!(merged.queue_depth_high_water, 9, "high waters take max");
        assert_eq!(merged.plan_cache_hits, 4);
        assert_eq!(merged.plan_cache_misses, 3);
        assert_eq!(merged.verify.residue_failures, 1);
        assert_eq!(merged.verification_failures, 1);
        assert_eq!(merged.distributed.recoveries, 1);
        assert_eq!(merged.distributed.max_detect_latency_ticks, 7);
        assert_eq!(
            merged.injected_faults[FaultKind::ShardKill as usize],
            ("shard_kill", 1)
        );
        // The shared (schoolbook, 2^10) cell merged; par_toom kept its own.
        let school = merged
            .kernel_classes
            .iter()
            .find(|r| r.kernel == "schoolbook")
            .unwrap();
        assert_eq!(school.served, 2);
        assert_eq!(school.total_us, 170);
        assert_eq!(merged.kernel_classes.len(), 2);
        assert_eq!(merged.per_kernel[0], ("schoolbook", 2));
        // A Default accumulator carries the labels itself.
        let mut acc = MetricsSnapshot::default();
        acc.merge(&merged);
        assert_eq!(acc.per_kernel[0], ("schoolbook", 2));
        assert_eq!(acc.injected_faults[3], ("shard_kill", 1));
        assert_eq!(acc.served, 3);
    }

    /// The exposition writes one header per run of rows, so a family's
    /// rows must be adjacent and agree; JSON keys must not collide.
    #[test]
    fn scalar_rows_keep_families_adjacent_and_keys_unique() {
        let family = |row: &Scalar| row.prom.split('{').next().unwrap_or(row.prom);
        let mut keys = std::collections::BTreeSet::new();
        let mut families = std::collections::BTreeSet::new();
        for (i, row) in SCALARS.iter().enumerate() {
            assert!(keys.insert(row.json), "JSON key {} twice", row.json);
            match i.checked_sub(1).map(|p| &SCALARS[p]) {
                Some(prev) if family(prev) == family(row) => {
                    assert_eq!((prev.prom_type, prev.help), (row.prom_type, row.help));
                }
                _ => assert!(families.insert(family(row)), "{} split", row.prom),
            }
        }
    }

    #[test]
    fn size_classes_bucket_by_log2() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 1);
        assert_eq!(size_class(4), 2);
        assert_eq!(size_class(1_023), 9);
        assert_eq!(size_class(1_024), 10);
        assert_eq!(size_class(u64::MAX), SIZE_CLASSES - 1);
    }

    #[test]
    fn latency_totals_saturate_instead_of_wrapping() {
        let m = Metrics::default();
        // Duration::MAX truncates to u64::MAX µs; a second huge latency
        // must pin the accumulators at the ceiling, not wrap past zero.
        m.record_served(Kernel::Schoolbook, 1_000, Duration::MAX);
        m.record_served(Kernel::Schoolbook, 1_000, Duration::MAX);
        m.record_served(Kernel::Schoolbook, 1_000, Duration::from_micros(7));
        let s = m.snapshot(0, (0, 0));
        assert_eq!(s.served, 3);
        assert_eq!(s.latency_total_us, u64::MAX);
        assert_eq!(s.kernel_classes[0].total_us, u64::MAX);
        // The mean stays a (meaningless but finite) in-range value.
        assert!(s.mean_latency_us() <= u64::MAX / 3 + 1);
    }

    /// Satellite regression: a snapshot taken while `record_served` runs
    /// concurrently must never report a histogram whose bucket sum
    /// disagrees with `served` (the torn-snapshot bug: independently
    /// loaded relaxed counters).
    #[test]
    fn concurrent_snapshots_are_self_consistent() {
        let m = Arc::new(Metrics::default());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let m = m.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Spread latencies across buckets and kernels.
                        let us = [40, 700, 3_000, 60_000][(i % 4) as usize];
                        let kernel = Kernel::ALL[((i + w) % 3) as usize];
                        m.record_served(kernel, 1_000 << (i % 5), Duration::from_micros(us));
                        i += 1;
                    }
                })
            })
            .collect();
        let mut last_served = 0;
        for _ in 0..500 {
            let s = m.snapshot(0, (0, 0));
            assert_eq!(
                s.served,
                s.latency_buckets.iter().sum::<u64>(),
                "torn snapshot: served disagrees with its own histogram"
            );
            assert!(s.served >= last_served, "served must be monotone");
            last_served = s.served;
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        // Quiesced: every per-request counter agrees exactly.
        let s = m.snapshot(0, (0, 0));
        assert_eq!(s.per_kernel.iter().map(|&(_, n)| n).sum::<u64>(), s.served);
        assert_eq!(
            s.kernel_classes.iter().map(|r| r.served).sum::<u64>(),
            s.served
        );
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let empty = Metrics::default().snapshot(0, (0, 0));
        assert_eq!(empty.p50_latency_us(), 0, "no data, no quantile");

        let m = Metrics::default();
        // 90 requests at ≤100 µs, 10 in the (100, 500] µs bucket.
        for i in 0..90 {
            m.record_served(Kernel::Schoolbook, 1_000, Duration::from_micros(i % 100));
        }
        for _ in 0..10 {
            m.record_served(Kernel::Schoolbook, 1_000, Duration::from_micros(300));
        }
        let s = m.snapshot(0, (0, 0));
        // p50: rank 50 of 90 in the first bucket → 100 µs × 50/90 ≈ 56.
        assert_eq!(s.p50_latency_us(), 56);
        // p99: rank 99 → 9 of 10 into the second bucket → 100 + 400 × 0.9.
        assert_eq!(s.p99_latency_us(), 460);
        // p999: rank 99.9 → 100 + 400 × 0.99.
        assert_eq!(s.p999_latency_us(), 496);
        // Quantiles are monotone in q and clamp outside [0, 1].
        assert!(s.latency_quantile_us(0.0) <= s.p50_latency_us());
        assert_eq!(s.latency_quantile_us(1.0), s.latency_quantile_us(7.5));

        // Everything in the overflow bucket pins at the last finite bound.
        let m = Metrics::default();
        m.record_served(Kernel::Schoolbook, 1_000, Duration::from_secs(10));
        let s = m.snapshot(0, (0, 0));
        assert_eq!(s.p50_latency_us(), 2_000_000);
    }

    #[test]
    fn snapshot_serializes_to_parseable_json() {
        let m = Metrics::default();
        m.record_served(Kernel::SeqToom, 50_000, Duration::from_micros(700));
        m.record_batch(4);
        // One clean distributed run, one that recovered a death after a
        // 9-tick detection, one unrecoverable fallback.
        m.add(Stat::DistributedRuns, 2);
        m.add(Stat::DistributedRecoveries, 1);
        m.add(Stat::DistributedDetectRounds, 2);
        m.add(Stat::DistributedStragglersFlagged, 1);
        m.raise(Stat::DistributedMaxDetectLatency, 0);
        m.raise(Stat::DistributedMaxDetectLatency, 9);
        m.add(Stat::DistributedUnrecoverable, 1);
        let s = m.snapshot(0, (0, 0));
        let doc = crate::json::Json::parse(&s.to_json()).unwrap();
        assert_eq!(doc.get("served").unwrap().as_u64(), Some(1));
        assert_eq!(
            doc.get("per_kernel")
                .unwrap()
                .get("seq_toom")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert!(
            matches!(doc.get("latency_buckets"), Some(crate::json::Json::Arr(v)) if v.len() == 9)
        );
        let quantiles = doc.get("latency_quantiles").unwrap();
        assert_eq!(
            quantiles.get("p50_us").unwrap().as_u64(),
            Some(s.p50_latency_us())
        );
        assert!(quantiles.get("p999_us").unwrap().as_u64().is_some());
        let batching = doc.get("batching").unwrap();
        assert_eq!(batching.get("batches").unwrap().as_u64(), Some(1));
        assert_eq!(batching.get("batched_requests").unwrap().as_u64(), Some(4));
        assert!(matches!(doc.get("size_classes"), Some(crate::json::Json::Arr(v)) if v.len() == 1));
        let robustness = doc.get("robustness").unwrap();
        assert_eq!(robustness.get("retries").unwrap().as_u64(), Some(0));
        let verify = doc.get("verify").unwrap();
        for key in [
            "residue_checks",
            "residue_failures",
            "residue_cost_us",
            "dual_checks",
            "dual_failures",
            "dual_cost_us",
            "recompute_checks",
            "recompute_failures",
            "recompute_cost_us",
            "escalations",
        ] {
            assert_eq!(verify.get(key).unwrap().as_u64(), Some(0), "{key}");
        }
        let distributed = doc.get("distributed").unwrap();
        assert_eq!(distributed.get("runs").unwrap().as_u64(), Some(2));
        assert_eq!(distributed.get("recoveries").unwrap().as_u64(), Some(1));
        assert_eq!(distributed.get("unrecoverable").unwrap().as_u64(), Some(1));
        assert_eq!(
            distributed
                .get("max_detect_latency_ticks")
                .unwrap()
                .as_u64(),
            Some(9)
        );
        assert_eq!(
            robustness
                .get("injected_faults")
                .unwrap()
                .get("panic")
                .unwrap()
                .as_u64(),
            Some(0)
        );
    }
}
