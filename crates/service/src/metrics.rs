//! Service metrics: lock-free counters plus a JSON-serializable snapshot.
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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Upper bounds (µs) of the latency histogram buckets; the last bucket is
/// unbounded. Spans schoolbook-on-tiny-operands through parallel
/// multi-megabit products.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 8] =
    [100, 500, 1_000, 5_000, 25_000, 100_000, 500_000, 2_000_000];

const BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

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

/// Shared mutable counters, updated by submitters and lane dispatchers.
#[derive(Default)]
pub(crate) struct Metrics {
    rejected_queue_full: AtomicU64,
    timed_out: AtomicU64,
    shed: AtomicU64,
    per_kernel: [AtomicU64; 5],
    queue_depth_high_water: AtomicUsize,
    latency_buckets: [AtomicU64; BUCKETS],
    latency_total_us: AtomicU64,
    /// Served-request counts per (kernel, operand size class).
    class_served: [[AtomicU64; SIZE_CLASSES]; 5],
    /// Summed completion latency (µs, saturating) per (kernel, class).
    class_total_us: [[AtomicU64; SIZE_CLASSES]; 5],
    batches: AtomicU64,
    batched_requests: AtomicU64,
    batch_size_high_water: AtomicUsize,
    batch_faults: AtomicU64,
    batch_element_retries: AtomicU64,
    tuner_retunes: AtomicU64,
    retries: AtomicU64,
    fallbacks: AtomicU64,
    worker_faults: AtomicU64,
    residue_checks: AtomicU64,
    verification_failures: AtomicU64,
    verify_residue_failures: AtomicU64,
    verify_residue_cost_us: AtomicU64,
    verify_dual_checks: AtomicU64,
    verify_dual_failures: AtomicU64,
    verify_dual_cost_us: AtomicU64,
    verify_recompute_checks: AtomicU64,
    verify_recompute_failures: AtomicU64,
    verify_recompute_cost_us: AtomicU64,
    verify_escalations: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_closes: AtomicU64,
    injected_faults: [AtomicU64; 5],
    distributed_runs: AtomicU64,
    distributed_recoveries: AtomicU64,
    distributed_unrecoverable: AtomicU64,
    distributed_false_positives: AtomicU64,
    distributed_detect_rounds: AtomicU64,
    distributed_stragglers_flagged: AtomicU64,
    distributed_max_detect_latency: AtomicU64,
}

impl Metrics {
    pub(crate) fn record_served(&self, kernel: Kernel, bits: u64, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKETS - 1);
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.per_kernel[kernel as usize].fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.latency_total_us, us);
        let class = size_class(bits);
        self.class_served[kernel as usize][class].fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.class_total_us[kernel as usize][class], us);
    }

    pub(crate) fn record_queue_full(&self) {
        self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn observe_queue_depth(&self, depth: usize) {
        self.queue_depth_high_water
            .fetch_max(depth, Ordering::Relaxed);
    }

    /// A coalesced batch of `size` requests was dispatched as one unit.
    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.batch_size_high_water
            .fetch_max(size, Ordering::Relaxed);
    }

    /// A whole-batch attempt failed (hard fault); its elements were
    /// re-executed individually.
    pub(crate) fn record_batch_fault(&self) {
        self.batch_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// One batch element was retried on the individual supervised path.
    pub(crate) fn record_batch_element_retry(&self) {
        self.batch_element_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// The adaptive tuner published a new kernel policy.
    pub(crate) fn record_retune(&self) {
        self.tuner_retunes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_worker_fault(&self) {
        self.worker_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Rung 1 of the verification ladder: one residue spot-check took
    /// `us` µs; `ok` is whether the product passed. A failure also counts
    /// toward the legacy `verification_failures` total.
    pub(crate) fn record_residue_verify(&self, us: u64, ok: bool) {
        self.residue_checks.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.verify_residue_cost_us, us);
        if !ok {
            self.verify_residue_failures.fetch_add(1, Ordering::Relaxed);
            self.verification_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rung 2: one sampled dual-algorithm recomputation took `us` µs;
    /// `mismatch` is whether the two algorithms disagreed. A disagreement
    /// escalates to rung 3 and is counted as an escalation here.
    pub(crate) fn record_dual_check(&self, us: u64, mismatch: bool) {
        self.verify_dual_checks.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.verify_dual_cost_us, us);
        if mismatch {
            self.verify_dual_failures.fetch_add(1, Ordering::Relaxed);
            self.verify_escalations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rung 3: one full clean recompute (mismatch localization) took `us`
    /// µs; `original_corrupt` is whether it confirmed the served-path
    /// product was the corrupt one (that also counts toward the legacy
    /// `verification_failures` total — a caught soft fault).
    pub(crate) fn record_recompute(&self, us: u64, original_corrupt: bool) {
        self.verify_recompute_checks.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.verify_recompute_cost_us, us);
        if original_corrupt {
            self.verify_recompute_failures
                .fetch_add(1, Ordering::Relaxed);
            self.verification_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_breaker_open(&self) {
        self.breaker_opens.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_breaker_close(&self) {
        self.breaker_closes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_injected(&self, kind: FaultKind) {
        self.injected_faults[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// One completed run on the simulated coded machine, with the totals
    /// of its run report: simulated deaths the heartbeat detector had to
    /// find, detection rounds, detector false positives, straggler flags,
    /// and the run's worst detection latency in simulated ticks.
    pub(crate) fn record_distributed_run(
        &self,
        deaths: u64,
        detect_rounds: u64,
        false_positives: u64,
        stragglers_flagged: u64,
        max_detect_latency_ticks: u64,
    ) {
        self.distributed_runs.fetch_add(1, Ordering::Relaxed);
        if deaths > 0 {
            self.distributed_recoveries.fetch_add(1, Ordering::Relaxed);
        }
        self.distributed_detect_rounds
            .fetch_add(detect_rounds, Ordering::Relaxed);
        self.distributed_false_positives
            .fetch_add(false_positives, Ordering::Relaxed);
        self.distributed_stragglers_flagged
            .fetch_add(stragglers_flagged, Ordering::Relaxed);
        self.distributed_max_detect_latency
            .fetch_max(max_detect_latency_ticks, Ordering::Relaxed);
    }

    /// A distributed attempt whose injected faults exceeded the code's
    /// redundancy; the request fell back down the local kernel ladder.
    pub(crate) fn record_distributed_unrecoverable(&self) {
        self.distributed_unrecoverable
            .fetch_add(1, Ordering::Relaxed);
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
        let latency_buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.latency_buckets[i].load(Ordering::Relaxed));
        // Self-consistency: served is *defined* as the bucket sum, so the
        // histogram always accounts for exactly the served requests even
        // when the snapshot races concurrent record_served calls.
        let served = latency_buckets.iter().sum();
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
        MetricsSnapshot {
            served,
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            per_kernel: Kernel::ALL.map(|k| {
                (
                    k.name(),
                    self.per_kernel[k as usize].load(Ordering::Relaxed),
                )
            }),
            queue_depth,
            queue_depth_high_water: self.queue_depth_high_water.load(Ordering::Relaxed),
            latency_buckets,
            latency_total_us: self.latency_total_us.load(Ordering::Relaxed),
            kernel_classes,
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            batch_size_high_water: self.batch_size_high_water.load(Ordering::Relaxed),
            batch_faults: self.batch_faults.load(Ordering::Relaxed),
            batch_element_retries: self.batch_element_retries.load(Ordering::Relaxed),
            tuner_retunes: self.tuner_retunes.load(Ordering::Relaxed),
            plan_cache_hits: plan_stats.0,
            plan_cache_misses: plan_stats.1,
            retries: self.retries.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            worker_faults: self.worker_faults.load(Ordering::Relaxed),
            residue_checks: self.residue_checks.load(Ordering::Relaxed),
            verification_failures: self.verification_failures.load(Ordering::Relaxed),
            verify: VerifySnapshot {
                residue_checks: self.residue_checks.load(Ordering::Relaxed),
                residue_failures: self.verify_residue_failures.load(Ordering::Relaxed),
                residue_cost_us: self.verify_residue_cost_us.load(Ordering::Relaxed),
                dual_checks: self.verify_dual_checks.load(Ordering::Relaxed),
                dual_failures: self.verify_dual_failures.load(Ordering::Relaxed),
                dual_cost_us: self.verify_dual_cost_us.load(Ordering::Relaxed),
                recompute_checks: self.verify_recompute_checks.load(Ordering::Relaxed),
                recompute_failures: self.verify_recompute_failures.load(Ordering::Relaxed),
                recompute_cost_us: self.verify_recompute_cost_us.load(Ordering::Relaxed),
                escalations: self.verify_escalations.load(Ordering::Relaxed),
            },
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            breaker_closes: self.breaker_closes.load(Ordering::Relaxed),
            injected_faults: FaultKind::ALL.map(|k| {
                (
                    k.name(),
                    self.injected_faults[k as usize].load(Ordering::Relaxed),
                )
            }),
            distributed: DistributedSnapshot {
                runs: self.distributed_runs.load(Ordering::Relaxed),
                recoveries: self.distributed_recoveries.load(Ordering::Relaxed),
                unrecoverable: self.distributed_unrecoverable.load(Ordering::Relaxed),
                false_positives: self.distributed_false_positives.load(Ordering::Relaxed),
                detect_rounds: self.distributed_detect_rounds.load(Ordering::Relaxed),
                stragglers_flagged: self.distributed_stragglers_flagged.load(Ordering::Relaxed),
                max_detect_latency_ticks: self
                    .distributed_max_detect_latency
                    .load(Ordering::Relaxed),
            },
            router: RouterSnapshot::default(),
        }
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

/// A point-in-time copy of the service's counters. `Default` is the
/// all-zero snapshot (kernel and fault-kind labels empty) — useful as a
/// fixture for exporters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
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
    /// Largest single-queue depth observed at submit time.
    pub queue_depth_high_water: usize,
    /// Completion-latency histogram; bucket `i` counts requests at or
    /// under [`LATENCY_BUCKET_BOUNDS_US`]`[i]` µs, with one overflow
    /// bucket at the end.
    pub latency_buckets: [u64; BUCKETS],
    /// Sum of all completion latencies, µs (saturating at `u64::MAX`).
    pub latency_total_us: u64,
    /// Non-empty per-(kernel, size-class) latency cells.
    pub kernel_classes: Vec<KernelClassRow>,
    /// Coalesced batches dispatched by the lanes (groups of ≥ 2).
    pub batches: u64,
    /// Requests that rode in those coalesced batches.
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
    /// Fold another shard's snapshot into this one: counters and
    /// histograms sum, high-water marks take the max, per-cell kernel
    /// stats merge by (kernel, class). `served` stays the bucket sum by
    /// construction. The `router` section is left untouched — the router
    /// owns it and stamps it after merging its shards.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.rejected_queue_full += other.rejected_queue_full;
        self.timed_out += other.timed_out;
        self.shed += other.shed;
        for (i, &(name, count)) in other.per_kernel.iter().enumerate() {
            if self.per_kernel[i].0.is_empty() {
                self.per_kernel[i].0 = name;
            }
            self.per_kernel[i].1 += count;
        }
        self.queue_depth += other.queue_depth;
        self.queue_depth_high_water = self
            .queue_depth_high_water
            .max(other.queue_depth_high_water);
        for (i, &count) in other.latency_buckets.iter().enumerate() {
            self.latency_buckets[i] += count;
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
        self.batches += other.batches;
        self.batched_requests += other.batched_requests;
        self.batch_size_high_water = self.batch_size_high_water.max(other.batch_size_high_water);
        self.batch_faults += other.batch_faults;
        self.batch_element_retries += other.batch_element_retries;
        self.tuner_retunes += other.tuner_retunes;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
        self.retries += other.retries;
        self.fallbacks += other.fallbacks;
        self.worker_faults += other.worker_faults;
        self.residue_checks += other.residue_checks;
        self.verification_failures += other.verification_failures;
        self.verify.residue_checks += other.verify.residue_checks;
        self.verify.residue_failures += other.verify.residue_failures;
        self.verify.residue_cost_us = self
            .verify
            .residue_cost_us
            .saturating_add(other.verify.residue_cost_us);
        self.verify.dual_checks += other.verify.dual_checks;
        self.verify.dual_failures += other.verify.dual_failures;
        self.verify.dual_cost_us = self
            .verify
            .dual_cost_us
            .saturating_add(other.verify.dual_cost_us);
        self.verify.recompute_checks += other.verify.recompute_checks;
        self.verify.recompute_failures += other.verify.recompute_failures;
        self.verify.recompute_cost_us = self
            .verify
            .recompute_cost_us
            .saturating_add(other.verify.recompute_cost_us);
        self.verify.escalations += other.verify.escalations;
        self.breaker_opens += other.breaker_opens;
        self.breaker_closes += other.breaker_closes;
        for (i, &(name, count)) in other.injected_faults.iter().enumerate() {
            if self.injected_faults[i].0.is_empty() {
                self.injected_faults[i].0 = name;
            }
            self.injected_faults[i].1 += count;
        }
        self.distributed.runs += other.distributed.runs;
        self.distributed.recoveries += other.distributed.recoveries;
        self.distributed.unrecoverable += other.distributed.unrecoverable;
        self.distributed.false_positives += other.distributed.false_positives;
        self.distributed.detect_rounds += other.distributed.detect_rounds;
        self.distributed.stragglers_flagged += other.distributed.stragglers_flagged;
        self.distributed.max_detect_latency_ticks = self
            .distributed
            .max_detect_latency_ticks
            .max(other.distributed.max_detect_latency_ticks);
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
        let buckets = Json::Arr(
            self.latency_buckets
                .iter()
                .enumerate()
                .map(|(i, &count)| {
                    let le = LATENCY_BUCKET_BOUNDS_US
                        .get(i)
                        .map_or(Json::Null, |&b| Json::Num(i128::from(b)));
                    obj([("le_us", le), ("count", Json::Num(i128::from(count)))])
                })
                .collect(),
        );
        let classes = Json::Arr(
            self.kernel_classes
                .iter()
                .map(|row| {
                    obj([
                        ("kernel", Json::Str(row.kernel.to_string())),
                        ("class_bits", Json::Num(i128::from(row.class_bits))),
                        ("served", Json::Num(i128::from(row.served))),
                        ("mean_us", Json::Num(i128::from(row.mean_us()))),
                    ])
                })
                .collect(),
        );
        obj([
            ("served", Json::Num(i128::from(self.served))),
            (
                "rejected_queue_full",
                Json::Num(i128::from(self.rejected_queue_full)),
            ),
            ("timed_out", Json::Num(i128::from(self.timed_out))),
            ("shed", Json::Num(i128::from(self.shed))),
            (
                "per_kernel",
                Json::Obj(
                    self.per_kernel
                        .iter()
                        .map(|&(name, count)| (name.to_string(), Json::Num(i128::from(count))))
                        .collect(),
                ),
            ),
            ("queue_depth", Json::Num(self.queue_depth as i128)),
            (
                "queue_depth_high_water",
                Json::Num(self.queue_depth_high_water as i128),
            ),
            ("latency_buckets", buckets),
            (
                "mean_latency_us",
                Json::Num(i128::from(self.mean_latency_us())),
            ),
            (
                "latency_quantiles",
                obj([
                    ("p50_us", Json::Num(i128::from(self.p50_latency_us()))),
                    ("p99_us", Json::Num(i128::from(self.p99_latency_us()))),
                    ("p999_us", Json::Num(i128::from(self.p999_latency_us()))),
                ]),
            ),
            ("size_classes", classes),
            (
                "batching",
                obj([
                    ("batches", Json::Num(i128::from(self.batches))),
                    (
                        "batched_requests",
                        Json::Num(i128::from(self.batched_requests)),
                    ),
                    (
                        "batch_size_high_water",
                        Json::Num(self.batch_size_high_water as i128),
                    ),
                    ("batch_faults", Json::Num(i128::from(self.batch_faults))),
                    (
                        "batch_element_retries",
                        Json::Num(i128::from(self.batch_element_retries)),
                    ),
                ]),
            ),
            ("tuner_retunes", Json::Num(i128::from(self.tuner_retunes))),
            (
                "plan_cache_hits",
                Json::Num(i128::from(self.plan_cache_hits)),
            ),
            (
                "plan_cache_misses",
                Json::Num(i128::from(self.plan_cache_misses)),
            ),
            (
                "robustness",
                obj([
                    ("retries", Json::Num(i128::from(self.retries))),
                    ("fallbacks", Json::Num(i128::from(self.fallbacks))),
                    ("worker_faults", Json::Num(i128::from(self.worker_faults))),
                    ("residue_checks", Json::Num(i128::from(self.residue_checks))),
                    (
                        "verification_failures",
                        Json::Num(i128::from(self.verification_failures)),
                    ),
                    ("breaker_opens", Json::Num(i128::from(self.breaker_opens))),
                    ("breaker_closes", Json::Num(i128::from(self.breaker_closes))),
                    (
                        "injected_faults",
                        Json::Obj(
                            self.injected_faults
                                .iter()
                                .map(|&(name, count)| {
                                    (name.to_string(), Json::Num(i128::from(count)))
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "verify",
                obj([
                    (
                        "residue_checks",
                        Json::Num(i128::from(self.verify.residue_checks)),
                    ),
                    (
                        "residue_failures",
                        Json::Num(i128::from(self.verify.residue_failures)),
                    ),
                    (
                        "residue_cost_us",
                        Json::Num(i128::from(self.verify.residue_cost_us)),
                    ),
                    (
                        "dual_checks",
                        Json::Num(i128::from(self.verify.dual_checks)),
                    ),
                    (
                        "dual_failures",
                        Json::Num(i128::from(self.verify.dual_failures)),
                    ),
                    (
                        "dual_cost_us",
                        Json::Num(i128::from(self.verify.dual_cost_us)),
                    ),
                    (
                        "recompute_checks",
                        Json::Num(i128::from(self.verify.recompute_checks)),
                    ),
                    (
                        "recompute_failures",
                        Json::Num(i128::from(self.verify.recompute_failures)),
                    ),
                    (
                        "recompute_cost_us",
                        Json::Num(i128::from(self.verify.recompute_cost_us)),
                    ),
                    (
                        "escalations",
                        Json::Num(i128::from(self.verify.escalations)),
                    ),
                ]),
            ),
            (
                "distributed",
                obj([
                    ("runs", Json::Num(i128::from(self.distributed.runs))),
                    (
                        "recoveries",
                        Json::Num(i128::from(self.distributed.recoveries)),
                    ),
                    (
                        "unrecoverable",
                        Json::Num(i128::from(self.distributed.unrecoverable)),
                    ),
                    (
                        "false_positives",
                        Json::Num(i128::from(self.distributed.false_positives)),
                    ),
                    (
                        "detect_rounds",
                        Json::Num(i128::from(self.distributed.detect_rounds)),
                    ),
                    (
                        "stragglers_flagged",
                        Json::Num(i128::from(self.distributed.stragglers_flagged)),
                    ),
                    (
                        "max_detect_latency_ticks",
                        Json::Num(i128::from(self.distributed.max_detect_latency_ticks)),
                    ),
                ]),
            ),
            (
                "router",
                obj([
                    ("shards", Json::Num(i128::from(self.router.shards))),
                    ("live", Json::Num(i128::from(self.router.live))),
                    (
                        "shard_deaths",
                        Json::Num(i128::from(self.router.shard_deaths)),
                    ),
                    ("failovers", Json::Num(i128::from(self.router.failovers))),
                    ("steals", Json::Num(i128::from(self.router.steals))),
                    ("rejoins", Json::Num(i128::from(self.router.rejoins))),
                    (
                        "monitor_rounds",
                        Json::Num(i128::from(self.router.monitor_rounds)),
                    ),
                ]),
            ),
        ])
        .dump()
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
        m.record_queue_full();
        m.record_timed_out();
        m.record_shed();
        m.observe_queue_depth(5);
        m.observe_queue_depth(3);
        m.record_batch(7);
        m.record_batch(3);
        m.record_batch_fault();
        m.record_batch_element_retry();
        m.record_retune();
        m.record_retry();
        m.record_retry();
        m.record_fallback();
        m.record_worker_fault();
        m.record_residue_verify(3, true);
        m.record_residue_verify(2, false);
        m.record_dual_check(40, false);
        m.record_dual_check(55, true);
        m.record_recompute(200, true);
        m.record_recompute(100, false);
        m.record_breaker_open();
        m.record_breaker_close();
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
        a.record_queue_full();
        a.record_retry();
        a.observe_queue_depth(5);
        a.record_injected(FaultKind::ShardKill);
        let b = Metrics::default();
        b.record_served(Kernel::Schoolbook, 2_000, Duration::from_micros(90));
        b.record_residue_verify(3, false);
        b.observe_queue_depth(9);
        b.record_distributed_run(1, 2, 0, 0, 7);
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
        // Merging into a Default (all-zero, label-less) accumulator
        // inherits the labels.
        let mut acc = MetricsSnapshot::default();
        acc.merge(&merged);
        assert_eq!(acc.per_kernel[0], ("schoolbook", 2));
        assert_eq!(acc.injected_faults[3], ("shard_kill", 1));
        assert_eq!(acc.served, 3);
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
        m.record_distributed_run(0, 1, 0, 0, 0);
        m.record_distributed_run(2, 1, 0, 1, 9);
        m.record_distributed_unrecoverable();
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
