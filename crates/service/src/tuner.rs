//! The adaptive threshold tuner: periodically re-derives the live
//! [`KernelPolicy`] size thresholds from the per-(kernel, size-class)
//! latency cells in [`crate::metrics`], replacing the static
//! `tune_thresholds` numbers at runtime.
//!
//! Evidence model: kernel selection normally keeps each size class on one
//! kernel, but supervision leaks cross-kernel samples into the same class
//! — breaker diversions and forced degradations execute requests on a
//! *lower* kernel than selected. Whenever a class ends up with enough
//! served samples under two adjacent kernels, their mean latencies are a
//! live A/B measurement for that class, and the boundary between those
//! kernels moves to hand the class to the winner. Without such evidence
//! the thresholds stay put — the tuner never moves a boundary on
//! one-sided data.
//!
//! Means are cumulative since service start, which deliberately dampens
//! oscillation: one noisy interval cannot flap a threshold back.

use crate::config::{KernelPolicy, TunerConfig};
use crate::metrics::{size_class, ClassStats, Stat, SIZE_CLASSES};
use crate::service::Shared;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Lowest value the tuner will drive `schoolbook_max_bits` to: below this
/// the quadratic kernel is unbeatable and evidence is noise.
const MIN_SCHOOLBOOK_MAX_BITS: u64 = 512;

/// Highest value the tuner will drive `schoolbook_max_bits` to (2 Mbit):
/// a guard against pathological latency data promoting the quadratic
/// kernel into Toom territory wholesale.
const MAX_SCHOOLBOOK_MAX_BITS: u64 = 1 << 21;

/// Joinable handle to the tuner thread.
pub(crate) struct TunerHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl TunerHandle {
    /// Signal the tuner to exit and join it.
    pub(crate) fn stop(self) {
        self.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        let _ = self.thread.join();
    }
}

/// Spawn the tuner thread for a started service.
pub(crate) fn spawn(shared: Arc<Shared>, service_id: usize) -> TunerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let thread = std::thread::Builder::new()
        .name(format!("ftsvc{service_id}-tune"))
        .spawn(move || tuner_loop(&shared, &flag))
        .expect("spawn service tuner");
    TunerHandle { stop, thread }
}

fn tuner_loop(shared: &Shared, stop: &AtomicBool) {
    let interval = Duration::from_millis(shared.config.tuner.interval_ms);
    loop {
        std::thread::park_timeout(interval);
        if stop.load(Ordering::Acquire) {
            return;
        }
        let stats = shared.metrics.kernel_class_stats();
        let current = shared.policy();
        if let Some(tuned) = retune(&current, &stats, &shared.config.tuner) {
            *shared.live_policy.write() = tuned;
            shared.metrics.add(Stat::TunerRetunes, 1);
        }
    }
}

/// Re-derive the policy's size thresholds from live latency cells.
/// Returns `None` when the evidence does not justify any move.
pub(crate) fn retune(
    policy: &KernelPolicy,
    stats: &ClassStats,
    cfg: &TunerConfig,
) -> Option<KernelPolicy> {
    let mut tuned = policy.clone();
    // Boundary 1: schoolbook ↔ sequential Toom.
    tuned.schoolbook_max_bits = tune_boundary(0, 1, policy.schoolbook_max_bits, stats, cfg)
        .clamp(MIN_SCHOOLBOOK_MAX_BITS, MAX_SCHOOLBOOK_MAX_BITS);
    // Boundary 2: sequential ↔ parallel Toom; keep the band ordering.
    tuned.seq_toom_max_bits =
        tune_boundary(1, 2, policy.seq_toom_max_bits, stats, cfg).max(tuned.schoolbook_max_bits);
    // Boundary 3: parallel Toom ↔ NTT; the NTT floor may not undercut the
    // sequential-Toom ceiling.
    tuned.ntt_min_bits =
        tune_boundary(2, 3, policy.ntt_min_bits, stats, cfg).max(tuned.seq_toom_max_bits);
    (tuned != *policy).then_some(tuned)
}

/// Adjust one boundary between the kernels at `lo`/`hi` (indices into
/// [`crate::kernel::Kernel::ALL`]). The decision comes from the class
/// nearest the boundary where *both* kernels have at least `min_samples`
/// served requests: if that class currently belongs to `lo` and `lo` is
/// at least `slowdown_pct` slower there, the boundary shrinks to hand the
/// class to `hi` — and symmetrically for growth. The class straddling the
/// boundary itself is ambiguous (both kernels legitimately own part of
/// it) and is skipped. Ties in distance resolve to the smaller class.
fn tune_boundary(
    lo: usize,
    hi: usize,
    threshold: u64,
    stats: &ClassStats,
    cfg: &TunerConfig,
) -> u64 {
    let min_samples = cfg.min_samples.max(1);
    let boundary_class = size_class(threshold);
    let mut classes: Vec<usize> = (0..SIZE_CLASSES).collect();
    classes.sort_by_key(|&c| (c.abs_diff(boundary_class), c));
    for c in classes {
        let (lo_count, lo_us) = stats[lo][c];
        let (hi_count, hi_us) = stats[hi][c];
        if lo_count < min_samples || hi_count < min_samples {
            continue;
        }
        let lo_mean = u128::from(lo_us) / u128::from(lo_count);
        let hi_mean = u128::from(hi_us) / u128::from(hi_count);
        let class_floor = if c == 0 { 0 } else { 1u64 << c };
        let class_ceil = (1u64 << (c + 1)) - 1;
        if class_ceil <= threshold {
            // Class fully inside lo's band: demote it if lo is losing.
            if lo_mean * 100 > hi_mean * u128::from(cfg.slowdown_pct) {
                return class_floor.saturating_sub(1);
            }
            return threshold; // nearest decidable evidence says stay
        }
        if class_floor > threshold {
            // Class fully inside hi's band: annex it if hi is losing.
            if hi_mean * 100 > lo_mean * u128::from(cfg.slowdown_pct) {
                return class_ceil;
            }
            return threshold;
        }
        // The class straddles the boundary: ambiguous, look further out.
    }
    threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::kernel::Kernel;
    use crate::metrics::Metrics;
    use crate::plan_cache::PlanCache;
    use crate::supervisor::Supervisor;

    fn empty_stats() -> ClassStats {
        [[(0, 0); SIZE_CLASSES]; 5]
    }

    fn cfg() -> TunerConfig {
        TunerConfig {
            enabled: true,
            interval_ms: 5,
            min_samples: 10,
            slowdown_pct: 125,
        }
    }

    /// `(count, total_us)` cell with the given mean.
    fn cell(count: u64, mean_us: u64) -> (u64, u64) {
        (count, count * mean_us)
    }

    #[test]
    fn no_evidence_means_no_retune() {
        let policy = KernelPolicy::default();
        assert_eq!(retune(&policy, &empty_stats(), &cfg()), None);
        // One-sided data (only the selected kernel has samples) is not
        // evidence either.
        let mut stats = empty_stats();
        stats[1][12] = cell(1_000, 40);
        assert_eq!(retune(&policy, &stats, &cfg()), None);
        // Below min_samples on one side: still no move.
        stats[0][12] = cell(9, 10);
        assert_eq!(retune(&policy, &stats, &cfg()), None);
    }

    #[test]
    fn boundary_rises_when_the_upper_kernel_loses_its_bottom_class() {
        // Default schoolbook_max_bits = 2048. Class 12 (4096..8191) is
        // seq-toom territory, but degraded-to-schoolbook samples show
        // schoolbook is 4× faster there → the class is annexed.
        let policy = KernelPolicy::default();
        let mut stats = empty_stats();
        stats[0][12] = cell(50, 50);
        stats[1][12] = cell(50, 200);
        let tuned = retune(&policy, &stats, &cfg()).unwrap();
        assert_eq!(tuned.schoolbook_max_bits, (1 << 13) - 1);
        assert_eq!(tuned.seq_toom_max_bits, policy.seq_toom_max_bits);
    }

    #[test]
    fn boundary_falls_when_the_lower_kernel_loses_its_top_class() {
        // Class 10 (1024..2047) is schoolbook territory under the default
        // 2048 threshold; evidence shows seq toom is faster there.
        let policy = KernelPolicy::default();
        let mut stats = empty_stats();
        stats[0][10] = cell(50, 300);
        stats[1][10] = cell(50, 100);
        let tuned = retune(&policy, &stats, &cfg()).unwrap();
        assert_eq!(tuned.schoolbook_max_bits, (1 << 10) - 1);
    }

    #[test]
    fn insignificant_differences_keep_the_threshold() {
        // seq toom is slower in its bottom class, but only by 10% —
        // below slowdown_pct = 125 the tuner must not move.
        let policy = KernelPolicy::default();
        let mut stats = empty_stats();
        stats[0][12] = cell(100, 100);
        stats[1][12] = cell(100, 110);
        assert_eq!(retune(&policy, &stats, &cfg()), None);
    }

    #[test]
    fn nearest_class_wins_and_straddling_class_is_skipped() {
        let policy = KernelPolicy::default(); // T1 = 2048, boundary class 11
        let mut stats = empty_stats();
        // Straddling class 11 (2048..4095) has loud but ambiguous data.
        stats[0][11] = cell(1_000, 1);
        stats[1][11] = cell(1_000, 1_000);
        // Class 10 says lower, class 12 says raise; both are distance 1
        // from the boundary class — the tie resolves to the smaller
        // class, so the boundary falls.
        stats[0][10] = cell(50, 300);
        stats[1][10] = cell(50, 100);
        stats[0][12] = cell(50, 50);
        stats[1][12] = cell(50, 200);
        let tuned = retune(&policy, &stats, &cfg()).unwrap();
        assert_eq!(tuned.schoolbook_max_bits, (1 << 10) - 1);
    }

    #[test]
    fn thresholds_clamp_and_keep_band_ordering() {
        // Decisive "lower it" evidence at class 9 would drive the
        // schoolbook bound to 511; the floor clamps it to 512.
        let policy = KernelPolicy {
            schoolbook_max_bits: 1_023,
            ..KernelPolicy::default()
        };
        let mut stats = empty_stats();
        stats[0][9] = cell(50, 500);
        stats[1][9] = cell(50, 10);
        let tuned = retune(&policy, &stats, &cfg()).unwrap();
        assert_eq!(tuned.schoolbook_max_bits, MIN_SCHOOLBOOK_MAX_BITS);
        // seq_toom_max_bits can never fall below schoolbook_max_bits.
        let policy = KernelPolicy {
            schoolbook_max_bits: 4_095,
            seq_toom_max_bits: 4_095,
            ..KernelPolicy::default()
        };
        let mut stats = empty_stats();
        // Par toom wins class 11 (2048..4095) → boundary 2 would fall to
        // 2047, below the schoolbook bound; it is pinned at the bound,
        // which makes the whole retune a no-op.
        stats[1][11] = cell(50, 500);
        stats[2][11] = cell(50, 10);
        assert_eq!(retune(&policy, &stats, &cfg()), None);
    }

    #[test]
    fn ntt_boundary_moves_on_evidence_and_respects_band_ordering() {
        // Default ntt_min_bits = 2^23. Class 24 (16M..32M) is NTT
        // territory; degraded-to-par-toom samples show par Toom is 4×
        // faster there → the NTT floor rises to annex the class.
        let policy = KernelPolicy::default();
        let mut stats = empty_stats();
        stats[2][24] = cell(50, 50);
        stats[3][24] = cell(50, 200);
        let tuned = retune(&policy, &stats, &cfg()).unwrap();
        assert_eq!(tuned.ntt_min_bits, (1 << 25) - 1);
        assert_eq!(tuned.seq_toom_max_bits, policy.seq_toom_max_bits);
        // The floor can never fall below seq_toom_max_bits: decisive
        // "lower it" evidence just pins it at the ceiling → no-op retune.
        let policy = KernelPolicy {
            seq_toom_max_bits: (1 << 23) - 1,
            ntt_min_bits: (1 << 23) - 1,
            ..KernelPolicy::default()
        };
        let mut stats = empty_stats();
        stats[2][22] = cell(50, 500);
        stats[3][22] = cell(50, 10);
        assert_eq!(retune(&policy, &stats, &cfg()), None);
    }

    /// End-to-end: the tuner thread reads live metrics and republishes
    /// the policy. Latencies are recorded by hand, so the direction is
    /// deterministic.
    #[test]
    fn tuner_thread_republishes_the_live_policy() {
        let config = ServiceConfig {
            tuner: cfg(),
            ..ServiceConfig::default()
        };
        let shared = Arc::new(Shared {
            metrics: Metrics::default(),
            plans: PlanCache::new(2),
            supervisor: Supervisor::new(
                config.retry.clone(),
                config.breaker.clone(),
                false,
                crate::verify::VerifyPolicy::default(),
                None,
                None,
            ),
            live_policy: parking_lot::RwLock::new(config.kernel_policy.clone()),
            config,
            killed: std::sync::atomic::AtomicBool::new(false),
        });
        // Class 12 evidence: schoolbook 4× faster than seq toom.
        for _ in 0..20 {
            shared
                .metrics
                .record_served(Kernel::Schoolbook, 5_000, Duration::from_micros(50));
            shared
                .metrics
                .record_served(Kernel::SeqToom, 5_000, Duration::from_micros(200));
        }
        let handle = spawn(shared.clone(), 999);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while shared.policy().schoolbook_max_bits == 2_048 {
            assert!(std::time::Instant::now() < deadline, "tuner never retuned");
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.stop();
        assert_eq!(shared.policy().schoolbook_max_bits, (1 << 13) - 1);
        assert_eq!(
            shared.metrics.snapshot(0, (0, 0)).tuner_retunes,
            1,
            "stable after the move: the annexed class is now lo-band and lo is winning"
        );
    }
}
