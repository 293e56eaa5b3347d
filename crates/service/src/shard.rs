//! One shard of the sharded topology: a full [`MulService`] plus the
//! service-level heartbeat the router's monitor samples. The router
//! holds its shards in a `Vec`, indexed by [`ShardId`](crate::ShardId),
//! and calls them directly.
//!
//! The heartbeat is a lazily-computed monotone counter: while the shard
//! is live it advances once per `heartbeat_ms` of wall clock. A *kill*
//! freezes it forever (fail-stop); a *stall* freezes it for a bounded
//! window while the shard keeps serving — the monitor's detector
//! declares the shard dead either way (that is the point: the paper's
//! detected fail-stop model distinguishes nothing finer at the
//! observer), and a stalled shard whose beats resume is re-admitted as a
//! rejoin.

use crate::config::ServiceConfig;
use crate::error::SubmitError;
use crate::metrics::MetricsSnapshot;
use crate::service::{Deadline, MulService, ResponseHandle};
use ft_bigint::BigInt;
use std::time::{Duration, Instant};

struct BeatState {
    /// Beat value the counter froze at (`None` while advancing).
    frozen: Option<u64>,
    /// Frozen until this instant (`None` = forever, i.e. killed).
    until: Option<Instant>,
}

/// A [`MulService`] with a heartbeat.
pub(crate) struct Shard {
    service: parking_lot::RwLock<Option<MulService>>,
    started_at: Instant,
    heartbeat: Duration,
    beat_state: parking_lot::Mutex<BeatState>,
}

impl Shard {
    /// Start a fresh shard: a new service plus a beating heart.
    pub(crate) fn start(config: ServiceConfig, heartbeat_ms: u64) -> Shard {
        Shard::from_service(MulService::start(config), heartbeat_ms)
    }

    /// Wrap an already-running service (the single-shard compatibility
    /// path: an unsharded `MulService` becomes a one-shard topology).
    pub(crate) fn from_service(service: MulService, heartbeat_ms: u64) -> Shard {
        Shard {
            service: parking_lot::RwLock::new(Some(service)),
            started_at: Instant::now(),
            heartbeat: Duration::from_millis(heartbeat_ms.max(1)),
            beat_state: parking_lot::Mutex::new(BeatState {
                frozen: None,
                until: None,
            }),
        }
    }

    /// Beats elapsed on the wall clock since the shard started.
    fn wall_beats(&self) -> u64 {
        let elapsed = self.started_at.elapsed();
        (elapsed.as_nanos() / self.heartbeat.as_nanos().max(1)) as u64
    }

    /// The heartbeat counter: monotone while live, frozen while stalled,
    /// frozen forever once killed.
    pub(crate) fn beats(&self) -> u64 {
        let mut state = self.beat_state.lock();
        match state.frozen {
            None => self.wall_beats(),
            Some(frozen) => match state.until {
                // Killed: silent forever.
                None => frozen,
                Some(until) if Instant::now() < until => frozen,
                // Stall window over: thaw and resume the wall clock.
                Some(_) => {
                    state.frozen = None;
                    state.until = None;
                    self.wall_beats().max(frozen)
                }
            },
        }
    }

    /// Fail-stop the shard: freeze the heartbeat forever and surrender
    /// unstarted work (see [`MulService::kill`]). Idempotent; a kill
    /// overrides any stall in progress.
    pub(crate) fn kill(&self) {
        {
            let mut state = self.beat_state.lock();
            let frozen = state.frozen.unwrap_or_else(|| self.wall_beats());
            state.frozen = Some(frozen);
            state.until = None;
        }
        if let Some(service) = self.service.read().as_ref() {
            service.kill();
        }
    }

    /// Withhold heartbeats for `rounds` beat periods while the shard
    /// keeps serving. A kill in progress is not downgraded.
    pub(crate) fn stall(&self, rounds: u64) {
        let mut state = self.beat_state.lock();
        if state.frozen.is_some() && state.until.is_none() {
            return; // killed: stays dead
        }
        let frozen = state.frozen.unwrap_or_else(|| self.wall_beats());
        state.frozen = Some(frozen);
        state.until =
            Some(Instant::now() + self.heartbeat * u32::try_from(rounds).unwrap_or(u32::MAX));
    }

    /// Submit one multiplication to the shard's service, which queues it
    /// in the lane its operand sizes pick. `deadline` is absolute: a
    /// failed-over request keeps the one its client set.
    pub(crate) fn submit(
        &self,
        a: BigInt,
        b: BigInt,
        deadline: Deadline,
    ) -> Result<ResponseHandle, SubmitError> {
        match self.service.read().as_ref() {
            None => Err(SubmitError::ShuttingDown),
            Some(service) => service.submit_one(a, b, deadline),
        }
    }

    /// Current queue depth, summed over the service's two lanes
    /// (`usize::MAX` once the shard has shut down).
    pub(crate) fn queue_depth(&self) -> usize {
        self.service
            .read()
            .as_ref()
            .map_or(usize::MAX, MulService::queue_depth)
    }

    /// Point-in-time metrics of the underlying service.
    pub(crate) fn metrics(&self) -> MetricsSnapshot {
        self.service
            .read()
            .as_ref()
            .map_or_else(MetricsSnapshot::default, MulService::metrics)
    }

    /// Drain accepted work, stop the service, and return final metrics.
    /// Idempotent: a second call returns an empty snapshot.
    pub(crate) fn shutdown(&self) -> MetricsSnapshot {
        let service = self.service.write().take();
        service.map_or_else(MetricsSnapshot::default, MulService::shutdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ServiceConfig {
        ServiceConfig {
            verify_residues: false,
            ..ServiceConfig::default()
        }
    }

    /// Whether a kill reached the shard's service.
    fn service_killed(shard: &Shard) -> bool {
        shard
            .service
            .read()
            .as_ref()
            .is_some_and(MulService::is_killed)
    }

    #[test]
    fn beats_advance_then_freeze_on_kill() {
        let shard = Shard::start(tiny_config(), 5);
        let first = shard.beats();
        std::thread::sleep(Duration::from_millis(20));
        assert!(shard.beats() > first, "live shard beats advance");
        shard.kill();
        assert!(service_killed(&shard));
        let frozen = shard.beats();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(shard.beats(), frozen, "killed shard is silent forever");
        assert!(matches!(
            shard.submit(BigInt::one(), BigInt::one(), Deadline::None),
            Err(SubmitError::ShuttingDown)
        ));
        let _ = shard.shutdown();
    }

    #[test]
    fn stalled_beats_resume_and_jump_forward() {
        let shard = Shard::start(tiny_config(), 5);
        // 300 ms of silence: far longer than the checks below take, even
        // on a loaded host.
        shard.stall(60);
        let frozen = shard.beats();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(shard.beats(), frozen, "stalled shard is silent");
        // The shard still serves while silent.
        let a: BigInt = "12345678901234567890".parse().unwrap();
        let b: BigInt = "98765432109876543210".parse().unwrap();
        let handle = shard.submit(a.clone(), b.clone(), Deadline::None).unwrap();
        assert_eq!(handle.wait().unwrap(), a.mul_schoolbook(&b));
        // Wait out the window, however long the host takes to get there.
        let deadline = Instant::now() + Duration::from_secs(60);
        while shard.beats() <= frozen && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(shard.beats() > frozen, "beats resume after the window");
        assert!(!service_killed(&shard));
        let snap = shard.shutdown();
        assert_eq!(snap.served, 1);
        // Idempotent shutdown.
        assert_eq!(shard.shutdown().served, 0);
        assert_eq!(shard.queue_depth(), usize::MAX, "stopped shard reads full");
    }
}
