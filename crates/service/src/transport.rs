//! The dispatcher/backend seam, reified: a [`Transport`] carries typed
//! request/response commands addressed to *shard identities*, so the
//! [`crate::router::Router`] never touches a concrete backend.
//!
//! Two implementations ship:
//!
//! * [`ChannelTransport`] — the in-process backend: each shard is a full
//!   [`crate::MulService`] (a small and a big lane, each a bounded queue
//!   and a coalescing dispatcher) wrapped with a service-level heartbeat
//!   ([`crate::shard::Shard`]). Submissions resolve asynchronously
//!   through [`ResponseHandle`]s.
//! * [`MachineTransport`] — the simulated coded machine of
//!   [`crate::DistributedBackend`] exposed as just another transport:
//!   one shard identity whose `Mul` command runs synchronously on the
//!   polynomial-coded parallel Toom machine and returns an
//!   already-resolved handle. Its heartbeat always advances — rank-level
//!   deaths *inside* a run are detected and recovered by the machine's
//!   own detector, below this seam.

use crate::error::{MulError, SubmitError};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::service::{resolved_handle, ResponseHandle};
use crate::shard::Shard;
use ft_bigint::BigInt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Identity of one shard within a transport (dense, `0..shards()`).
pub type ShardId = usize;

/// A request addressed to one shard.
pub enum Command {
    /// Multiply `a × b`, optionally under a deadline.
    Mul {
        /// Left operand.
        a: BigInt,
        /// Right operand.
        b: BigInt,
        /// Deadline for the request, if any.
        deadline: Option<Duration>,
    },
    /// Report the shard's current queue depth.
    QueueDepth,
    /// Report the shard's heartbeat counter (monotone while live).
    Beats,
    /// Fail-stop the shard: heartbeats freeze, unstarted work is
    /// surrendered as `ServiceStopped`.
    Kill,
    /// Withhold heartbeats for `rounds` monitor rounds while the shard
    /// keeps serving (detected as dead, then rejoins).
    Stall {
        /// Monitor rounds to stay silent.
        rounds: u64,
    },
    /// Snapshot the shard's metrics.
    Metrics,
    /// Drain accepted work, stop the shard, and return final metrics.
    Shutdown,
}

/// A shard's reply to one [`Command`].
pub enum Reply {
    /// `Mul` was accepted; the handle resolves to the product.
    Pending(ResponseHandle),
    /// `Mul` was refused at the admission boundary.
    Refused(SubmitError),
    /// Queue depth.
    Depth(usize),
    /// Heartbeat counter.
    Beats(u64),
    /// Metrics snapshot (`Metrics` or `Shutdown`).
    Metrics(Box<MetricsSnapshot>),
    /// Command applied; nothing to report.
    Done,
}

/// Request/response messaging to a set of shards. Implementations must
/// tolerate commands addressed to dead shards (reply, don't panic):
/// death is a *detected* condition here, never an assumed-away one.
pub trait Transport: Send + Sync {
    /// Number of shard identities (`0..shards()` are addressable).
    fn shards(&self) -> usize;

    /// Deliver `command` to shard `to` and return its reply.
    fn send(&self, to: ShardId, command: Command) -> Reply;
}

/// The in-process channel backend: one [`Shard`] (a `MulService` plus a
/// heartbeat) per identity.
pub struct ChannelTransport {
    shards: Vec<Shard>,
}

impl ChannelTransport {
    /// Wrap pre-built shards.
    #[must_use]
    pub fn new(shards: Vec<Shard>) -> ChannelTransport {
        ChannelTransport { shards }
    }
}

impl Transport for ChannelTransport {
    fn shards(&self) -> usize {
        self.shards.len()
    }

    fn send(&self, to: ShardId, command: Command) -> Reply {
        let shard = &self.shards[to];
        match command {
            Command::Mul { a, b, deadline } => match shard.submit(a, b, deadline) {
                Ok(handle) => Reply::Pending(handle),
                Err(error) => Reply::Refused(error),
            },
            Command::QueueDepth => Reply::Depth(shard.queue_depth()),
            Command::Beats => Reply::Beats(shard.beats()),
            Command::Kill => {
                shard.kill();
                Reply::Done
            }
            Command::Stall { rounds } => {
                shard.stall(rounds);
                Reply::Done
            }
            Command::Metrics => Reply::Metrics(Box::new(shard.metrics())),
            Command::Shutdown => Reply::Metrics(Box::new(shard.shutdown())),
        }
    }
}

/// The simulated coded machine as a transport: a single shard identity
/// whose multiplications run synchronously on
/// [`crate::DistributedBackend`]'s polynomial-coded machine. Fault
/// tolerance below this seam belongs to the machine's own heartbeat
/// detector; the transport-level beat counter always advances, so a
/// router never declares this shard dead.
pub struct MachineTransport {
    backend: crate::DistributedBackend,
    metrics: Metrics,
    beats: AtomicU64,
    requests: AtomicU64,
}

impl MachineTransport {
    /// Expose `backend` as a one-shard transport.
    #[must_use]
    pub fn new(backend: crate::DistributedBackend) -> MachineTransport {
        MachineTransport {
            backend,
            metrics: Metrics::default(),
            beats: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }
}

impl Transport for MachineTransport {
    fn shards(&self) -> usize {
        1
    }

    fn send(&self, _to: ShardId, command: Command) -> Reply {
        match command {
            Command::Mul { a, b, .. } => {
                let request = self.requests.fetch_add(1, Ordering::Relaxed);
                let started = std::time::Instant::now();
                // The machine may declare a planned-fault overload
                // unrecoverable by panicking; surface that as a worker
                // fault, exactly like the supervisor does.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.backend.multiply(&a, &b, request, 0, &self.metrics)
                }));
                let result = match outcome {
                    Ok(product) => {
                        let bits = a.bit_length().min(b.bit_length());
                        self.metrics.record_served(
                            crate::Kernel::DistributedToom,
                            bits,
                            started.elapsed(),
                        );
                        Ok(product)
                    }
                    Err(_) => {
                        self.metrics.record_worker_fault();
                        Err(MulError::WorkerFault { attempts: 1 })
                    }
                };
                Reply::Pending(resolved_handle(result))
            }
            Command::QueueDepth => Reply::Depth(0),
            Command::Beats => Reply::Beats(self.beats.fetch_add(1, Ordering::Relaxed) + 1),
            Command::Kill | Command::Stall { .. } => Reply::Done,
            Command::Metrics | Command::Shutdown => {
                Reply::Metrics(Box::new(self.metrics.snapshot(0, (0, 0))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistributedConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn machine_transport_serves_and_recovers_on_the_coded_machine() {
        let transport = MachineTransport::new(crate::DistributedBackend::new(&DistributedConfig {
            enabled: true,
            hard_faults_per_run: 1,
            ..DistributedConfig::default()
        }));
        assert_eq!(transport.shards(), 1);
        let mut rng = StdRng::seed_from_u64(3);
        let a = BigInt::random_signed_bits(&mut rng, 3_000);
        let b = BigInt::random_signed_bits(&mut rng, 3_000);
        let Reply::Pending(handle) = transport.send(
            0,
            Command::Mul {
                a: a.clone(),
                b: b.clone(),
                deadline: None,
            },
        ) else {
            panic!("machine transport must accept")
        };
        assert_eq!(handle.wait().unwrap(), a.mul_schoolbook(&b));
        // Beats always advance: the router never declares this shard dead.
        let Reply::Beats(b1) = transport.send(0, Command::Beats) else {
            panic!("beats")
        };
        let Reply::Beats(b2) = transport.send(0, Command::Beats) else {
            panic!("beats")
        };
        assert!(b2 > b1);
        let Reply::Metrics(snap) = transport.send(0, Command::Metrics) else {
            panic!("metrics")
        };
        assert_eq!(snap.served, 1);
        assert_eq!(snap.distributed.runs, 1);
        assert_eq!(snap.distributed.recoveries, 1, "injected death recovered");
    }
}
