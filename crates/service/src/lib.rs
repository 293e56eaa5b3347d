//! ft-service: a batching multiplication service layer.
//!
//! Accepts multiplication requests into one of two bounded lanes (small
//! products and big ones, so neither queues behind the other), batches
//! them, auto-selects a kernel per request size, and returns results
//! through one slot table per submission, read as a [`ResponseHandle`]
//! or a [`BatchHandle`]. Kernel execution is supervised: panics are
//! caught, products are checked modulo two secret primes, failures are
//! retried with backoff and degraded across kernels by per-kernel
//! circuit breakers, and a deterministic chaos injector can exercise all
//! of it. A [`Router`] spreads requests over several services (shards)
//! and fails a dead shard's queued work over to the survivors. See
//! `DESIGN.md` §2 for the subsystem inventory.

pub mod chaos;
pub mod config;
pub(crate) mod dispatcher;
pub mod distributed;
pub mod error;
pub mod json;
pub mod kernel;
pub mod metrics;
pub mod plan_cache;
pub mod router;
pub mod service;
pub(crate) mod shard;
pub mod supervisor;
pub(crate) mod tuner;

pub use chaos::{install_quiet_panic_hook, ChaosConfig, CorruptionKind, FaultKind};
pub use config::{
    BatchingConfig, DistributedConfig, KernelPolicy, ServiceConfig, ShardConfig, TunerConfig,
};
pub use distributed::DistributedBackend;
pub use error::{MulError, SubmitError};
pub use kernel::Kernel;
pub use metrics::{DistributedSnapshot, MetricsSnapshot, RouterSnapshot, VerifySnapshot};
pub use router::{Router, ShardId, ShardState};
pub use service::{BatchHandle, BatchResults, MulService, ResponseHandle};
pub use supervisor::{BreakerPolicy, RetryPolicy};
