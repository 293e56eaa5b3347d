//! The multiplication service: two execution lanes, each a bounded queue
//! drained by one group-commit dispatcher thread, and the slot table
//! clients wait on.
//!
//! Architecture: [`MulService::submit`] and [`MulService::submit_many`]
//! are the only ways in, and each picks a lane from the operand bit
//! lengths it already holds:
//!
//! - the **small lane** takes products whose larger operand is at most
//!   `kernel_policy.toom_threshold_bits` (24,576 bits by default: one
//!   limb-kernel call, no Toom recursion);
//! - the **big lane** takes everything else.
//!
//! Each lane runs the `dispatcher` module's loop on its own thread. Its
//! round is whatever the queue holds when the lane frees, taken at once:
//! an idle lane serves a lone request without waiting, and a loaded lane
//! runs the same-shape requests of its backlog as one supervised batch.
//! A bulk submission travels as one queue message to the lane of its
//! largest operand. Every submission resolves through one slot table: a
//! [`ResponseHandle`] reads its one slot, a [`BatchHandle`] its `n`
//! slots, and the request side fills each slot exactly once through its
//! write capability. The split keeps a kilobit request from queueing
//! behind a megabit Toom or NTT job, as the paper gives independent
//! products their own processors. Both lanes read the *live* kernel
//! policy, which the adaptive tuner (the `tuner` module) re-derives from
//! the latency histogram at runtime; the tuner never moves the lane
//! boundary. Shutdown drops the senders; each dispatcher drains what its
//! lane accepted, then exits.

use crate::config::ServiceConfig;
use crate::distributed::DistributedBackend;
use crate::error::{MulError, SubmitError};
use crate::kernel::Kernel;
use crate::metrics::{Metrics, MetricsSnapshot, Stat};
use crate::plan_cache::PlanCache;
use crate::supervisor::Supervisor;
use crossbeam::channel::{bounded, Sender, TrySendError};
use ft_bigint::BigInt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Callback = Box<dyn FnOnce(Result<BigInt, MulError>) + Send>;

struct Table {
    results: Vec<Option<Result<BigInt, MulError>>>,
    /// Slots not yet filled.
    remaining: usize,
    /// Threads blocked on one particular slot (a streaming
    /// [`BatchResults`]). While this is zero — the common, whole-table
    /// case — a slot that is not the last lands silently, and the one
    /// notify fires when the last slot lands.
    slot_waiters: usize,
    /// Registered by [`ResponseHandle::on_ready`] on a one-slot table:
    /// the result goes to the callback instead of into the slot.
    on_ready: Option<Callback>,
}

impl Table {
    /// Move every result out of a fully filled table.
    fn take_all(&mut self) -> Vec<Result<BigInt, MulError>> {
        self.results.drain(..).map(|r| r.expect("filled")).collect()
    }
}

/// The results of one submission: `n` slots, each filled exactly once
/// through its [`Slot`], read through one client handle — a
/// [`ResponseHandle`] for one slot, a [`BatchHandle`] for `n`. A bulk
/// submission's `n` requests share one allocation, one condvar sleep and
/// one wake instead of `n` of each: the wait-side half of cross-request
/// batching.
struct SlotTable {
    state: Mutex<Table>,
    ready: Condvar,
}

impl SlotTable {
    fn new(len: usize) -> Arc<SlotTable> {
        Arc::new(SlotTable {
            state: Mutex::new(Table {
                results: (0..len).map(|_| None).collect(),
                remaining: len,
                slot_waiters: 0,
                on_ready: None,
            }),
            ready: Condvar::new(),
        })
    }

    /// Every update under this lock leaves the table valid (callbacks run
    /// outside it), so a poisoned lock is recovered, not propagated.
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until every slot is filled.
    fn wait_all(&self) -> MutexGuard<'_, Table> {
        let mut state = self.lock();
        while state.remaining > 0 {
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state
    }

    /// Block until slot `index` is filled, without waiting for the
    /// others, and move its result out.
    fn take(&self, index: usize) -> Result<BigInt, MulError> {
        let mut state = self.lock();
        loop {
            if let Some(result) = state.results[index].take() {
                return result;
            }
            state.slot_waiters += 1;
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.slot_waiters -= 1;
        }
    }

    /// Fill slot `index`; returns whether the table's notify is now owed
    /// (the last slot landed and no callback took it). A slot that is not
    /// the last wakes per-slot waiters at once, so a streamed batch
    /// yields early elements before the batch completes. A registered
    /// callback runs here, outside the lock.
    fn store(&self, index: usize, result: Result<BigInt, MulError>) -> bool {
        let mut state = self.lock();
        state.remaining -= 1;
        if let Some(callback) = state.on_ready.take() {
            drop(state);
            // A panicking callback must not take down the service thread
            // that happened to resolve this request.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| callback(result)));
            return false;
        }
        state.results[index] = Some(result);
        let last = state.remaining == 0;
        if !last && state.slot_waiters > 0 {
            drop(state);
            self.ready.notify_all();
        }
        last
    }
}

/// The write capability for one slot of a submission's table. Filling it
/// consumes it, so a slot resolves exactly once; dropped unfilled (a
/// panicking dispatcher, a service dropped mid-queue, a refused
/// submission) it resolves its slot as `ServiceStopped`, so no handle can
/// hang on a lost request.
pub(crate) struct Slot {
    table: Arc<SlotTable>,
    index: usize,
    filled: bool,
}

impl Slot {
    fn new(table: &Arc<SlotTable>, index: usize) -> Slot {
        Slot {
            table: table.clone(),
            index,
            filled: false,
        }
    }

    pub(crate) fn fill(mut self, result: Result<BigInt, MulError>) {
        if self.publish(result) {
            self.table.ready.notify_all();
        }
    }

    /// Publish the result but defer the waiter's wake-up to the returned
    /// [`Waker`] (`None` when no notify is owed: other slots are still
    /// outstanding, or a callback took the result). The batch dispatcher
    /// stages a whole round of results first and wakes afterwards: each
    /// notify of a sleeping client is a context switch that preempts the
    /// publishing thread, so waking mid-publication turns a coalesced
    /// round back into per-request ping-pong. A woken client instead
    /// finds every companion result already readable and drains them
    /// without sleeping again.
    pub(crate) fn stage(mut self, result: Result<BigInt, MulError>) -> Option<Waker> {
        self.publish(result).then(|| Waker(self.table.clone()))
    }

    fn publish(&mut self, result: Result<BigInt, MulError>) -> bool {
        self.filled = true;
        self.table.store(self.index, result)
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        if !self.filled && self.publish(Err(MulError::ServiceStopped)) {
            self.table.ready.notify_all();
        }
    }
}

/// A deferred wake-up for one staged slot (see [`Slot::stage`]). Dropping
/// it delivers the notify, so a staged result can never strand its
/// waiter.
pub(crate) struct Waker(Arc<SlotTable>);

impl Drop for Waker {
    fn drop(&mut self) {
        self.0.ready.notify_all();
    }
}

/// Client-side handle to one accepted bulk submission
/// ([`MulService::submit_many`]): resolves to one result per submitted
/// pair, in submission order.
pub struct BatchHandle {
    table: Arc<SlotTable>,
}

impl BatchHandle {
    /// A handle over `len` fresh slots plus the write capability for
    /// each, detached from any queue — the router resolves each slot
    /// through its own routed (and possibly re-routed) sub-request.
    pub(crate) fn new(len: usize) -> (BatchHandle, Vec<Slot>) {
        let table = SlotTable::new(len);
        let slots = (0..len).map(|index| Slot::new(&table, index)).collect();
        (BatchHandle { table }, slots)
    }

    /// How many pairs this submission carries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table.lock().results.len()
    }

    /// Whether the submission was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block until every element resolves; results are in submission
    /// order.
    pub fn wait(self) -> Vec<Result<BigInt, MulError>> {
        let results = self.table.wait_all().take_all();
        results
    }

    /// Non-blocking poll; `Err(self)` while any element is pending.
    pub fn try_wait(self) -> Result<Vec<Result<BigInt, MulError>>, BatchHandle> {
        let mut state = self.table.lock();
        if state.remaining > 0 {
            drop(state);
            return Err(self);
        }
        let results = state.take_all();
        drop(state);
        Ok(results)
    }
}

/// Streaming consumer of a [`BatchHandle`]: yields each element's result
/// in submission order, blocking only until *that* element resolves.
pub struct BatchResults {
    table: Arc<SlotTable>,
    next: usize,
    len: usize,
}

impl Iterator for BatchResults {
    type Item = Result<BigInt, MulError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.len {
            return None;
        }
        self.next += 1;
        // The iterator owns the handle, so the slot can be moved out.
        Some(self.table.take(self.next - 1))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for BatchResults {}

impl IntoIterator for BatchHandle {
    type Item = Result<BigInt, MulError>;
    type IntoIter = BatchResults;

    /// Stream results in submission order as they land (see
    /// [`BatchResults`]).
    fn into_iter(self) -> BatchResults {
        let len = self.len();
        BatchResults {
            table: self.table,
            next: 0,
            len,
        }
    }
}

/// Client-side handle to one accepted request.
pub struct ResponseHandle {
    table: Arc<SlotTable>,
}

impl ResponseHandle {
    /// A handle over one fresh slot plus its write capability — the
    /// router's building block: it hands the handle to the client once,
    /// keeps the slot, and moves it between shards as it fails work over.
    pub(crate) fn new() -> (ResponseHandle, Slot) {
        let table = SlotTable::new(1);
        let slot = Slot::new(&table, 0);
        (ResponseHandle { table }, slot)
    }

    /// Block until the request resolves.
    pub fn wait(self) -> Result<BigInt, MulError> {
        self.table.take(0)
    }

    /// Non-blocking poll; `Err(self)` when the request is still pending.
    pub fn try_wait(self) -> Result<Result<BigInt, MulError>, ResponseHandle> {
        let taken = self.table.lock().results[0].take();
        match taken {
            Some(result) => Ok(result),
            None => Err(self),
        }
    }

    /// Block for at most `timeout`; `Err(self)` hands the still-usable
    /// handle back when the request has not resolved in time.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<BigInt, MulError>, ResponseHandle> {
        // An overflowing deadline (e.g. Duration::MAX) waits forever.
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Ok(self.wait());
        };
        let mut state = self.table.lock();
        loop {
            if let Some(result) = state.results[0].take() {
                return Ok(result);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(state);
                return Err(self);
            }
            state = self
                .table
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Register a callback invoked with the result as soon as the request
    /// resolves, consuming the handle. If the request already resolved,
    /// the callback runs immediately on the calling thread; otherwise it
    /// runs on the service thread that resolves the request — keep it
    /// short and non-blocking.
    pub fn on_ready<F>(self, callback: F)
    where
        F: FnOnce(Result<BigInt, MulError>) + Send + 'static,
    {
        let mut state = self.table.lock();
        if let Some(result) = state.results[0].take() {
            drop(state);
            callback(result);
        } else {
            state.on_ready = Some(Box::new(callback));
        }
    }
}

/// A request's deadline, kept overflow-safe: a huge user timeout (e.g.
/// `Duration::MAX`) saturates to `Far` — it can never expire, but unlike
/// `None` it still marks the request as deadline-carrying, so load
/// shedding (which only applies to deadline-less requests) skips it.
/// Absolute, so a request that fails over to another shard keeps the
/// deadline its client set.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Deadline {
    /// No deadline requested; the request is sheddable under load.
    None,
    /// Expires at the given instant.
    At(Instant),
    /// Requested deadline overflowed `Instant`: effectively infinite.
    Far,
}

impl Deadline {
    pub(crate) fn after(timeout: Duration) -> Deadline {
        Instant::now()
            .checked_add(timeout)
            .map_or(Deadline::Far, Deadline::At)
    }

    fn expired(self, now: Instant) -> bool {
        matches!(self, Deadline::At(t) if now > t)
    }

    fn sheddable(self) -> bool {
        matches!(self, Deadline::None)
    }
}

pub(crate) struct MulRequest {
    pub(crate) a: BigInt,
    pub(crate) b: BigInt,
    /// Submission sequence number; seeds deterministic chaos and backoff
    /// jitter for this request.
    pub(crate) index: u64,
    pub(crate) deadline: Deadline,
    pub(crate) enqueued_at: Instant,
    pub(crate) done: Slot,
}

/// One message on a lane's queue: a single request, or a whole bulk
/// submission travelling as one message. Carrying the batch unexploded
/// is the submit-side half of cross-request batching — one channel lock,
/// one timestamp, one wake-up of the dispatcher for `n` requests; the
/// dispatcher explodes it into per-request entries for gating/grouping.
pub(crate) enum Submission {
    One(MulRequest),
    Many(BatchJob),
}

pub(crate) struct BatchJob {
    pub(crate) pairs: Vec<(BigInt, BigInt)>,
    /// Sequence number of the first element; element `i` is
    /// `first_index + i` (chaos/jitter seeding stays per-request).
    pub(crate) first_index: u64,
    pub(crate) deadline: Deadline,
    pub(crate) enqueued_at: Instant,
    pub(crate) slots: Vec<Slot>,
}

impl BatchJob {
    /// Explode into per-request entries (dispatcher side).
    pub(crate) fn explode(self, round: &mut Vec<MulRequest>) {
        for (offset, ((a, b), done)) in self.pairs.into_iter().zip(self.slots).enumerate() {
            round.push(MulRequest {
                a,
                b,
                index: self.first_index + offset as u64,
                deadline: self.deadline,
                enqueued_at: self.enqueued_at,
                done,
            });
        }
    }
}

pub(crate) struct Shared {
    pub(crate) config: ServiceConfig,
    pub(crate) metrics: Metrics,
    pub(crate) plans: PlanCache,
    pub(crate) supervisor: Supervisor,
    /// The kernel policy currently in force. Starts as
    /// `config.kernel_policy`; the adaptive tuner republishes it from
    /// live latency data.
    pub(crate) live_policy: parking_lot::RwLock<crate::config::KernelPolicy>,
    /// Simulated fail-stop flag (see [`MulService::kill`]): when set, the
    /// admission gate resolves every not-yet-started request as
    /// `ServiceStopped` instead of executing it, so a sharded router can
    /// observe the loss and fail the work over to a survivor.
    pub(crate) killed: AtomicBool,
}

impl Shared {
    /// The kernel policy currently in force (tuner-adjusted).
    pub(crate) fn policy(&self) -> crate::config::KernelPolicy {
        self.live_policy.read().clone()
    }
}

/// The two-lane multiplication service. See the module docs for the
/// architecture and [`ServiceConfig`] for the knobs.
///
/// ```
/// use ft_service::{MulService, ServiceConfig};
/// use ft_bigint::BigInt;
///
/// let service = MulService::start(ServiceConfig::default());
/// let a: BigInt = "123456789123456789".parse().unwrap();
/// let b: BigInt = "-987654321987654321".parse().unwrap();
/// let handle = service.submit(a.clone(), b.clone()).unwrap();
/// assert_eq!(handle.wait().unwrap(), a.mul_schoolbook(&b));
/// let bulk = service.submit_many(vec![(a.clone(), b.clone()); 3]).unwrap();
/// for result in bulk.wait() {
///     assert_eq!(result.unwrap(), a.mul_schoolbook(&b));
/// }
/// service.shutdown();
/// ```
pub struct MulService {
    shared: Arc<Shared>,
    /// Queue senders, small lane first; emptied on shutdown, which
    /// disconnects both dispatchers.
    lanes: Vec<Sender<Submission>>,
    seq: AtomicU64,
    shutting_down: AtomicBool,
    dispatchers: Vec<JoinHandle<()>>,
    tuner: Option<crate::tuner::TunerHandle>,
}

/// Distinguishes lane threads across service instances in one process.
static SERVICE_ID: AtomicUsize = AtomicUsize::new(0);

impl MulService {
    /// Spawn both lane dispatchers and (when enabled) the adaptive tuner,
    /// and start accepting requests.
    ///
    /// # Panics
    /// Panics on a zero `batching.queue_capacity`;
    /// [`ServiceConfig::from_json`] rejects it earlier.
    #[must_use]
    pub fn start(config: ServiceConfig) -> MulService {
        assert!(
            config.batching.queue_capacity > 0,
            "batching.queue_capacity must be >= 1"
        );
        // Route ft-bigint's process-wide fast-multiply hook (BigInt::pow
        // and friends) through the Toom auto-dispatcher.
        let _ = ft_toom_core::seq::install_fast_mul_hook();
        let shared = Arc::new(Shared {
            plans: PlanCache::new(config.plan_cache_capacity),
            metrics: Metrics::default(),
            supervisor: Supervisor::new(
                config.retry.clone(),
                config.breaker.clone(),
                config.verify_residues,
                config.chaos.clone(),
                config
                    .distributed
                    .enabled
                    .then(|| DistributedBackend::new(&config.distributed)),
            ),
            live_policy: parking_lot::RwLock::new(config.kernel_policy.clone()),
            killed: AtomicBool::new(false),
            config,
        });
        // Resolve both Toom plans up front: the first coalesced batch
        // should not pay plan construction inside its latency.
        shared.plans.prewarm([
            shared.config.kernel_policy.seq_toom_k,
            shared.config.kernel_policy.par_toom_k,
        ]);
        let service_id = SERVICE_ID.fetch_add(1, Ordering::Relaxed) % 1_000;
        let (lanes, dispatchers) = ["small", "big"]
            .into_iter()
            .map(|lane| {
                let (tx, rx) = bounded::<Submission>(shared.config.batching.queue_capacity);
                let shared = shared.clone();
                let dispatcher = std::thread::Builder::new()
                    // Linux truncates thread names to 15 bytes.
                    .name(format!("ftsvc{service_id}-{lane}"))
                    .spawn(move || crate::dispatcher::dispatcher_loop(&rx, &shared))
                    .expect("spawn lane dispatcher");
                (tx, dispatcher)
            })
            .unzip();
        let tuner = shared
            .config
            .tuner
            .enabled
            .then(|| crate::tuner::spawn(shared.clone(), service_id));
        MulService {
            shared,
            lanes,
            seq: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            dispatchers,
            tuner,
        }
    }

    /// Submit `a × b` with no deadline. The request joins its lane's
    /// queue. An idle lane dispatches it at once; a busy one takes it
    /// with the rest of its backlog when the current round ends, and runs
    /// it with same-shape requests queued beside it as one batch kernel
    /// invocation. Returns immediately; resolve the handle by polling
    /// ([`ResponseHandle::try_wait`]), blocking, or callback
    /// ([`ResponseHandle::on_ready`]).
    pub fn submit(&self, a: BigInt, b: BigInt) -> Result<ResponseHandle, SubmitError> {
        self.submit_one(a, b, Deadline::None)
    }

    /// Submit `a × b`; if its lane does not start the request within
    /// `deadline`, it resolves to [`MulError::DeadlineExceeded`]. Huge
    /// deadlines (e.g. `Duration::MAX`) saturate to "never expires".
    pub fn submit_with_deadline(
        &self,
        a: BigInt,
        b: BigInt,
        deadline: Duration,
    ) -> Result<ResponseHandle, SubmitError> {
        self.submit_one(a, b, Deadline::after(deadline))
    }

    /// The one single-request path: [`Self::submit`],
    /// [`Self::submit_with_deadline`] and a shard's placements all enqueue
    /// here, the latter with the absolute deadline its router fixed once.
    pub(crate) fn submit_one(
        &self,
        a: BigInt,
        b: BigInt,
        deadline: Deadline,
    ) -> Result<ResponseHandle, SubmitError> {
        let bits = a.bit_length().max(b.bit_length());
        let (handle, done) = ResponseHandle::new();
        let request = MulRequest {
            a,
            b,
            index: self.seq.fetch_add(1, Ordering::Relaxed),
            deadline,
            enqueued_at: Instant::now(),
            done,
        };
        self.enqueue(bits, Submission::One(request))?;
        Ok(handle)
    }

    /// Bulk submission: enqueue `pairs` as ONE message for the lane of
    /// the largest operand and resolve them through one shared
    /// [`BatchHandle`]. This is the cross-request batching entry point —
    /// relative to `pairs.len()` calls of [`Self::submit`] it pays the
    /// channel lock, the enqueue timestamp, the slot-table allocation,
    /// and the client's blocking wait once per *batch* instead of once
    /// per request, mirroring the paper's per-batch (not
    /// per-multiplication) bandwidth/latency accounting. Elements still
    /// gate, group, verify, and count in metrics individually.
    ///
    /// The whole submission occupies one slot of its lane's queue
    /// regardless of length. Results come back in submission order.
    pub fn submit_many(&self, pairs: Vec<(BigInt, BigInt)>) -> Result<BatchHandle, SubmitError> {
        self.submit_many_inner(pairs, Deadline::None)
    }

    /// [`Self::submit_many`] with one deadline covering every element
    /// (same saturation semantics as [`Self::submit_with_deadline`]).
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
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let (handle, slots) = BatchHandle::new(pairs.len());
        let Some(bits) = pairs
            .iter()
            .map(|(a, b)| a.bit_length().max(b.bit_length()))
            .max()
        else {
            // Nothing to enqueue; the handle resolves immediately.
            return Ok(handle);
        };
        let first_index = self.seq.fetch_add(pairs.len() as u64, Ordering::Relaxed);
        let job = BatchJob {
            pairs,
            first_index,
            deadline,
            enqueued_at: Instant::now(),
            slots,
        };
        // A rejected job's slots resolve the handle as ServiceStopped on
        // drop; the caller only sees the error.
        self.enqueue(bits, Submission::Many(job))?;
        Ok(handle)
    }

    /// Send `submission` to the lane that owns products whose larger
    /// operand has `bits` bits.
    fn enqueue(&self, bits: u64, submission: Submission) -> Result<(), SubmitError> {
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let lane = usize::from(bits > self.shared.config.kernel_policy.toom_threshold_bits);
        let Some(tx) = self.lanes.get(lane) else {
            return Err(SubmitError::ShuttingDown);
        };
        match tx.try_send_counted(submission) {
            Ok(depth) => {
                // The high-water mark tracks the backlog of both lanes.
                let other = self.lanes.get(1 - lane).map_or(0, Sender::len);
                self.shared
                    .metrics
                    .raise(Stat::QueueDepthHighWater, (depth + other) as u64);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.shared.metrics.add(Stat::RejectedQueueFull, 1);
                Err(SubmitError::QueueFull {
                    capacity: self.shared.config.batching.queue_capacity,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Point-in-time metrics (counters plus current total queue depth).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared
            .metrics
            .snapshot(self.queue_depth(), self.shared.plans.stats())
    }

    /// Current queue depth summed over both lanes, without the full
    /// snapshot walk of [`MulService::metrics`] — cheap enough for
    /// per-rejection use, e.g. deriving an HTTP `Retry-After` from live
    /// backlog.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.lanes.iter().map(Sender::len).sum()
    }

    /// The configuration the service was started with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// The kernel policy currently in force: the configured one until the
    /// adaptive tuner republishes thresholds from live latency data.
    #[must_use]
    pub fn live_policy(&self) -> crate::config::KernelPolicy {
        self.shared.policy()
    }

    /// Simulated fail-stop: refuse new submissions and resolve every
    /// accepted-but-unstarted request, in either lane, as
    /// [`MulError::ServiceStopped`] the moment its dispatcher dequeues
    /// it. Requests already executing complete (and verify) normally — a
    /// fail-stop processor finishes nothing *new*, but this in-process
    /// simulation keeps its promises resolvable so no waiter ever hangs.
    /// Both lane threads stay up to drain the surrendered queues;
    /// [`Self::shutdown`] still works afterwards and returns the final
    /// metrics.
    pub fn kill(&self) {
        self.shutting_down.store(true, Ordering::Release);
        self.shared.killed.store(true, Ordering::Release);
    }

    /// Whether [`Self::kill`] was called.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.shared.killed.load(Ordering::Acquire)
    }

    /// Stop accepting work, drain every accepted request, join both
    /// lanes, and return the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.shared.metrics.snapshot(0, self.shared.plans.stats())
    }

    fn stop_and_join(&mut self) {
        self.shutting_down.store(true, Ordering::Release);
        if let Some(tuner) = self.tuner.take() {
            tuner.stop();
        }
        // Disconnect both lanes; each dispatcher drains whatever its lane
        // already accepted, then exits.
        self.lanes.clear();
        for dispatcher in self.dispatchers.drain(..) {
            let _ = dispatcher.join();
        }
    }
}

impl Drop for MulService {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Apply the pre-execution admission checks: reject a request whose
/// deadline has already passed (counted `timed_out` — this includes the
/// race where the deadline expires between dequeue and this check), shed
/// an over-aged deadline-less request. Returns the request when it should
/// run; `None` when it was resolved with a rejection. `now` is sampled by
/// the caller (once per dequeued batch, not per element — clock reads
/// are a measurable cost at coalesced-round sizes).
pub(crate) fn gate(request: MulRequest, now: Instant, shared: &Shared) -> Option<MulRequest> {
    if shared.killed.load(Ordering::Acquire) {
        // Simulated fail-stop: unstarted work is surrendered, not served.
        // The router's completion callback re-routes it to a live shard.
        request.done.fill(Err(MulError::ServiceStopped));
        return None;
    }
    let waited = now.saturating_duration_since(request.enqueued_at);
    if request.deadline.expired(now) {
        shared.metrics.add(Stat::TimedOut, 1);
        request
            .done
            .fill(Err(MulError::DeadlineExceeded { waited }));
        return None;
    }
    if request.deadline.sheddable() {
        if let Some(shed_after_ms) = shared.config.shed_after_ms {
            if waited > Duration::from_millis(shed_after_ms) {
                shared.metrics.add(Stat::Shed, 1);
                request.done.fill(Err(MulError::Shed { waited }));
                return None;
            }
        }
    }
    Some(request)
}

/// Execute one admitted request on the individual supervised path and
/// publish its result.
pub(crate) fn execute_single(request: MulRequest, shared: &Shared) {
    let policy = shared.policy();
    let selected = Kernel::select(&request.a, &request.b, &policy);
    match shared.supervisor.execute(
        &request.a,
        &request.b,
        request.index,
        selected,
        &policy,
        &shared.plans,
        &shared.metrics,
    ) {
        Ok((product, kernel)) => {
            let bits = request.a.bit_length().min(request.b.bit_length());
            shared
                .metrics
                .record_served(kernel, bits, request.enqueued_at.elapsed());
            request.done.fill(Ok(product));
        }
        Err(error) => request.done.fill(Err(error)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchingConfig, KernelPolicy, TunerConfig};
    use crate::supervisor::RetryPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// Schoolbook for every size, so a 400 kbit product keeps the big
    /// lane busy for hundreds of milliseconds — the deterministic
    /// "blocker" for the robustness tests below.
    fn blocker_policy() -> KernelPolicy {
        KernelPolicy {
            schoolbook_max_bits: u64::MAX,
            ..KernelPolicy::default()
        }
    }

    /// An operand just past the default lane boundary: it queues in the
    /// big lane, behind a blocker, yet multiplies in well under a
    /// millisecond.
    fn big_lane_operand(rng: &mut StdRng) -> BigInt {
        BigInt::random_bits(rng, 30_000)
    }

    /// Poll `done` until it holds, failing the test after a generous
    /// deadline rather than hanging it.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Submit a 400 kbit blocker and wait until the big lane has closed
    /// its round and started grinding it, so that nothing submitted
    /// later can join that round.
    fn start_blocker(service: &MulService, rng: &mut StdRng) -> (ResponseHandle, BigInt) {
        let big = BigInt::random_bits(rng, 400_000);
        let want = big.mul_schoolbook(&big);
        let handle = service
            .submit_with_deadline(big.clone(), big, Duration::from_secs(3600))
            .unwrap();
        wait_until("the blocker's round is dispatched", || {
            service.metrics().batches == 1
        });
        (handle, want)
    }

    /// The head-of-line regression: a kilobit product submitted behind a
    /// 400 kbit schoolbook product resolves while the big one is still
    /// pending, because the two never share a queue or a thread.
    #[test]
    fn small_products_do_not_queue_behind_big_ones() {
        let service = MulService::start(ServiceConfig {
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        });
        let mut rng = rng(9);
        let big_a = BigInt::random_signed_bits(&mut rng, 400_000);
        let big_b = BigInt::random_signed_bits(&mut rng, 400_000);
        let small_a = BigInt::random_signed_bits(&mut rng, 1_000);
        let small_b = BigInt::random_signed_bits(&mut rng, 1_000);
        let big_want = big_a.mul_schoolbook(&big_b);
        let small_want = small_a.mul_schoolbook(&small_b);
        let blocker = service.submit(big_a, big_b).unwrap();
        let small = service.submit(small_a, small_b).unwrap();
        assert_eq!(small.wait().unwrap(), small_want);
        let blocker = match blocker.try_wait() {
            Err(handle) => handle,
            Ok(r) => panic!("the small product waited for the 400 kbit one: {r:?}"),
        };
        assert_eq!(blocker.wait().unwrap(), big_want);
        assert_eq!(service.shutdown().served, 2);
    }

    #[test]
    fn kill_surrenders_queued_work_and_refuses_new_submits() {
        // The big lane is pinned by a slow schoolbook blocker; everything
        // queued behind it must resolve ServiceStopped after kill(), and
        // the blocker itself (already started) must complete normally.
        let service = MulService::start(ServiceConfig {
            kernel_policy: blocker_policy(),
            verify_residues: false,
            ..ServiceConfig::default()
        });
        let mut rng = rng(77);
        let (blocker, want) = start_blocker(&service, &mut rng);
        let x = big_lane_operand(&mut rng);
        let queued: Vec<_> = (0..4)
            .map(|_| service.submit(x.clone(), x.clone()).unwrap())
            .collect();
        service.kill();
        assert!(service.is_killed());
        assert!(matches!(
            service.submit(x.clone(), x.clone()),
            Err(SubmitError::ShuttingDown)
        ));
        for handle in queued {
            assert_eq!(handle.wait(), Err(MulError::ServiceStopped));
        }
        assert_eq!(blocker.wait().unwrap(), want);
        let snap = service.shutdown();
        assert_eq!(snap.served, 1, "only the started request completed");
    }

    #[test]
    fn serves_and_verifies_small_batch() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(10);
        let mut expected = Vec::new();
        let mut handles = Vec::new();
        for bits in [100u64, 3_000, 20_000, 150_000] {
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            expected.push(a.mul_schoolbook(&b));
            handles.push(service.submit(a, b).unwrap());
        }
        for (handle, want) in handles.into_iter().zip(expected) {
            assert_eq!(handle.wait().unwrap(), want);
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.served, 4);
        // Default thresholds route 100 bits → schoolbook and everything
        // else here → sequential Toom: with the limb-kernel base case the
        // schoolbook band ends at 2 kbit, and the parallel kernel only
        // pays at multi-megabit sizes (far beyond what a unit test
        // should multiply).
        assert_eq!(metrics.per_kernel[0].1, 1);
        assert_eq!(metrics.per_kernel[1].1, 3);
        assert_eq!(metrics.per_kernel[2].1, 0);
    }

    #[test]
    fn backpressure_rejects_when_a_lane_fills() {
        let service = MulService::start(ServiceConfig {
            kernel_policy: blocker_policy(),
            batching: BatchingConfig {
                queue_capacity: 2,
                ..BatchingConfig::default()
            },
            ..ServiceConfig::default()
        });
        let mut rng = rng(11);
        let (blocker, want) = start_blocker(&service, &mut rng);
        let x = big_lane_operand(&mut rng);
        // While the big lane grinds the blocker, its depth-2 queue holds
        // 2 of these 4; the other 2 bounce with the lane's capacity.
        let results: Vec<_> = (0..4)
            .map(|_| service.submit(x.clone(), x.clone()))
            .collect();
        let rejected = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(rejected, 2);
        for r in &results {
            if let Err(e) = r {
                assert_eq!(*e, SubmitError::QueueFull { capacity: 2 });
            }
        }
        // A whole bulk job bounces the same way…
        assert_eq!(
            service.submit_many(vec![(x.clone(), x.clone()); 4]).err(),
            Some(SubmitError::QueueFull { capacity: 2 })
        );
        // …while the small lane still admits and serves.
        let tiny = BigInt::random_bits(&mut rng, 64);
        let served = service.submit(tiny.clone(), tiny.clone()).unwrap();
        assert_eq!(served.wait().unwrap(), tiny.mul_schoolbook(&tiny));
        assert_eq!(service.queue_depth(), 2, "depth sums both lanes");
        let expect = x.mul_schoolbook(&x);
        for handle in results.into_iter().flatten() {
            assert_eq!(handle.wait().unwrap(), expect);
        }
        assert_eq!(blocker.wait().unwrap(), want);
        let metrics = service.shutdown();
        assert_eq!(metrics.rejected_queue_full, 3);
        // The tiny request joined an empty small lane beside a full big
        // lane: the high-water mark counts both.
        assert_eq!(metrics.queue_depth_high_water, 3);
    }

    #[test]
    fn deadline_in_queue_times_out() {
        let service = MulService::start(ServiceConfig {
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        });
        let mut rng = rng(12);
        let (blocker, _) = start_blocker(&service, &mut rng);
        let x = big_lane_operand(&mut rng);
        let doomed = service
            .submit_with_deadline(x.clone(), x, Duration::from_millis(1))
            .unwrap();
        match doomed.wait() {
            Err(MulError::DeadlineExceeded { waited }) => {
                assert!(waited >= Duration::from_millis(1));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(blocker.wait().is_ok());
        assert_eq!(service.shutdown().timed_out, 1);
    }

    /// `submit_with_deadline(Duration::MAX)` must saturate to a
    /// never-expiring deadline instead of overflowing `Instant`.
    #[test]
    fn huge_deadlines_saturate_instead_of_panicking() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(17);
        let a = BigInt::random_signed_bits(&mut rng, 600);
        let b = BigInt::random_signed_bits(&mut rng, 600);
        let want = a.mul_schoolbook(&b);
        for huge in [Duration::MAX, Duration::MAX - Duration::from_nanos(1)] {
            let handle = service
                .submit_with_deadline(a.clone(), b.clone(), huge)
                .unwrap();
            assert_eq!(handle.wait().unwrap(), want);
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.served, 2);
        assert_eq!(metrics.timed_out, 0, "a Far deadline never expires");
    }

    /// The largest retry budget must not overflow the attempt count and
    /// take the lane down with it.
    #[test]
    fn huge_retry_budgets_saturate_instead_of_panicking() {
        let service = MulService::start(ServiceConfig {
            retry: RetryPolicy {
                max_retries: u32::MAX,
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        });
        let mut rng = rng(18);
        for _ in 0..2 {
            let a = BigInt::random_signed_bits(&mut rng, 600);
            let b = BigInt::random_signed_bits(&mut rng, 600);
            let want = a.mul_schoolbook(&b);
            assert_eq!(service.submit(a, b).unwrap().wait().unwrap(), want);
        }
        assert_eq!(service.shutdown().served, 2);
    }

    /// A saturated (`Far`) deadline is still a deadline — shedding must
    /// not touch it.
    #[test]
    fn far_deadline_is_not_sheddable() {
        let service = MulService::start(ServiceConfig {
            shed_after_ms: Some(0),
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        });
        let mut rng = rng(18);
        let (blocker, _) = start_blocker(&service, &mut rng);
        let x = big_lane_operand(&mut rng);
        // Queued behind the blocker with shed_after_ms = 0: a deadline-less
        // request would be shed, but Duration::MAX saturates to Far which
        // still counts as deadline-carrying.
        let kept = service
            .submit_with_deadline(x.clone(), x.clone(), Duration::MAX)
            .unwrap();
        assert_eq!(kept.wait().unwrap(), x.mul_schoolbook(&x));
        assert!(blocker.wait().is_ok());
        assert_eq!(service.shutdown().shed, 0);
    }

    #[test]
    fn overaged_requests_are_shed() {
        let service = MulService::start(ServiceConfig {
            shed_after_ms: Some(0),
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        });
        let mut rng = rng(13);
        // The blocker carries a generous deadline so shedding (which only
        // applies to deadline-less requests) cannot touch it.
        let (blocker, _) = start_blocker(&service, &mut rng);
        let x = big_lane_operand(&mut rng);
        let shed = service.submit(x.clone(), x).unwrap();
        match shed.wait() {
            Err(MulError::Shed { .. }) => {}
            other => panic!("expected Shed, got {other:?}"),
        }
        assert!(blocker.wait().is_ok());
        assert_eq!(service.shutdown().shed, 1);
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(14);
        let handles: Vec<_> = [2_000u64, 40_000]
            .into_iter()
            .cycle()
            .take(16)
            .map(|bits| {
                let a = BigInt::random_signed_bits(&mut rng, bits);
                let b = BigInt::random_signed_bits(&mut rng, bits);
                let want = a.mul_schoolbook(&b);
                (service.submit(a, b).unwrap(), want)
            })
            .collect();
        let metrics = service.shutdown();
        assert_eq!(metrics.served, 16);
        for (handle, want) in handles {
            assert_eq!(handle.wait().unwrap(), want);
        }
    }

    #[test]
    fn wait_timeout_returns_the_handle_then_the_result() {
        let service = MulService::start(ServiceConfig {
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        });
        let mut rng = rng(15);
        let big = BigInt::random_bits(&mut rng, 400_000);
        let handle = service.submit(big.clone(), big.clone()).unwrap();
        // The big lane is still grinding: the timeout hands the handle
        // back.
        let handle = match handle.wait_timeout(Duration::from_millis(1)) {
            Err(handle) => handle,
            Ok(r) => panic!("400kbit product finished in 1 ms: {r:?}"),
        };
        // The same handle still resolves to the real product.
        match handle.wait_timeout(Duration::from_secs(600)) {
            Ok(result) => assert_eq!(result.unwrap(), big.mul_schoolbook(&big)),
            Err(_) => panic!("400kbit product did not finish in 600 s"),
        }
        service.shutdown();
    }

    #[test]
    fn submit_after_shutdown_flag_is_rejected() {
        let service = MulService::start(ServiceConfig::default());
        service.shutting_down.store(true, Ordering::Release);
        let one: BigInt = "1".parse().unwrap();
        assert!(matches!(
            service.submit(one.clone(), one.clone()),
            Err(SubmitError::ShuttingDown)
        ));
        assert!(matches!(
            service.submit_many(vec![(one.clone(), one)]),
            Err(SubmitError::ShuttingDown)
        ));
    }

    /// Request 0 is a forced straggler: its round sleeps 250 ms on the
    /// small lane, so whatever is submitted meanwhile queues behind it.
    /// The tuner is off, so every request keeps its kernel.
    fn stalled_config(max_batch: usize) -> ServiceConfig {
        ServiceConfig {
            chaos: Some(crate::chaos::ChaosConfig {
                straggle_ms: 250,
                force: vec![(0, crate::chaos::FaultKind::Straggle)],
                ..crate::chaos::ChaosConfig::default()
            }),
            batching: BatchingConfig {
                max_batch,
                ..BatchingConfig::default()
            },
            tuner: TunerConfig {
                enabled: false,
                ..TunerConfig::default()
            },
            ..ServiceConfig::default()
        }
    }

    /// Submit request 0 of a [`stalled_config`] service and wait until
    /// its round has closed and the straggle began, so that nothing
    /// submitted later can join that round.
    fn start_straggler(service: &MulService, rng: &mut StdRng) -> ResponseHandle {
        let x = BigInt::random_bits(rng, 500);
        let handle = service.submit(x.clone(), x).unwrap();
        // The injection is metered just before the attempt sleeps.
        wait_until("the straggle is injected", || {
            service.metrics().injected_faults[crate::chaos::FaultKind::Straggle as usize].1 == 1
        });
        handle
    }

    /// `n` products of `bits`-bit operands, one size class and kernel,
    /// with their expected results.
    fn same_class_work(n: usize, bits: u64, rng: &mut StdRng) -> Vec<(BigInt, BigInt, BigInt)> {
        (0..n)
            .map(|_| {
                let a = BigInt::random_signed_bits(rng, bits);
                let b = BigInt::random_signed_bits(rng, bits);
                let want = a.mul_schoolbook(&b);
                (a, b, want)
            })
            .collect()
    }

    /// Submit `work` and check every product.
    fn submit_and_check(service: &MulService, work: Vec<(BigInt, BigInt, BigInt)>) {
        let handles: Vec<_> = work
            .into_iter()
            .map(|(a, b, want)| (service.submit(a, b).unwrap(), want))
            .collect();
        for (handle, want) in handles {
            assert_eq!(handle.wait().unwrap(), want);
        }
    }

    /// A backlog coalesces in rounds of at most `max_batch`: ten
    /// same-class requests queued behind a stalled round run as a group
    /// of eight, then a group of two.
    #[test]
    fn requests_resolve_and_coalesce() {
        let service = MulService::start(stalled_config(8));
        let mut rng = rng(19);
        // Same size class (4 kbit) and kernel → coalesced groups.
        let work = same_class_work(10, 4_000, &mut rng);
        let straggler = start_straggler(&service, &mut rng);
        submit_and_check(&service, work);
        assert!(straggler.wait().is_ok());
        let metrics = service.shutdown();
        assert_eq!(metrics.served, 11);
        // The straggler's round, then eight, then two.
        assert_eq!((metrics.batches, metrics.batched_requests), (3, 11));
        assert_eq!(metrics.batch_size_high_water, 8);
    }

    /// Group commit: a lane never waits for companions. N same-class
    /// requests queued behind a stalled round run as one group of N, and
    /// a lone request submitted once the lane is idle runs as a round of
    /// its own.
    #[test]
    fn group_commit_runs_the_backlog_as_one_group() {
        const N: usize = 5;
        let service = MulService::start(stalled_config(BatchingConfig::default().max_batch));
        let mut rng = rng(35);
        let work = same_class_work(N, 1_000, &mut rng);
        let straggler = start_straggler(&service, &mut rng);
        submit_and_check(&service, work);
        assert!(straggler.wait().is_ok());
        let metrics = service.metrics();
        assert_eq!(
            (metrics.batches, metrics.batched_requests),
            (2, 1 + N as u64)
        );
        assert_eq!(metrics.batch_size_high_water, N);
        submit_and_check(&service, same_class_work(1, 1_000, &mut rng));
        let metrics = service.shutdown();
        assert_eq!(metrics.served, 2 + N as u64);
        assert_eq!(
            (metrics.batches, metrics.batched_requests),
            (3, 2 + N as u64)
        );
        assert_eq!(metrics.batch_size_high_water, N);
    }

    #[test]
    fn mixed_shapes_resolve_correctly_in_both_lanes() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(20);
        let mut handles = Vec::new();
        for bits in [100u64, 700, 3_000, 30_000, 20_000, 100, 40_000, 64] {
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            let want = a.mul_schoolbook(&b);
            handles.push((service.submit(a, b).unwrap(), want));
        }
        // One unbalanced pair: the larger operand picks the big lane.
        let a = BigInt::random_signed_bits(&mut rng, 64);
        let b = BigInt::random_signed_bits(&mut rng, 50_000);
        let want = a.mul_schoolbook(&b);
        handles.push((service.submit(a, b).unwrap(), want));
        for (handle, want) in handles {
            assert_eq!(handle.wait().unwrap(), want);
        }
        assert_eq!(service.shutdown().served, 9);
    }

    #[test]
    fn on_ready_callback_fires_with_the_product() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(21);
        let a = BigInt::random_signed_bits(&mut rng, 2_000);
        let b = BigInt::random_signed_bits(&mut rng, 2_000);
        let want = a.mul_schoolbook(&b);
        let (tx, rx) = std::sync::mpsc::channel();
        service
            .submit(a, b)
            .unwrap()
            .on_ready(move |result| tx.send(result).unwrap());
        let got = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        assert_eq!(got.unwrap(), want);
        // A lone request is counted as a dispatch group of one.
        let metrics = service.metrics();
        assert_eq!((metrics.batches, metrics.batched_requests), (1, 1));
        // A callback registered after resolution fires immediately.
        let c = BigInt::random_signed_bits(&mut rng, 1_000);
        let d = BigInt::random_signed_bits(&mut rng, 1_000);
        let want2 = c.mul_schoolbook(&d);
        let handle = service.submit(c, d).unwrap();
        // Wait for completion through the metrics, keeping the handle.
        let deadline = Instant::now() + Duration::from_secs(60);
        while service.metrics().served < 2 {
            assert!(Instant::now() < deadline, "request did not complete");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (tx, rx) = std::sync::mpsc::channel();
        handle.on_ready(move |result| tx.send(result).unwrap());
        assert_eq!(rx.try_recv().unwrap().unwrap(), want2);
        service.shutdown();
    }

    #[test]
    fn on_ready_reports_service_stopped_for_dropped_requests() {
        let service = MulService::start(ServiceConfig {
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        });
        let mut rng = rng(22);
        let big = BigInt::random_bits(&mut rng, 300_000);
        let blocker = service.submit(big.clone(), big).unwrap();
        let x = big_lane_operand(&mut rng);
        let (tx, rx) = std::sync::mpsc::channel();
        service
            .submit(x.clone(), x)
            .unwrap()
            .on_ready(move |result| tx.send(result).unwrap());
        // Shutdown drains the big lane, so the callback fires with the
        // real product (or ServiceStopped if the dispatcher lost it —
        // either way it *fires*).
        drop(blocker);
        service.shutdown();
        let got = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        assert!(matches!(got, Ok(_) | Err(MulError::ServiceStopped)));
    }

    /// A request whose deadline expires while it sits in the queue behind
    /// a chaos-injected straggler must resolve as `DeadlineExceeded` and
    /// count in `timed_out` — never in `served`.
    #[test]
    fn deadline_expiring_behind_straggler_counts_timed_out() {
        crate::chaos::install_quiet_panic_hook();
        let service = MulService::start(stalled_config(BatchingConfig::default().max_batch));
        let mut rng = rng(24);
        let straggler = start_straggler(&service, &mut rng);
        let x = BigInt::random_bits(&mut rng, 500);
        let doomed = service
            .submit_with_deadline(x.clone(), x.clone(), Duration::from_millis(5))
            .unwrap();
        assert!(straggler.wait().is_ok());
        match doomed.wait() {
            Err(MulError::DeadlineExceeded { waited }) => {
                assert!(waited >= Duration::from_millis(5));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.timed_out, 1);
        assert_eq!(metrics.served, 1, "the doomed request must not serve");
    }

    #[test]
    fn submit_many_resolves_in_submission_order() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(26);
        let mut pairs = Vec::new();
        let mut want = Vec::new();
        // Mixed sizes in one bulk submission: the dispatcher explodes it
        // into several (kernel, size-class) groups, yet results must come
        // back in submission order.
        for bits in [100u64, 700, 100, 3_000, 700, 3_100, 64, 100] {
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            want.push(a.mul_schoolbook(&b));
            pairs.push((a, b));
        }
        let handle = service.submit_many(pairs).unwrap();
        assert_eq!(handle.len(), 8);
        let results = handle.wait();
        assert_eq!(results.len(), 8);
        for (result, want) in results.into_iter().zip(want) {
            assert_eq!(result.unwrap(), want);
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.served, 8);
        assert!(metrics.batches >= 1);
    }

    #[test]
    fn submit_many_empty_resolves_immediately() {
        let service = MulService::start(ServiceConfig::default());
        let handle = service.submit_many(Vec::new()).unwrap();
        assert!(handle.is_empty());
        assert_eq!(handle.try_wait().map_err(|_| ()).unwrap(), Vec::new());
        service.shutdown();
    }

    #[test]
    fn submit_many_deadline_covers_every_element() {
        crate::chaos::install_quiet_panic_hook();
        // The dispatcher grinds a forced straggler first; the bulk
        // submission's 5 ms deadline expires in-queue for ALL elements.
        let config = ServiceConfig {
            chaos: Some(crate::chaos::ChaosConfig {
                straggle_ms: 80,
                force: vec![(0, crate::chaos::FaultKind::Straggle)],
                ..crate::chaos::ChaosConfig::default()
            }),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(27);
        let x = BigInt::random_bits(&mut rng, 500);
        let straggler = service.submit(x.clone(), x.clone()).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let doomed = service
            .submit_many_with_deadline(
                vec![(x.clone(), x.clone()), (x.clone(), x.clone())],
                Duration::from_millis(5),
            )
            .unwrap();
        assert!(straggler.wait().is_ok());
        for result in doomed.wait() {
            match result {
                Err(MulError::DeadlineExceeded { .. }) => {}
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        let metrics = service.shutdown();
        assert_eq!(metrics.timed_out, 2);
        assert_eq!(metrics.served, 1);
    }

    #[test]
    fn submit_many_wait_survives_shutdown_drain() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(28);
        let pairs: Vec<_> = (0..16)
            .map(|_| {
                (
                    BigInt::random_signed_bits(&mut rng, 1_000),
                    BigInt::random_signed_bits(&mut rng, 1_000),
                )
            })
            .collect();
        let want: Vec<_> = pairs.iter().map(|(a, b)| a.mul_schoolbook(b)).collect();
        let handle = service.submit_many(pairs).unwrap();
        // Shutdown drains the accepted job; every slot must resolve (to
        // the real product here — the drop-guards would resolve lost
        // slots as ServiceStopped instead of hanging the wait).
        service.shutdown();
        for (result, want) in handle.wait().into_iter().zip(want) {
            assert_eq!(result.unwrap(), want);
        }
    }

    #[test]
    fn streamed_slot_resolves_before_the_batch_completes() {
        let config = ServiceConfig {
            kernel_policy: blocker_policy(),
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = rng(33);
        let tiny = BigInt::random_bits(&mut rng, 64);
        let big = BigInt::random_bits(&mut rng, 400_000);
        // Different size classes: the dispatcher executes the tiny
        // element's group before the 400kbit blocker's, so slot 0 lands
        // long before slot 1.
        let mut stream = service
            .submit_many(vec![
                (tiny.clone(), tiny.clone()),
                (big.clone(), big.clone()),
            ])
            .unwrap()
            .into_iter();
        assert_eq!(stream.next().unwrap().unwrap(), tiny.mul_schoolbook(&tiny));
        assert_eq!(
            service.metrics().served,
            1,
            "slot 0 streamed out while its 400kbit batch-mate was still running"
        );
        assert_eq!(stream.next().unwrap().unwrap(), big.mul_schoolbook(&big));
        assert!(stream.next().is_none());
        service.shutdown();
    }

    #[test]
    fn streaming_iteration_yields_results_in_submission_order() {
        let service = MulService::start(ServiceConfig::default());
        let mut rng = rng(34);
        let mut pairs = Vec::new();
        let mut want = Vec::new();
        for bits in [3_000u64, 100, 700, 64] {
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            want.push(a.mul_schoolbook(&b));
            pairs.push((a, b));
        }
        let handle = service.submit_many(pairs).unwrap();
        let stream = handle.into_iter();
        assert_eq!(stream.len(), 4);
        let mut yielded = 0;
        for (result, want) in stream.zip(want) {
            assert_eq!(result.unwrap(), want);
            yielded += 1;
        }
        assert_eq!(yielded, 4);
        service.shutdown();
    }
}
