//! The group-commit dispatcher: the loop each execution lane runs on its
//! own thread (see [`crate::service`] for the small/big lane split).
//!
//! The loop consumes its lane's queue. A round is the first queued
//! message plus whatever is already queued behind it, taken in one
//! `try_recv_many` up to `batching.max_batch` requests, and it is
//! dispatched at once: the lane never waits for companions. Batching
//! comes from the backlog that builds while the lane runs a round, as in
//! a database's group commit — an idle lane serves a lone request
//! alone, a loaded one takes the whole backlog. The round is partitioned
//! by `(kernel, operand size class)`, and each group of two or more runs
//! as ONE supervised batch on this thread — one plan resolution, one
//! chaos/`catch_unwind` boundary, one breaker update for the whole group,
//! and every product verified while it is still cache-hot (see
//! [`crate::supervisor::Supervisor::execute_batch`]). Singleton groups
//! take the ordinary per-request path.
//!
//! This is the serving-layer analogue of the paper's cost accounting:
//! bandwidth and latency are charged per *batch* of parallel
//! multiplications, so same-shape requests should share one submission
//! into the engine instead of paying per-request overhead `n` times.
//! Sweeping the backlog in one `try_recv_many` is one lock hand-off per
//! round, not one per request, so a loaded dispatcher stops contending
//! with submitters on the channel mutex.

use crate::kernel::Kernel;
use crate::metrics::size_class;
use crate::service::{execute_single, gate, MulRequest, Shared, Submission};
use crossbeam::channel::Receiver;
use std::time::Instant;

/// Run the dispatcher until its lane's channel disconnects and drains.
///
/// Each queue message is a [`Submission`]: a single request or a whole
/// bulk job, exploded here into per-request round entries. `max_batch`
/// bounds how many requests a round collects; a bulk job always joins
/// its round whole, so rounds may exceed `max_batch` elements rather
/// than split a client's batch.
pub(crate) fn dispatcher_loop(rx: &Receiver<Submission>, shared: &Shared) {
    let max_batch = shared.config.batching.max_batch;
    let mut round: Vec<MulRequest> = Vec::with_capacity(max_batch);
    let mut backlog: Vec<Submission> = Vec::with_capacity(max_batch);
    // recv keeps returning queued requests after disconnect until the
    // queue is empty, so shutdown drains everything already accepted.
    while let Ok(first) = rx.recv() {
        explode(first, &mut round);
        rx.try_recv_many(&mut backlog, max_batch.saturating_sub(round.len()));
        for submission in backlog.drain(..) {
            explode(submission, &mut round);
        }
        dispatch_round(&mut round, shared);
    }
}

/// Turn one queue message into per-request round entries.
fn explode(submission: Submission, round: &mut Vec<MulRequest>) {
    match submission {
        Submission::One(request) => round.push(request),
        Submission::Many(job) => job.explode(round),
    }
}

/// One coalesced group: its kernel, its size class, and the member
/// requests tagged with their (already computed) operand bit length.
type Group = (Kernel, usize, Vec<(u64, MulRequest)>);

/// Gate, group, and execute one collected round.
fn dispatch_round(round: &mut Vec<MulRequest>, shared: &Shared) {
    let policy = shared.policy();
    // Grouping key: (kernel, size class). Insertion-ordered Vec — rounds
    // are tiny (≤ max_batch), a hash map would be overhead.
    let mut groups: Vec<Group> = Vec::new();
    let now = Instant::now();
    for request in round.drain(..) {
        let Some(request) = gate(request, now, shared) else {
            continue;
        };
        let kernel = Kernel::select(&request.a, &request.b, &policy);
        let bits = request.a.bit_length().min(request.b.bit_length());
        let class = size_class(bits);
        match groups
            .iter_mut()
            .find(|(k, c, _)| *k == kernel && *c == class)
        {
            Some((_, _, members)) => members.push((bits, request)),
            None => groups.push((kernel, class, vec![(bits, request)])),
        }
    }
    for (kernel, _class, mut members) in groups {
        if members.len() == 1 {
            shared.metrics.record_batch(1);
            let (_, member) = members.pop().expect("len == 1");
            execute_single(member, shared);
        } else {
            let kernel = promote(kernel, &members, shared);
            execute_group(kernel, members, &policy, shared);
        }
    }
}

/// Promote an eligible coalesced group to the distributed backend (the
/// simulated coded machine). [`Kernel::select`] never picks
/// [`Kernel::DistributedToom`]; promotion is the dispatcher's decision —
/// the backend must be enabled, the group big enough to amortise a
/// machine spin-up per element, and every member inside the configured
/// operand-size window. The supervisor still owns what happens next:
/// breakers can divert the promoted group, and unrecoverable runs walk
/// the ordinary degradation ladder back to the local kernels.
fn promote(kernel: Kernel, members: &[(u64, MulRequest)], shared: &Shared) -> Kernel {
    let dist = &shared.config.distributed;
    if !dist.enabled || kernel == Kernel::Schoolbook {
        return kernel;
    }
    if members.len() < dist.min_group {
        return kernel;
    }
    let eligible = members
        .iter()
        .all(|&(bits, _)| bits >= dist.min_bits && bits <= dist.max_bits);
    if eligible {
        Kernel::DistributedToom
    } else {
        kernel
    }
}

/// Execute one coalesced group as a single supervised batch and publish
/// per-element results.
fn execute_group(
    kernel: Kernel,
    members: Vec<(u64, MulRequest)>,
    policy: &crate::config::KernelPolicy,
    shared: &Shared,
) {
    shared.metrics.record_batch(members.len());
    let mut pairs = Vec::with_capacity(members.len());
    let mut meta = Vec::with_capacity(members.len());
    let mut requests = Vec::with_capacity(members.len());
    for (bits, member) in members {
        requests.push(member.index);
        meta.push((bits, member.enqueued_at, member.done));
        pairs.push((member.a, member.b));
    }
    let results = shared.supervisor.execute_batch(
        &pairs,
        &requests,
        kernel,
        policy,
        &shared.plans,
        &shared.metrics,
    );
    // Stage every result first, then wake: see `Slot::stage`.
    let done_at = Instant::now();
    let mut wakers = Vec::with_capacity(meta.len());
    for (result, (bits, enqueued_at, done)) in results.into_iter().zip(meta) {
        let staged = match result {
            Ok((product, used_kernel)) => {
                let latency = done_at.saturating_duration_since(enqueued_at);
                shared.metrics.record_served(used_kernel, bits, latency);
                done.stage(Ok(product))
            }
            Err(error) => done.stage(Err(error)),
        };
        wakers.extend(staged);
    }
    drop(wakers);
}
