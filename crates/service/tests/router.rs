//! Sharded-topology tests: rendezvous placement properties, shard death
//! detected by heartbeat and survived by failover, cross-shard work
//! stealing, saturation shedding, stall → rejoin, and request
//! conservation under random shard kills and stalls.

use ft_bigint::BigInt;
use ft_service::router::{placement_key, rendezvous_owner, rendezvous_weight, Router, ShardState};
use ft_service::{
    BatchingConfig, ChaosConfig, FaultKind, KernelPolicy, MulError, ServiceConfig, ShardConfig,
    SubmitError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// All-schoolbook policy: placement then depends only on the size class,
/// and lane time is predictable for blocker-style tests.
fn schoolbook_only() -> KernelPolicy {
    KernelPolicy {
        schoolbook_max_bits: 1 << 40,
        seq_toom_max_bits: 1 << 41,
        ..KernelPolicy::default()
    }
}

fn topology(shards: usize, service: ServiceConfig) -> ShardConfig {
    ShardConfig {
        shards,
        service,
        heartbeat_ms: 5,
        deadline_budget: 2,
        ..ShardConfig::default()
    }
}

fn wait_for_state(router: &Router, shard: usize, want: ShardState) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.shard_states()[shard] != want {
        assert!(
            Instant::now() < deadline,
            "shard {shard} never reached {want:?} (now {:?})",
            router.shard_states()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Removing one shard moves exactly the keys it owned — every other
    /// key keeps its owner — and the moved fraction stays near 1/N.
    #[test]
    fn removing_a_shard_moves_only_its_keys(n in 2usize..12, dead_raw in 0usize..12, base in any::<u64>()) {
        let dead = dead_raw % n;
        let shards: Vec<usize> = (0..n).collect();
        let survivors: Vec<usize> = shards.iter().copied().filter(|&s| s != dead).collect();
        let keys: Vec<u64> = (0..1024u64).map(|i| base.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let mut moved = 0usize;
        for &key in &keys {
            let before = rendezvous_owner(key, &shards).unwrap();
            let after = rendezvous_owner(key, &survivors).unwrap();
            prop_assert_ne!(after, dead);
            if before == dead {
                moved += 1;
            } else {
                prop_assert_eq!(before, after, "surviving owner must not change");
            }
        }
        // Expected moved = keys/n; allow generous slack for hash noise.
        let expected = keys.len() / n;
        prop_assert!(moved <= expected * 3 + 8, "moved {} of {} with n={}", moved, keys.len(), n);
    }

    /// Ownership is unique: among any live set, exactly one shard holds
    /// the maximum weight for a key — two live shards never both own it.
    #[test]
    fn ownership_is_unique_and_total(n in 1usize..12, key in any::<u64>()) {
        let shards: Vec<usize> = (0..n).collect();
        let owner = rendezvous_owner(key, &shards).unwrap();
        let max_holders = shards
            .iter()
            .filter(|&&s| rendezvous_weight(key, s) >= rendezvous_weight(key, owner))
            .count();
        prop_assert_eq!(max_holders, 1);
        // The placement-key mixer feeds the same property.
        let pk = placement_key((key % 5) as usize, (key % 32) as usize);
        prop_assert!(shards.contains(&rendezvous_owner(pk, &shards).unwrap()));
    }
}

/// The acceptance run: 3 shards, the owner of a hot size class is killed
/// while holding a started request plus a queue of unstarted ones. The
/// death must be detected by the heartbeat verdict, every queued request
/// must fail over to a survivor and complete bit-exact, the started
/// request completes on the dying shard, and new work routes around the
/// corpse — zero lost requests.
#[test]
fn shard_death_is_detected_and_survived_by_failover() {
    let router = Router::start(topology(
        3,
        ServiceConfig {
            kernel_policy: schoolbook_only(),
            ..ServiceConfig::default()
        },
    ));
    let mut rng = StdRng::seed_from_u64(11);
    let blocker_a = BigInt::random_signed_bits(&mut rng, 600_000);
    let blocker_b = BigInt::random_signed_bits(&mut rng, 600_000);
    let victim = router.owner_of(&blocker_a, &blocker_b).unwrap();
    // Precompute the whole workload before submitting anything: expected
    // products are expensive, and computing them mid-flight would give
    // the victim's big lane time to drain the queue we want it to die on.
    let queued: Vec<(BigInt, BigInt, BigInt)> = (0..6)
        .map(|_| {
            let a = BigInt::random_signed_bits(&mut rng, 600_000);
            let b = BigInt::random_signed_bits(&mut rng, 600_000);
            let want = a.mul_schoolbook(&b);
            (a, b, want)
        })
        .collect();
    let blocker_want = blocker_a.mul_schoolbook(&blocker_b);
    let blocker = router.submit(blocker_a, blocker_b).unwrap();
    // Let the victim's big lane pick the blocker up, then pile
    // same-class (same-owner) work behind it and kill at once: three
    // pairs one by one, three as one bulk submission, whose slots each
    // fail over on their own.
    std::thread::sleep(Duration::from_millis(30));
    let mut pending = Vec::new();
    let mut bulk = Vec::new();
    let mut bulk_want = Vec::new();
    for (i, (a, b, want)) in queued.into_iter().enumerate() {
        assert_eq!(
            router.owner_of(&a, &b),
            Some(victim),
            "same class, same owner"
        );
        if i < 3 {
            pending.push((router.submit(a, b).unwrap(), want));
        } else {
            bulk.push((a, b));
            bulk_want.push(want);
        }
    }
    let bulk = router.submit_many(bulk).unwrap();
    router.kill_shard(victim);
    // Death is *detected* by the heartbeat monitor, not assumed.
    wait_for_state(&router, victim, ShardState::Dead);
    assert_eq!(router.live_shards().len(), 2);
    // Every queued request fails over to a survivor and completes.
    for (handle, want) in pending {
        assert_eq!(handle.wait().expect("failover must complete"), want);
    }
    let bulk = bulk.wait();
    assert_eq!(bulk.len(), 3);
    for (result, want) in bulk.into_iter().zip(bulk_want) {
        assert_eq!(result.expect("bulk failover must complete"), want);
    }
    // The started request rode the dying shard to completion.
    assert_eq!(blocker.wait().unwrap(), blocker_want);
    // New work in the dead shard's former classes routes to survivors.
    let a = BigInt::random_signed_bits(&mut rng, 400_000);
    let b = BigInt::random_signed_bits(&mut rng, 400_000);
    let want = a.mul_schoolbook(&b);
    assert_eq!(router.submit(a, b).unwrap().wait().unwrap(), want);
    let snap = router.shutdown();
    assert_eq!(snap.router.shards, 3);
    assert_eq!(snap.router.live, 2);
    assert_eq!(snap.router.shard_deaths, 1, "exactly one heartbeat death");
    assert!(
        snap.router.failovers >= 6,
        "every surrendered request re-routed"
    );
    assert_eq!(snap.served, 8, "zero lost requests");
    assert_eq!(snap.verify.residue_failures, 0);
}

/// A request that fails over keeps the deadline its client set. The pair
/// waits on the victim's big lane behind a blocker until its 40 ms
/// deadline has passed; the victim is killed and surrenders it when the
/// blocker ends. The survivor must resolve it as `DeadlineExceeded`, not
/// serve it under a fresh 40 ms, which over HTTP would turn a 504 into a
/// 200.
#[test]
fn failover_keeps_the_original_deadline() {
    let router = Router::start(topology(
        2,
        ServiceConfig {
            kernel_policy: schoolbook_only(),
            ..ServiceConfig::default()
        },
    ));
    let mut rng = StdRng::seed_from_u64(53);
    let blocker_a = BigInt::random_signed_bits(&mut rng, 600_000);
    let blocker_b = BigInt::random_signed_bits(&mut rng, 600_000);
    let victim = router.owner_of(&blocker_a, &blocker_b).unwrap();
    // A big-lane pair whose size class the victim also owns.
    let (a, b) = (30_000..=280_000)
        .step_by(10_000)
        .map(|bits| {
            (
                BigInt::random_signed_bits(&mut rng, bits),
                BigInt::random_signed_bits(&mut rng, bits),
            )
        })
        .find(|(a, b)| router.owner_of(a, b) == Some(victim))
        .expect("the victim owns a size class between 30 and 280 kbit");
    let blocker = router.submit(blocker_a, blocker_b).unwrap();
    // Wait until the victim's big lane has closed the blocker's round and
    // started it, so that the pair queues behind the blocker rather than
    // joining its round.
    let give_up = Instant::now() + Duration::from_secs(10);
    while router.metrics().batches == 0 {
        assert!(Instant::now() < give_up, "the blocker never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let doomed = router
        .submit_with_deadline(a, b, Duration::from_millis(40))
        .unwrap();
    router.kill_shard(victim);
    match doomed.wait() {
        Err(MulError::DeadlineExceeded { .. }) => {}
        Ok(_) => panic!("the failed-over pair was served past its deadline"),
        Err(other) => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(blocker.wait().is_ok(), "the started blocker completes");
    let snap = router.shutdown();
    assert!(
        snap.router.failovers >= 1,
        "the pair failed over: {:?}",
        snap.router
    );
    assert_eq!(snap.timed_out, 1);
}

/// The chaos injector's shard faults fire deterministically from the
/// monitor loop: a forced `(shard, round, ShardKill)` kills that shard
/// mid-run while the workload keeps completing verified on survivors.
#[test]
fn forced_shard_chaos_kills_mid_run_with_zero_lost_responses() {
    let router = Router::start(topology(
        3,
        ServiceConfig {
            kernel_policy: schoolbook_only(),
            chaos: Some(ChaosConfig {
                force_shard: vec![(1, 3, FaultKind::ShardKill)],
                ..ChaosConfig::default()
            }),
            ..ServiceConfig::default()
        },
    ));
    let mut rng = StdRng::seed_from_u64(23);
    let mut pending = Vec::new();
    // Mixed size classes so the load spreads over all three shards.
    for i in 0..30 {
        let bits = 2_000 + 9_000 * (i % 4);
        let a = BigInt::random_signed_bits(&mut rng, bits);
        let b = BigInt::random_signed_bits(&mut rng, bits);
        let want = a.mul_schoolbook(&b);
        // Admission may refuse while the kill is absorbed; retry.
        let handle = loop {
            match router.submit(a.clone(), b.clone()) {
                Ok(handle) => break handle,
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        pending.push((handle, want));
        std::thread::sleep(Duration::from_millis(1));
    }
    wait_for_state(&router, 1, ShardState::Dead);
    for (handle, want) in pending {
        assert_eq!(handle.wait().expect("no response may be lost"), want);
    }
    let snap = router.shutdown();
    assert_eq!(snap.router.shard_deaths, 1);
    assert_eq!(snap.verify.residue_failures, 0, "zero corrupt responses");
    assert_eq!(snap.served, 30);
}

/// When the rendezvous owner runs hot past `hot_watermark` while a
/// sibling idles, placement steals the request to the idle sibling.
#[test]
fn hot_shard_work_is_stolen_by_an_idle_sibling() {
    let router = Router::start(ShardConfig {
        shards: 2,
        heartbeat_ms: 5,
        hot_watermark: 2,
        idle_watermark: 4,
        service: ServiceConfig {
            verify_residues: false,
            kernel_policy: schoolbook_only(),
            ..ServiceConfig::default()
        },
        ..ShardConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(31);
    // Precompute the workload so submissions are back-to-back and the
    // owner's queue actually piles past the hot watermark.
    let mut work: Vec<(BigInt, BigInt, BigInt)> = (0..5)
        .map(|_| {
            let a = BigInt::random_signed_bits(&mut rng, 300_000);
            let b = BigInt::random_signed_bits(&mut rng, 300_000);
            let want = a.mul_schoolbook(&b);
            (a, b, want)
        })
        .collect();
    let (a, b, want) = work.remove(0);
    let owner = router.owner_of(&a, &b).unwrap();
    let mut pending = vec![(router.submit(a, b).unwrap(), want)];
    // Once the owner's lane has dispatched the first request, it grinds
    // it for tens of milliseconds (more in a debug build), and the
    // requests below queue behind it.
    let deadline = Instant::now() + Duration::from_secs(60);
    while router.metrics().batches == 0 {
        assert!(
            Instant::now() < deadline,
            "the first request never dispatched"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Pile 3 unstarted requests on the owner: depth 3 > hot_watermark 2;
    // the 4th gets stolen by the idle sibling.
    for (a, b, want) in work {
        assert_eq!(router.owner_of(&a, &b), Some(owner));
        pending.push((router.submit(a, b).unwrap(), want));
    }
    for (handle, want) in pending {
        assert_eq!(handle.wait().unwrap(), want);
    }
    let snap = router.shutdown();
    assert!(
        snap.router.steals >= 1,
        "steal must be metered: {:?}",
        snap.router
    );
    assert_eq!(snap.served, 5);
}

/// Only when *every* live shard refuses does the router shed: the
/// returned `QueueFull` is what the HTTP front door turns into a 429.
#[test]
fn router_sheds_only_when_all_live_shards_are_saturated() {
    let router = Router::start(ShardConfig {
        shards: 2,
        heartbeat_ms: 5,
        service: ServiceConfig {
            verify_residues: false,
            kernel_policy: schoolbook_only(),
            // A lane's queue is its admission gate, and these 250 kbit
            // products all ride the big lane: that is the capacity to
            // squeeze.
            batching: BatchingConfig {
                queue_capacity: 2,
                max_batch: 1,
            },
            ..ServiceConfig::default()
        },
        ..ShardConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(47);
    // Precompute so the submission loop is tight: two shards' big lanes
    // grinding 250k-bit schoolbook products cannot drain between sends.
    let work: Vec<(BigInt, BigInt, BigInt)> = (0..16)
        .map(|_| {
            let a = BigInt::random_signed_bits(&mut rng, 250_000);
            let b = BigInt::random_signed_bits(&mut rng, 250_000);
            let want = a.mul_schoolbook(&b);
            (a, b, want)
        })
        .collect();
    let mut pending = Vec::new();
    let mut shed = None;
    for (a, b, want) in work {
        match router.submit(a, b) {
            Ok(handle) => pending.push((handle, want)),
            Err(error) => {
                shed = Some(error);
                break;
            }
        }
    }
    let shed = shed.expect("two big lanes with capacity 2 must saturate");
    assert!(
        matches!(shed, SubmitError::QueueFull { .. }),
        "saturation surfaces as QueueFull, got {shed:?}"
    );
    // Retry-After derives from the *live* minimum depth, which is real
    // backlog here — both shards live and full.
    assert!(router.queue_depth() >= 1);
    // Shedding lost nothing that was accepted.
    for (handle, want) in pending {
        assert_eq!(handle.wait().unwrap(), want);
    }
    let _ = router.shutdown();
}

/// A stalled shard is declared dead by the same verdict as a killed one,
/// keeps serving what it already held, and rejoins once its heartbeats
/// resume — lifecycle: live → suspect → dead → rejoined.
#[test]
fn stalled_shard_dies_then_rejoins_when_beats_resume() {
    let router = Router::start(topology(
        2,
        ServiceConfig {
            verify_residues: false,
            ..ServiceConfig::default()
        },
    ));
    router.stall_shard(0, 20); // ~100 ms of heartbeat silence
    wait_for_state(&router, 0, ShardState::Dead);
    // While shard 0 is dead, everything routes to shard 1.
    assert_eq!(router.live_shards(), vec![1]);
    let a: BigInt = "123456789123456789".parse().unwrap();
    let b: BigInt = "987654321987654321".parse().unwrap();
    let want = a.mul_schoolbook(&b);
    assert_eq!(router.submit(a, b).unwrap().wait().unwrap(), want);
    // Beats resume after the stall window: the shard rejoins.
    wait_for_state(&router, 0, ShardState::Live);
    assert_eq!(router.live_shards(), vec![0, 1]);
    let snap = router.shutdown();
    assert_eq!(snap.router.shard_deaths, 1);
    assert!(snap.router.rejoins >= 1, "rejoin must be metered");
    assert_eq!(snap.served, 1);
}

/// Operand sizes of the conservation workload, on both sides of the
/// default lane boundary (24,576 bits).
const SMALL_LANE_BITS: [u64; 6] = [600, 1_500, 3_000, 6_000, 12_000, 20_000];
const BIG_LANE_BITS: [u64; 4] = [26_000, 40_000, 70_000, 140_000];

/// Pair `i` of the conservation workload: a small-lane pair, an
/// unbalanced pair, or a big-lane pair. An unbalanced pair is placed by
/// its smaller operand's class but rides the big lane of its larger
/// one, which is how every shard's big lane gets work.
fn conservation_pair(rng: &mut StdRng, i: usize) -> (BigInt, BigInt) {
    let small = SMALL_LANE_BITS[(i / 3) % SMALL_LANE_BITS.len()];
    let big = BIG_LANE_BITS[(i / 3) % BIG_LANE_BITS.len()];
    let (a_bits, b_bits) = [(small, small), (small, big), (big, big)][i % 3];
    (
        BigInt::random_signed_bits(rng, a_bits),
        BigInt::random_signed_bits(rng, b_bits),
    )
}

/// How one accepted request ended, as its client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// A product, and whether it was bit-exact.
    Served(bool),
    TimedOut,
    Shed,
    Faulted,
    Stopped,
}

/// Per request: how often its handle resolved, and how it ended.
struct Ledger {
    resolutions: Vec<AtomicU32>,
    outcomes: Mutex<Vec<Option<Outcome>>>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation under shard chaos. Random kill and stall sequences
    /// hit a 3-shard router while both lanes of every shard carry work.
    /// Every accepted handle resolves exactly once; accepted = served +
    /// timed out + shed + faulted + stopped, counted from the handles;
    /// the merged `served` equals the client's Ok count and every
    /// product is bit-exact; and every live shard's queues drain to 0.
    #[test]
    fn every_accepted_request_resolves_exactly_once_under_shard_chaos(
        seed in any::<u64>(),
        // (shard, kill?, stall rounds, fire before request #)
        events in proptest::collection::vec((0usize..3, any::<bool>(), 1u64..12, 0usize..24), 0..5),
    ) {
        let router = Router::start(topology(
            3,
            ServiceConfig {
                shed_after_ms: Some(2_000),
                ..ServiceConfig::default()
            },
        ));
        let mut rng = StdRng::seed_from_u64(seed);
        let work: Vec<(BigInt, BigInt, BigInt)> = (0..24)
            .map(|i| {
                let (a, b) = conservation_pair(&mut rng, i);
                let want = a.mul_schoolbook(&b);
                (a, b, want)
            })
            .collect();
        let cutoff = KernelPolicy::default().toom_threshold_bits;
        for shard in 0..3 {
            for big_lane in [false, true] {
                let owned = work.iter().any(|(a, b, _)| {
                    (a.bit_length().max(b.bit_length()) > cutoff) == big_lane
                        && router.owner_of(a, b) == Some(shard)
                });
                prop_assert!(owned, "shard {} gets no work in lane big={}", shard, big_lane);
            }
        }
        let ledger = Arc::new(Ledger {
            resolutions: (0..work.len()).map(|_| AtomicU32::new(0)).collect(),
            outcomes: Mutex::new(vec![None; work.len()]),
        });
        let mut accepted = 0usize;
        for (i, (a, b, want)) in work.into_iter().enumerate() {
            for &(shard, kill, rounds, at) in &events {
                if at == i {
                    if kill {
                        router.kill_shard(shard);
                    } else {
                        router.stall_shard(shard, rounds);
                    }
                }
            }
            let submitted = if i % 5 == 4 {
                router.submit_with_deadline(a, b, Duration::from_millis(40))
            } else {
                router.submit(a, b)
            };
            let Ok(handle) = submitted else { continue };
            accepted += 1;
            let ledger = ledger.clone();
            handle.on_ready(move |result| {
                ledger.resolutions[i].fetch_add(1, Ordering::SeqCst);
                let outcome = match result {
                    Ok(product) => Outcome::Served(product == want),
                    Err(MulError::DeadlineExceeded { .. }) => Outcome::TimedOut,
                    Err(MulError::Shed { .. }) => Outcome::Shed,
                    Err(MulError::WorkerFault { .. }) => Outcome::Faulted,
                    Err(MulError::ServiceStopped) => Outcome::Stopped,
                };
                ledger.outcomes.lock().unwrap()[i] = Some(outcome);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(120);
        while ledger.outcomes.lock().unwrap().iter().flatten().count() < accepted {
            prop_assert!(Instant::now() < deadline, "an accepted request never resolved");
            std::thread::sleep(Duration::from_millis(2));
        }
        let depths = router.shard_depths();
        for shard in router.live_shards() {
            prop_assert_eq!(depths[shard], 0, "live shard {} did not drain", shard);
        }
        let snap = router.shutdown();
        for (i, count) in ledger.resolutions.iter().enumerate() {
            prop_assert!(count.load(Ordering::SeqCst) <= 1, "request {} resolved twice", i);
        }
        let outcomes: Vec<Outcome> = ledger.outcomes.lock().unwrap().iter().flatten().copied().collect();
        prop_assert!(!outcomes.contains(&Outcome::Served(false)), "a served product was wrong");
        let count = |kind: Outcome| outcomes.iter().filter(|&&o| o == kind).count();
        let (served, timed_out, shed, faulted, stopped) = (
            count(Outcome::Served(true)),
            count(Outcome::TimedOut),
            count(Outcome::Shed),
            count(Outcome::Faulted),
            count(Outcome::Stopped),
        );
        prop_assert_eq!(accepted, served + timed_out + shed + faulted + stopped);
        prop_assert_eq!(snap.served, served as u64, "merged served vs client Ok count");
        prop_assert_eq!(snap.timed_out, timed_out as u64);
        prop_assert_eq!(snap.shed, shed as u64);
        prop_assert_eq!(snap.worker_faults, faulted as u64);
    }
}
