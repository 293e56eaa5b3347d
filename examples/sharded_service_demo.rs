//! Demo of the sharded service topology: N `MulService` shards behind a
//! rendezvous-hashing `Router` with heartbeat liveness, shown surviving
//! a shard kill mid-load (failover re-routing of stranded work) and a
//! transient stall (dead verdict, then rejoin once beats resume).
//!
//! Run with `cargo run --release --example sharded_service_demo`.

use ft_toom::ft_bigint::BigInt;
use ft_toom::ft_service::{KernelPolicy, Router, ServiceConfig, ShardConfig, ShardState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const BITS: u64 = 200_000;
const REQUESTS: usize = 8;

fn topology() -> ShardConfig {
    ShardConfig {
        shards: 3,
        heartbeat_ms: 5,
        deadline_budget: 2,
        service: ServiceConfig {
            kernel_policy: KernelPolicy {
                // Force the schoolbook kernel so each request visibly
                // occupies its shard's big lane for a while.
                schoolbook_max_bits: 1 << 40,
                seq_toom_max_bits: 1 << 41,
                ..KernelPolicy::default()
            },
            ..ServiceConfig::default()
        },
        ..ShardConfig::default()
    }
}

fn wait_for(router: &Router, shard: usize, state: ShardState) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.shard_states()[shard] != state {
        assert!(Instant::now() < deadline, "shard never became {state:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn main() {
    let router = Router::start(topology());
    let mut rng = StdRng::seed_from_u64(7);

    // Same-size-class operands all rendezvous-hash to one owner, so a
    // kill there strands queued work that only failover can save.
    println!("== kill one of three shards mid-load ==");
    let work: Vec<(BigInt, BigInt, BigInt)> = (0..REQUESTS)
        .map(|_| {
            let a = BigInt::random_signed_bits(&mut rng, BITS);
            let b = BigInt::random_signed_bits(&mut rng, BITS);
            let want = a.mul_schoolbook(&b);
            (a, b, want)
        })
        .collect();
    let victim = router.owner_of(&work[0].0, &work[0].1).expect("owner");
    println!("   victim shard: {victim} (owner of the whole size class)");

    let handles: Vec<_> = work
        .iter()
        .map(|(a, b, _)| router.submit(a.clone(), b.clone()).expect("submit"))
        .collect();
    while router.shard_depths()[victim] < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    router.kill_shard(victim);
    wait_for(&router, victim, ShardState::Dead);
    println!("   shard {victim} declared dead by the heartbeat monitor");

    for (handle, (_, _, want)) in handles.into_iter().zip(&work) {
        let got = handle.wait().expect("failover saves stranded work");
        assert_eq!(&got, want, "failover must preserve bit-exactness");
    }
    let snap = router.metrics();
    println!(
        "   {} served, {} failovers, {} shard deaths, states {:?}",
        snap.served,
        snap.router.failovers,
        snap.router.shard_deaths,
        router.shard_states()
    );

    // A stalled shard is indistinguishable from a dead one until its
    // beats resume — then it rejoins the routable set.
    println!("== stall a survivor, watch it rejoin ==");
    let survivor = (0..3).find(|&s| s != victim).expect("survivor");
    router.stall_shard(survivor, 20);
    wait_for(&router, survivor, ShardState::Dead);
    println!("   shard {survivor} stalled past the deadline budget: dead");
    wait_for(&router, survivor, ShardState::Live);
    let snap = router.metrics();
    println!(
        "   beats resumed: rejoined (rejoins = {}), states {:?}",
        snap.router.rejoins,
        router.shard_states()
    );

    let final_metrics = router.shutdown();
    println!(
        "== done: served {} with {} residue failures ==",
        final_metrics.served, final_metrics.verify.residue_failures
    );
}
