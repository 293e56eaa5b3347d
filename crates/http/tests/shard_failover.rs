//! Shard-failover e2e: a 3-shard topology behind the real HTTP front
//! door, with one shard killed while open-loop load is in flight. Every
//! accepted request must complete with a bit-exact, residue-verified
//! product (zero lost responses), the death must be detected by the
//! heartbeat monitor, and the failovers must show up in both the JSON
//! metrics and the Prometheus exposition.

mod common;

use ft_bigint::BigInt;
use ft_http::client::Client;
use ft_http::{HttpConfig, HttpServer};
use ft_service::json::Json;
use ft_service::{KernelPolicy, ServiceConfig, ShardConfig, ShardState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn prom_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from exposition"))
        .parse()
        .expect("prometheus sample value")
}

#[test]
fn killing_one_of_three_shards_loses_no_in_flight_requests() {
    let server = HttpServer::start_sharded(
        &HttpConfig::default(),
        ShardConfig {
            shards: 3,
            heartbeat_ms: 5,
            deadline_budget: 2,
            service: ServiceConfig {
                kernel_policy: KernelPolicy {
                    schoolbook_max_bits: 1 << 40,
                    seq_toom_max_bits: 1 << 41,
                    ..KernelPolicy::default()
                },
                ..ServiceConfig::default()
            },
            ..ShardConfig::default()
        },
    )
    .expect("bind sharded server");
    let router = server.router();
    let mut rng = StdRng::seed_from_u64(77);

    // Build a same-size-class workload owned by one shard, so killing
    // that shard strands queued work behind its busy big lane.
    let work: Vec<(BigInt, BigInt, BigInt)> = (0..8)
        .map(|_| {
            let a = BigInt::random_signed_bits(&mut rng, 500_000);
            let b = BigInt::random_signed_bits(&mut rng, 500_000);
            let want = a.mul_schoolbook(&b);
            (a, b, want)
        })
        .collect();
    let victim = router.owner_of(&work[0].0, &work[0].1).expect("owner");

    // Open-loop load: each request rides its own socket thread, fired
    // without waiting for earlier responses.
    let addr = server.local_addr();
    let clients: Vec<std::thread::JoinHandle<(BigInt, BigInt)>> = work
        .into_iter()
        .map(|(a, b, want)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, Duration::from_secs(120)).expect("connect");
                let body = format!(r#"{{"a": "{}", "b": "{}"}}"#, a.to_hex(), b.to_hex());
                let rsp = client
                    .request("POST", "/v1/mul", Some(body.as_bytes()))
                    .expect("mul exchange");
                assert_eq!(rsp.status, 200, "in-flight request lost: {}", rsp.text());
                let doc = Json::parse(&rsp.text()).expect("response JSON");
                let Some(Json::Str(p)) = doc.get("product") else {
                    panic!("no product in {}", rsp.text())
                };
                (p.parse().expect("product literal"), want)
            })
        })
        .collect();

    // Kill only once requests are demonstrably queued behind the
    // victim's busy big lane, so the death strands in-flight work
    // and the failover path (not mere re-placement) must save it.
    let deadline = Instant::now() + Duration::from_secs(30);
    while router.shard_depths()[victim] < 2 {
        assert!(Instant::now() < deadline, "victim queue never filled");
        std::thread::sleep(Duration::from_millis(1));
    }
    router.kill_shard(victim);

    // The heartbeat monitor — not a timeout of last resort — must
    // declare the death.
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.shard_states()[victim] != ShardState::Dead {
        assert!(Instant::now() < deadline, "death never detected");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Zero lost responses: every request completes bit-exact.
    for handle in clients {
        let (got, want) = handle.join().expect("client thread");
        assert_eq!(got, want);
    }

    // The topology and the failovers are observable over HTTP.
    let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connect");
    let rsp = client.request("GET", "/v1/topology", None).unwrap();
    assert_eq!(rsp.status, 200);
    let topo = Json::parse(&rsp.text()).expect("topology JSON");
    assert_eq!(topo.get("shards").and_then(Json::as_u64), Some(3));
    let Some(Json::Arr(states)) = topo.get("states") else {
        panic!("no states in {}", rsp.text())
    };
    assert_eq!(states[victim], Json::Str("dead".to_string()));

    let rsp = client.request("GET", "/v1/metrics", None).unwrap();
    let snap = Json::parse(&rsp.text()).expect("metrics JSON");
    let router_section = snap.get("router").expect("router section");
    assert_eq!(
        router_section.get("shard_deaths").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(router_section.get("live").and_then(Json::as_u64), Some(2));
    let failovers = router_section
        .get("failovers")
        .and_then(Json::as_u64)
        .expect("failovers counter");
    assert!(failovers >= 1, "queued work must have re-routed");
    assert_eq!(snap.get("served").and_then(Json::as_u64), Some(8));

    let rsp = client.request("GET", "/metrics", None).unwrap();
    let prom = rsp.text();
    common::assert_exposition_is_well_formed(&prom);
    assert_eq!(prom_value(&prom, "ftsvc_router_shard_deaths_total"), 1);
    assert!(prom_value(&prom, "ftsvc_router_failovers_total") >= 1);
    assert_eq!(prom_value(&prom, "ftsvc_router_shards_live"), 2);
    assert_eq!(prom_value(&prom, "ft_requests_served_total"), 8);

    drop(client);
    let (final_metrics, leftover) = server.shutdown();
    assert_eq!(leftover, 0, "clean connection drain");
    assert_eq!(final_metrics.served, 8);
    assert_eq!(final_metrics.verify.residue_failures, 0);
}
