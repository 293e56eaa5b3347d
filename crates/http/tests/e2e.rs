//! End-to-end smoke test: a real `HttpServer` on an ephemeral loopback
//! port, driven through the real socket client with mixed traffic —
//! single multiplications, a streamed batch, config/metrics scrapes,
//! and every error-path status the front door maps. All products are
//! checked bit-exactly against local schoolbook multiplication.

mod common;

use ft_bigint::BigInt;
use ft_http::client::Client;
use ft_http::{HttpConfig, HttpServer};
use ft_service::json::Json;
use ft_service::ServiceConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn start_server() -> HttpServer {
    HttpServer::start(&HttpConfig::default(), ServiceConfig::default()).expect("bind server")
}

fn connect(server: &HttpServer) -> Client {
    Client::connect(server.local_addr(), Duration::from_secs(30)).expect("connect")
}

fn mul_body(a: &BigInt, b: &BigInt) -> String {
    format!(r#"{{"a": "{}", "b": "{}"}}"#, a.to_hex(), b.to_hex())
}

fn product_of(text: &str) -> BigInt {
    let doc = Json::parse(text).expect("response JSON");
    match doc.get("product") {
        Some(Json::Str(p)) => p.parse().expect("product literal"),
        other => panic!("no product in {text:?} ({other:?})"),
    }
}

#[test]
fn mixed_traffic_over_one_keep_alive_connection() {
    let server = start_server();
    let mut client = connect(&server);
    let mut rng = StdRng::seed_from_u64(4242);

    // Liveness first.
    let rsp = client.request("GET", "/healthz", None).unwrap();
    assert_eq!((rsp.status, rsp.text().as_str()), (200, "ok\n"));

    // Single multiplications across the kernel thresholds, including a
    // negative operand (hex with sign) and zero.
    for bits in [64, 600, 3_000, 9_000] {
        let a = -BigInt::random_signed_bits(&mut rng, bits);
        let b = BigInt::random_signed_bits(&mut rng, bits);
        let rsp = client
            .request("POST", "/v1/mul", Some(mul_body(&a, &b).as_bytes()))
            .unwrap();
        assert_eq!(rsp.status, 200, "mul {bits}: {}", rsp.text());
        assert_eq!(product_of(&rsp.text()), a.mul_schoolbook(&b), "bits {bits}");
    }
    let rsp = client
        .request("POST", "/v1/mul", Some(br#"{"a": "0", "b": "123456789"}"#))
        .unwrap();
    assert_eq!(rsp.status, 200);
    assert!(product_of(&rsp.text()).is_zero());

    // A streamed batch: NDJSON slots arrive in submission order.
    let pairs: Vec<(BigInt, BigInt)> = (0..5)
        .map(|_| {
            (
                BigInt::random_signed_bits(&mut rng, 1_500),
                BigInt::random_signed_bits(&mut rng, 1_500),
            )
        })
        .collect();
    let body = format!(
        r#"{{"pairs": [{}]}}"#,
        pairs
            .iter()
            .map(|(a, b)| format!(r#"["{}", "{}"]"#, a.to_hex(), b.to_hex()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut lines = Vec::new();
    let rsp = client
        .request_streaming("POST", "/v1/mul/batch", Some(body.as_bytes()), |line| {
            lines.push(line.to_string());
        })
        .unwrap();
    assert_eq!(rsp.status, 200);
    assert_eq!(rsp.header("transfer-encoding"), Some("chunked"));
    assert_eq!(lines.len(), pairs.len());
    for (slot, (line, (a, b))) in lines.iter().zip(&pairs).enumerate() {
        let doc = Json::parse(line).expect("batch line JSON");
        assert_eq!(doc.get("slot").and_then(Json::as_u64), Some(slot as u64));
        assert_eq!(product_of(line), a.mul_schoolbook(b), "slot {slot}");
    }

    // Config readback parses and reflects the live service config.
    let rsp = client.request("GET", "/v1/config", None).unwrap();
    assert_eq!(rsp.status, 200);
    let cfg = Json::parse(&rsp.text()).expect("config JSON");
    assert!(cfg.get("batching").is_some());
    assert!(cfg.get("distributed").is_some());
    let verify = cfg.get("verify").expect("verify policy in config");
    assert!(verify.get("dual_per_10k").and_then(Json::as_u64).is_some());

    // JSON metrics snapshot: the work above is visible.
    let rsp = client.request("GET", "/v1/metrics", None).unwrap();
    let snap = Json::parse(&rsp.text()).expect("metrics JSON");
    let served = snap.get("served").and_then(Json::as_u64).unwrap();
    assert!(served >= 10, "served {served}");
    assert!(snap.get("latency_quantiles").is_some());
    let ladder = snap.get("verify").expect("verify group in metrics");
    assert!(ladder
        .get("residue_checks")
        .and_then(Json::as_u64)
        .is_some());
    assert!(ladder.get("escalations").and_then(Json::as_u64).is_some());

    // Prometheus exposition: service counters, quantile gauges,
    // distributed/detector counters, and the HTTP layer itself.
    let rsp = client.request("GET", "/metrics", None).unwrap();
    assert_eq!(rsp.status, 200);
    assert_eq!(
        rsp.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = rsp.text();
    for needle in [
        "# TYPE ft_requests_served_total counter",
        "# TYPE ft_request_latency_us histogram",
        "ft_request_latency_us_bucket{le=\"+Inf\"}",
        "ft_request_latency_quantile_us{quantile=\"0.999\"}",
        "ft_distributed_detect_rounds_total",
        "ft_verification_failures_total",
        "# TYPE ftsvc_verify_checks_total counter",
        "ftsvc_verify_checks_total{rung=\"residue\"}",
        "ftsvc_verify_cost_us_total{rung=\"recompute\"}",
        "ftsvc_verify_escalations_total",
        "http_requests_total{route=\"mul\",code=\"200\"}",
        "http_streamed_results_total 5",
        "http_connections_total",
        "http_parse_errors_total",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in exposition");
    }
    common::assert_exposition_is_well_formed(&text);

    // The whole mixed sequence rode ONE keep-alive connection.
    assert_eq!(server.net_stats().total_connections, 1);

    let (final_metrics, leftover) = server.shutdown();
    assert_eq!(leftover, 0, "graceful drain");
    assert!(final_metrics.served >= served);
}

#[test]
fn error_paths_map_to_documented_statuses() {
    let server = start_server();
    let mut client = connect(&server);

    // Malformed JSON → 400 with a structured error body.
    let rsp = client
        .request("POST", "/v1/mul", Some(b"{\"a\": "))
        .unwrap();
    assert_eq!(rsp.status, 400);
    let doc = Json::parse(&rsp.text()).expect("error body JSON");
    assert_eq!(doc.get("error"), Some(&Json::Str("bad_json".to_string())));

    // Missing / non-string / unparsable operands → 400.
    for body in [
        br#"{"b": "0x2"}"#.as_slice(),
        br#"{"a": 3, "b": "0x2"}"#.as_slice(),
        br#"{"a": "0xzz", "b": "0x2"}"#.as_slice(),
    ] {
        let rsp = client.request("POST", "/v1/mul", Some(body)).unwrap();
        assert_eq!(rsp.status, 400, "{}", String::from_utf8_lossy(body));
        assert_eq!(
            Json::parse(&rsp.text()).unwrap().get("error"),
            Some(&Json::Str("bad_operand".to_string()))
        );
    }

    // Bad deadline → 400; zero deadline → deterministic 504 (it expires
    // before its lane can dequeue the request).
    let rsp = client
        .request(
            "POST",
            "/v1/mul",
            Some(br#"{"a": "0x5", "b": "0x7", "deadline_ms": "soon"}"#),
        )
        .unwrap();
    assert_eq!(rsp.status, 400);
    let rsp = client
        .request(
            "POST",
            "/v1/mul",
            Some(br#"{"a": "0x5", "b": "0x7", "deadline_ms": 0}"#),
        )
        .unwrap();
    assert_eq!(rsp.status, 504, "{}", rsp.text());
    assert_eq!(
        Json::parse(&rsp.text()).unwrap().get("error"),
        Some(&Json::Str("deadline_exceeded".to_string()))
    );

    // Batch with a malformed pair → 400 before anything is submitted.
    let rsp = client
        .request(
            "POST",
            "/v1/mul/batch",
            Some(br#"{"pairs": [["0x1", "0x2"], ["0x3"]]}"#),
        )
        .unwrap();
    assert_eq!(rsp.status, 400);
    assert!(rsp.text().contains("pairs[1]"));

    // Batch whose elements all miss a zero deadline → 200 stream with
    // per-slot errors (the head has already been sent).
    let mut lines = Vec::new();
    let rsp = client
        .request_streaming(
            "POST",
            "/v1/mul/batch",
            Some(br#"{"pairs": [["0x5", "0x7"], ["0x9", "0xb"]], "deadline_ms": 0}"#),
            |line| lines.push(line.to_string()),
        )
        .unwrap();
    assert_eq!(rsp.status, 200);
    assert_eq!(lines.len(), 2);
    for (slot, line) in lines.iter().enumerate() {
        let doc = Json::parse(line).expect("slot line");
        assert_eq!(doc.get("slot").and_then(Json::as_u64), Some(slot as u64));
        assert_eq!(
            doc.get("error"),
            Some(&Json::Str("deadline_exceeded".to_string())),
            "{line}"
        );
    }

    // Unknown route → 404; wrong method → 405.
    let rsp = client.request("GET", "/v1/nope", None).unwrap();
    assert_eq!(rsp.status, 404);
    let rsp = client.request("GET", "/v1/mul", None).unwrap();
    assert_eq!(rsp.status, 405);
    let rsp = client.request("POST", "/healthz", Some(b"{}")).unwrap();
    assert_eq!(rsp.status, 405);

    // The error traffic is visible in the HTTP-layer metrics.
    let http = server.http_metrics();
    assert!(http
        .by_status
        .iter()
        .any(|&(route, status, n)| route == "mul" && status == 400 && n >= 4));
    assert!(http
        .by_status
        .iter()
        .any(|&(route, status, _)| route == "other" && status == 404));

    let (_, leftover) = server.shutdown();
    assert_eq!(leftover, 0);
}

#[test]
fn every_route_label_comes_from_the_declared_list() {
    let server = start_server();
    let mut client = connect(&server);
    let mul = br#"{"a": "0x3", "b": "0x5"}"#;
    let batch = br#"{"pairs": [["0x3", "0x5"]]}"#;
    for (method, path, body) in [
        ("POST", "/v1/mul", Some(&mul[..])),
        ("POST", "/v1/mul/batch", Some(&batch[..])),
        ("GET", "/v1/config", None),
        ("GET", "/v1/topology", None),
        ("GET", "/v1/metrics", None),
        ("GET", "/healthz", None),
        ("GET", "/v1/nope", None),
        ("DELETE", "/v1/config", None),
    ] {
        let rsp = client
            .request_streaming(method, path, body, |_| {})
            .unwrap();
        assert!(rsp.status < 500, "{method} {path}: {}", rsp.status);
    }
    let text = client.request("GET", "/metrics", None).unwrap().text();
    common::assert_exposition_is_well_formed(&text);
    let mut seen = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        if let Some((_, rest)) = line.split_once("route=\"") {
            let route = rest.split('"').next().unwrap_or_default();
            assert!(
                ft_http::metrics::ROUTES.contains(&route),
                "undeclared route label {route:?} in {line}"
            );
            seen.push(route.to_string());
        }
    }
    assert!(seen.iter().any(|r| r == "topology"), "no topology series");
    assert!(seen.iter().any(|r| r == "other"), "no other series");
    drop(client);
    let (_, leftover) = server.shutdown();
    assert_eq!(leftover, 0);
}

#[test]
fn shutdown_closes_the_socket() {
    let server = start_server();
    let addr = server.local_addr();
    let (metrics, leftover) = server.shutdown();
    assert_eq!(leftover, 0);
    assert_eq!(metrics.served, 0);
    // The socket is gone after shutdown: connecting either fails
    // outright or the write/read fails. Either way, no silent hang.
    let refused = match Client::connect(addr, Duration::from_secs(2)) {
        Err(_) => true,
        Ok(mut client) => client.request("GET", "/healthz", None).is_err(),
    };
    assert!(refused, "server still serving after shutdown");
}
