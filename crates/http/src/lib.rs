//! ft-http: the HTTP front door for [`ft_service::MulService`].
//!
//! Wraps a running multiplication service behind a small REST surface
//! served by the vendored `ft-net` HTTP/1.1 stack (offline container —
//! see `vendor/README.md`):
//!
//! | Route                | Method | Behaviour                                        |
//! |----------------------|--------|--------------------------------------------------|
//! | `/v1/mul`            | POST   | one multiplication, JSON in/out                  |
//! | `/v1/mul/batch`      | POST   | bulk submission, NDJSON streamed over chunked TE |
//! | `/v1/config`         | GET    | the per-shard service configuration              |
//! | `/v1/topology`       | GET    | shard count, heartbeat cadence, live/dead states |
//! | `/v1/metrics`        | GET    | merged metrics snapshot (all shards) as JSON     |
//! | `/metrics`           | GET    | Prometheus text exposition (service + HTTP)      |
//! | `/healthz`           | GET    | liveness probe                                   |
//!
//! Status codes surface the service's backpressure/degradation ladder
//! (see `DESIGN.md`): `429 Too Many Requests` + `Retry-After` when the
//! request's lane queue is full on every live shard, `503` when shutting
//! down or load-shedding, `504` when a request's deadline passes in
//! queue, `500` when the supervised retry budget and the whole kernel
//! degradation ladder are exhausted, and `400` for malformed JSON or
//! operands. The batch route streams each element's result — success or
//! per-element error — as one NDJSON line, in submission order, as soon
//! as the [`ft_service::BatchHandle`]'s streaming iterator yields it.

pub mod client;
pub mod metrics;
pub mod prom;

use ft_bigint::BigInt;
use ft_service::json::{obj, Json};
use ft_service::{
    MetricsSnapshot, MulError, MulService, Router, ServiceConfig, ShardConfig, SubmitError,
};
use metrics::{HttpMetrics, Route};
use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Front-door configuration.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Transport limits and timeouts of the underlying `ft-net` server.
    pub net: ft_net::ServerConfig,
}

impl Default for HttpConfig {
    fn default() -> HttpConfig {
        HttpConfig {
            addr: "127.0.0.1:0".to_string(),
            net: ft_net::ServerConfig::default(),
        }
    }
}

struct AppState {
    router: Router,
    http_metrics: HttpMetrics,
    net_stats: OnceLock<ft_net::ServerStats>,
}

/// A running HTTP front door. Owns both the socket server and the
/// sharded [`Router`] behind it (a single unsharded [`MulService`] is
/// served as a one-shard topology); [`HttpServer::shutdown`] drains
/// them in order (connections first, then the shards).
pub struct HttpServer {
    net: ft_net::Server,
    state: Arc<AppState>,
}

impl HttpServer {
    /// Start a fresh [`MulService`] with `service_config` and serve it
    /// as a single-shard topology.
    pub fn start(http: &HttpConfig, service_config: ServiceConfig) -> std::io::Result<HttpServer> {
        HttpServer::start_with(http, MulService::start(service_config))
    }

    /// Serve an already-running service (wrapped as one shard).
    pub fn start_with(http: &HttpConfig, service: MulService) -> std::io::Result<HttpServer> {
        HttpServer::start_router(http, Router::single(service))
    }

    /// Start a sharded topology — `topology.shards` services behind
    /// rendezvous placement, heartbeat failover, and work stealing —
    /// and serve it.
    pub fn start_sharded(http: &HttpConfig, topology: ShardConfig) -> std::io::Result<HttpServer> {
        HttpServer::start_router(http, Router::start(topology))
    }

    /// Serve an already-running router.
    pub fn start_router(http: &HttpConfig, router: Router) -> std::io::Result<HttpServer> {
        let state = Arc::new(AppState {
            router,
            http_metrics: HttpMetrics::default(),
            net_stats: OnceLock::new(),
        });
        let handler_state = Arc::clone(&state);
        let handler: Arc<ft_net::Handler> = Arc::new(move |req, rsp| {
            let started = Instant::now();
            let (route, status) = dispatch(&handler_state, req, rsp)?;
            let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            handler_state.http_metrics.record(route, status, elapsed);
            Ok(())
        });
        let net = ft_net::Server::bind(&http.addr, http.net.clone(), handler)?;
        let _ = state.net_stats.set(net.stats());
        Ok(HttpServer { net, state })
    }

    /// The bound address (resolves the actual ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// The router behind the front door (e.g. to submit work
    /// in-process or to kill/stall shards in chaos tests).
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.state.router
    }

    /// HTTP-layer counters.
    #[must_use]
    pub fn http_metrics(&self) -> metrics::HttpSnapshot {
        self.state.http_metrics.snapshot()
    }

    /// Connection-level counters of the underlying socket server.
    #[must_use]
    pub fn net_stats(&self) -> prom::NetStats {
        prom::NetStats::from(&self.net.stats())
    }

    /// Graceful shutdown: stop accepting, drain in-flight connections
    /// (bounded by the net config's drain timeout), then stop the
    /// service. Returns the service's final metrics snapshot and the
    /// number of connections still open when the drain window closed
    /// (0 on a clean drain).
    pub fn shutdown(self) -> (MetricsSnapshot, usize) {
        let HttpServer { net, state } = self;
        // `Server::shutdown` consumes the server, which drops the
        // handler and thereby its `Arc<AppState>` clone.
        let leftover = net.shutdown();
        // Connection threads detach; each drops its state clone just
        // after the drain observes it idle, so unwrapping can race a
        // few microseconds behind.
        let mut state = state;
        for _ in 0..2_000 {
            match Arc::try_unwrap(state) {
                Ok(inner) => return (inner.router.shutdown(), leftover),
                Err(again) => {
                    state = again;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        // A straggler connection outlived the drain window and still
        // pins the state; report metrics without stopping the shards.
        (state.router.metrics(), leftover)
    }
}

/// Route a parsed request, returning `(route, status)` for the HTTP
/// metrics layer.
fn dispatch(
    state: &AppState,
    req: &ft_net::Request,
    rsp: &mut ft_net::Responder<'_>,
) -> std::io::Result<(Route, u16)> {
    match (req.method.as_str(), req.path()) {
        ("POST", "/v1/mul") => handle_mul(state, req, rsp).map(|s| (Route::Mul, s)),
        ("POST", "/v1/mul/batch") => handle_batch(state, req, rsp).map(|s| (Route::MulBatch, s)),
        ("GET", "/v1/config") => {
            let body = state.router.service_config().to_json();
            rsp.send(200, "application/json", body.as_bytes())?;
            Ok((Route::Config, 200))
        }
        ("GET", "/v1/topology") => {
            let states: Vec<Json> = state
                .router
                .shard_states()
                .iter()
                .map(|s| {
                    Json::Str(
                        match s {
                            ft_service::ShardState::Live => "live",
                            ft_service::ShardState::Suspect => "suspect",
                            ft_service::ShardState::Dead => "dead",
                        }
                        .to_string(),
                    )
                })
                .collect();
            let cfg = state.router.config();
            let body = obj([
                ("shards", Json::Num(i128::from(cfg.shards as u64))),
                ("heartbeat_ms", Json::Num(i128::from(cfg.heartbeat_ms))),
                (
                    "deadline_budget",
                    Json::Num(i128::from(cfg.deadline_budget)),
                ),
                ("states", Json::Arr(states)),
            ])
            .dump();
            rsp.send(200, "application/json", body.as_bytes())?;
            Ok((Route::Topology, 200))
        }
        ("GET", "/v1/metrics") => {
            let body = state.router.metrics().to_json();
            rsp.send(200, "application/json", body.as_bytes())?;
            Ok((Route::MetricsJson, 200))
        }
        ("GET", "/metrics") => {
            let net = state
                .net_stats
                .get()
                .map(prom::NetStats::from)
                .unwrap_or_default();
            let body = prom::render(
                &state.router.metrics(),
                &state.http_metrics.snapshot(),
                &net,
            );
            rsp.send(200, prom::CONTENT_TYPE, body.as_bytes())?;
            Ok((Route::Metrics, 200))
        }
        ("GET", "/healthz") => {
            rsp.send(200, "text/plain; charset=utf-8", b"ok\n")?;
            Ok((Route::Healthz, 200))
        }
        (_, "/v1/mul" | "/v1/mul/batch") => {
            send_error(rsp, 405, "method_not_allowed", "use POST")?;
            Ok((Route::Other, 405))
        }
        (_, "/v1/config" | "/v1/topology" | "/v1/metrics" | "/metrics" | "/healthz") => {
            send_error(rsp, 405, "method_not_allowed", "use GET")?;
            Ok((Route::Other, 405))
        }
        _ => {
            send_error(rsp, 404, "not_found", "unknown route")?;
            Ok((Route::Other, 404))
        }
    }
}

/// `POST /v1/mul` — body `{"a": "0x…", "b": "0x…", "deadline_ms": n?}`,
/// response `{"product": "0x…"}`.
fn handle_mul(
    state: &AppState,
    req: &ft_net::Request,
    rsp: &mut ft_net::Responder<'_>,
) -> std::io::Result<u16> {
    let doc = match parse_json_body(&req.body) {
        Ok(doc) => doc,
        Err(detail) => return send_error(rsp, 400, "bad_json", &detail).map(|()| 400),
    };
    let (a, b) = match (parse_operand(&doc, "a"), parse_operand(&doc, "b")) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(detail), _) | (_, Err(detail)) => {
            return send_error(rsp, 400, "bad_operand", &detail).map(|()| 400)
        }
    };
    let deadline = match parse_deadline(&doc) {
        Ok(d) => d,
        Err(detail) => return send_error(rsp, 400, "bad_deadline", &detail).map(|()| 400),
    };
    // Free the operands' text before the multiply instead of holding it
    // beside the limbs, the product and the response body.
    drop(doc);
    let submitted = match deadline {
        Some(d) => state.router.submit_with_deadline(a, b, d),
        None => state.router.submit(a, b),
    };
    let handle = match submitted {
        Ok(handle) => handle,
        Err(e) => return send_submit_error(state, rsp, &e),
    };
    match handle.wait() {
        Ok(product) => {
            let mut body = Vec::new();
            write_product(&mut body, &product, None);
            // ft-net copies the body behind the head; free the limbs first.
            drop(product);
            rsp.send(200, "application/json", &body)?;
            Ok(200)
        }
        Err(e) => send_mul_error(rsp, &e),
    }
}

/// Append `{"product":"0x…"}`, or with a slot the batch line
/// `{"product":"0x…","slot":N}`, to `out`: the bytes `obj(…).dump()`
/// writes for the same fields (keys in sorted order), with the hex
/// written straight into `out`, which is sized once for the whole line.
fn write_product(out: &mut Vec<u8>, product: &BigInt, slot: Option<usize>) {
    // Both keys, the quotes, `-0x`, 20 slot digits and a newline fit in 48.
    out.reserve(48 + 16 * product.word_len());
    out.extend_from_slice(b"{\"product\":\"");
    product.write_hex(out);
    out.push(b'"');
    if let Some(slot) = slot {
        write!(out, ",\"slot\":{slot}").expect("writing to a Vec cannot fail");
    }
    out.push(b'}');
}

/// `POST /v1/mul/batch` — body
/// `{"pairs": [["0x…", "0x…"], …], "deadline_ms": n?}`. Responds `200`
/// with NDJSON over chunked transfer encoding: one line per pair, in
/// submission order, each line either
/// `{"slot": i, "product": "0x…"}` or
/// `{"slot": i, "error": "…", "detail": "…"}` — per-element failures
/// ride inside the stream because the 200 head has already been sent.
fn handle_batch(
    state: &AppState,
    req: &ft_net::Request,
    rsp: &mut ft_net::Responder<'_>,
) -> std::io::Result<u16> {
    let doc = match parse_json_body(&req.body) {
        Ok(doc) => doc,
        Err(detail) => return send_error(rsp, 400, "bad_json", &detail).map(|()| 400),
    };
    let Some(Json::Arr(items)) = doc.get("pairs") else {
        return send_error(rsp, 400, "bad_request", "missing \"pairs\" array").map(|()| 400);
    };
    let mut pairs = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let parsed = match item {
            Json::Arr(pair) if pair.len() == 2 => {
                match (operand_from(&pair[0]), operand_from(&pair[1])) {
                    (Ok(a), Ok(b)) => Some((a, b)),
                    _ => None,
                }
            }
            _ => None,
        };
        match parsed {
            Some(pair) => pairs.push(pair),
            None => {
                let detail = format!("pairs[{i}] must be a two-element array of integer strings");
                return send_error(rsp, 400, "bad_operand", &detail).map(|()| 400);
            }
        }
    }
    let deadline = match parse_deadline(&doc) {
        Ok(d) => d,
        Err(detail) => return send_error(rsp, 400, "bad_deadline", &detail).map(|()| 400),
    };
    drop(doc);
    let submitted = match deadline {
        Some(d) => state.router.submit_many_with_deadline(pairs, d),
        None => state.router.submit_many(pairs),
    };
    let handle = match submitted {
        Ok(handle) => handle,
        Err(e) => return send_submit_error(state, rsp, &e),
    };
    let mut stream = rsp.start_chunked(200, &[("Content-Type", "application/x-ndjson")])?;
    let mut line = Vec::new();
    for (slot, result) in handle.into_iter().enumerate() {
        line.clear();
        match result {
            Ok(product) => write_product(&mut line, &product, Some(slot)),
            Err(e) => {
                let (code, _) = mul_error_code(&e);
                let error = obj([
                    ("slot", Json::Num(slot as i128)),
                    ("error", Json::Str(code.to_string())),
                    ("detail", Json::Str(e.to_string())),
                ]);
                line.extend_from_slice(error.dump().as_bytes());
            }
        }
        line.push(b'\n');
        stream.chunk(&line)?;
        state.http_metrics.record_streamed();
    }
    stream.finish()?;
    Ok(200)
}

fn parse_json_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| e.to_string())
}

fn operand_from(value: &Json) -> Result<BigInt, String> {
    match value {
        Json::Str(s) => s
            .parse::<BigInt>()
            .map_err(|e| format!("bad integer literal: {e}")),
        _ => Err("operand must be a string (\"0x…\" hex or decimal)".to_string()),
    }
}

fn parse_operand(doc: &Json, key: &str) -> Result<BigInt, String> {
    let value = doc
        .get(key)
        .ok_or_else(|| format!("missing field \"{key}\""))?;
    operand_from(value).map_err(|e| format!("field \"{key}\": {e}"))
}

fn parse_deadline(doc: &Json) -> Result<Option<Duration>, String> {
    match doc.get("deadline_ms") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|ms| Some(Duration::from_millis(ms)))
            .ok_or_else(|| "deadline_ms must be a non-negative integer".to_string()),
    }
}

fn send_error(
    rsp: &mut ft_net::Responder<'_>,
    status: u16,
    code: &str,
    detail: &str,
) -> std::io::Result<()> {
    let body = obj([
        ("error", Json::Str(code.to_string())),
        ("detail", Json::Str(detail.to_string())),
    ])
    .dump();
    rsp.send(status, "application/json", body.as_bytes())
}

/// Map a queue-boundary refusal to its status code (the top of the
/// backpressure ladder — the request never entered the system).
#[must_use]
pub fn submit_error_status(e: &SubmitError) -> u16 {
    match e {
        SubmitError::QueueFull { .. } => 429,
        SubmitError::ShuttingDown => 503,
    }
}

/// `Retry-After` seconds for a 429, derived from a time the service
/// measures: a backlog of `depth` requests drains in about
/// `depth × mean_latency_us`, where `mean_latency_us` is the mean
/// submit-to-result latency of the requests served so far
/// ([`MetricsSnapshot::mean_latency_us`]). Clamped to `[1, 30]` — whole
/// seconds are the header's granularity, and past 30 s a client should
/// re-plan, not sleep. With no history (a mean of 0) it says 1.
///
/// The estimate errs long under load: each served request's latency
/// already includes the time it queued behind others, so the backlog
/// that fills a queue is partly counted twice, and a lane that takes a
/// backlog in batched rounds serves each request in less time than a
/// lone one takes. It errs short when the queue holds bigger products
/// than the history did, since the mean covers both lanes and every
/// request since start.
#[must_use]
pub fn derive_retry_after(depth: usize, mean_latency_us: u64) -> u64 {
    let drain_us = (depth as u64).saturating_mul(mean_latency_us);
    drain_us.div_ceil(1_000_000).clamp(1, 30)
}

fn send_submit_error(
    state: &AppState,
    rsp: &mut ft_net::Responder<'_>,
    e: &SubmitError,
) -> std::io::Result<u16> {
    let status = submit_error_status(e);
    match e {
        SubmitError::QueueFull { capacity } => {
            // The queue was full a moment ago; the live depth (it may
            // already be draining) bounds the wait better than the
            // capacity does. `Router::queue_depth` is the *minimum*
            // across live shards — a retry lands on the shallowest
            // survivor, never on a dead shard's abandoned backlog.
            let depth = state.router.queue_depth().min(*capacity).max(1);
            let retry_after = derive_retry_after(depth, state.router.metrics().mean_latency_us());
            let body = obj([
                ("error", Json::Str("queue_full".to_string())),
                ("detail", Json::Str(e.to_string())),
                ("retry_after_s", Json::Num(i128::from(retry_after))),
            ])
            .dump();
            rsp.send_with(
                status,
                &[
                    ("Content-Type", "application/json"),
                    ("Retry-After", &retry_after.to_string()),
                ],
                body.as_bytes(),
            )?;
        }
        SubmitError::ShuttingDown => send_error(rsp, status, "shutting_down", &e.to_string())?,
    }
    Ok(status)
}

/// Map an accepted-but-failed request to `(error code, status)`: `504`
/// when its deadline passed in queue, `503` when shed or stopped, `500`
/// when the retry budget and the kernel degradation ladder were
/// exhausted (which includes persistent verification failures — the
/// supervisor retries those as soft faults before giving up).
#[must_use]
pub fn mul_error_code(e: &MulError) -> (&'static str, u16) {
    match e {
        MulError::DeadlineExceeded { .. } => ("deadline_exceeded", 504),
        MulError::Shed { .. } => ("shed", 503),
        MulError::ServiceStopped => ("service_stopped", 503),
        MulError::WorkerFault { .. } => ("worker_fault", 500),
    }
}

fn send_mul_error(rsp: &mut ft_net::Responder<'_>, e: &MulError) -> std::io::Result<u16> {
    let (code, status) = mul_error_code(e);
    send_error(rsp, status, code, &e.to_string())?;
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping_follows_the_degradation_ladder() {
        assert_eq!(
            submit_error_status(&SubmitError::QueueFull { capacity: 4 }),
            429
        );
        assert_eq!(submit_error_status(&SubmitError::ShuttingDown), 503);
        assert_eq!(
            mul_error_code(&MulError::DeadlineExceeded {
                waited: Duration::from_millis(3)
            }),
            ("deadline_exceeded", 504)
        );
        assert_eq!(
            mul_error_code(&MulError::Shed {
                waited: Duration::ZERO
            }),
            ("shed", 503)
        );
        assert_eq!(
            mul_error_code(&MulError::ServiceStopped),
            ("service_stopped", 503)
        );
        assert_eq!(
            mul_error_code(&MulError::WorkerFault { attempts: 6 }),
            ("worker_fault", 500)
        );
    }

    #[test]
    fn retry_after_scales_with_measured_latency() {
        // No history: nothing to scale, so the header's 1 s minimum.
        assert_eq!(derive_retry_after(1_024, 0), 1);
        // A full queue of fast requests still drains within a second:
        // 1,024 × 300 µs ≈ 0.3 s.
        assert_eq!(derive_retry_after(1_024, 300), 1);
        // In between, the wait scales with depth and with latency,
        // rounded up to whole seconds: 100 × 25 ms = 2.5 s, 200 × 25 ms
        // = 5 s, 200 × 50 ms = 10 s.
        assert_eq!(derive_retry_after(100, 25_000), 3);
        assert_eq!(derive_retry_after(200, 25_000), 5);
        assert_eq!(derive_retry_after(200, 50_000), 10);
        // A slow history behind a deep backlog is clamped at 30 s rather
        // than telling clients to nap: 1,024 × 18 ms ≈ 18.4 s is still
        // said, 1,024 × 50 ms ≈ 51 s is not.
        assert_eq!(derive_retry_after(1_024, 18_000), 19);
        assert_eq!(derive_retry_after(1_024, 50_000), 30);
        // Degenerate inputs stay in range instead of overflowing.
        assert_eq!(derive_retry_after(0, 50_000), 1);
        assert_eq!(derive_retry_after(usize::MAX, u64::MAX), 30);
    }

    #[test]
    fn operands_parse_hex_and_decimal_with_signs() {
        let doc = Json::parse(r#"{"a": "0xff", "b": "-12"}"#).unwrap();
        assert_eq!(parse_operand(&doc, "a").unwrap(), BigInt::from(255i64));
        assert_eq!(parse_operand(&doc, "b").unwrap(), BigInt::from(-12i64));
        assert!(parse_operand(&doc, "c").unwrap_err().contains("missing"));
        let doc = Json::parse(r#"{"a": 7}"#).unwrap();
        assert!(parse_operand(&doc, "a").unwrap_err().contains("string"));
        let doc = Json::parse(r#"{"a": "0xzz"}"#).unwrap();
        assert!(parse_operand(&doc, "a").is_err());
    }

    #[test]
    fn deadline_field_is_optional_and_validated() {
        let doc = Json::parse("{}").unwrap();
        assert_eq!(parse_deadline(&doc).unwrap(), None);
        let doc = Json::parse(r#"{"deadline_ms": 250}"#).unwrap();
        assert_eq!(
            parse_deadline(&doc).unwrap(),
            Some(Duration::from_millis(250))
        );
        let doc = Json::parse(r#"{"deadline_ms": -1}"#).unwrap();
        assert!(parse_deadline(&doc).is_err());
        let doc = Json::parse(r#"{"deadline_ms": "soon"}"#).unwrap();
        assert!(parse_deadline(&doc).is_err());
    }
}
