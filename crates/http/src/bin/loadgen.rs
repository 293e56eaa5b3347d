//! Load generator for the HTTP front door: drives a running `ft-http`
//! server over real loopback sockets with N client threads, a
//! configurable operand-size mix, and closed- or open-loop pacing, then
//! reports RPS and latency percentiles (and writes `BENCH_http.json`
//! unless `--quick`).
//!
//! By default the generator starts an in-process server on an ephemeral
//! port — the traffic still crosses real TCP sockets — so the benchmark
//! is self-contained and seeds deterministically. Point `--addr` at an
//! external server to skip that.
//!
//! ```text
//! cargo run --release -p ft-http --bin loadgen -- --quick
//! cargo run --release -p ft-http --bin loadgen -- \
//!     --threads 4 --requests 200 --mix 512:2048:8192 --out BENCH_http.json
//! ```
//!
//! Every response is verified bit-exactly against a precomputed product
//! from the seeded operand pool; any mismatch aborts the run. Closed
//! loop (default) sends the next request as soon as the previous
//! response lands; open loop (`--rate R`, per thread) sends on a fixed
//! schedule and measures latency including queueing.

use ft_http::client::Client;
use ft_http::{HttpConfig, HttpServer};
use ft_service::json::{obj, Json};
use ft_service::{BatchingConfig, ServiceConfig, ShardConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

struct Args {
    threads: usize,
    requests: usize,
    mix: Vec<u64>,
    rate: Option<u64>,
    batch_every: usize,
    batch_size: usize,
    addr: Option<SocketAddr>,
    shards: usize,
    seed: u64,
    out: Option<String>,
    quick: bool,
    sweep: bool,
    steps: Vec<u64>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            threads: 4,
            requests: 100,
            mix: vec![512, 2_048, 8_192],
            rate: None,
            batch_every: 8,
            batch_size: 4,
            addr: None,
            shards: 1,
            seed: 42,
            out: Some("BENCH_http.json".to_string()),
            quick: false,
            sweep: false,
            steps: vec![100, 200, 400, 800, 1_600],
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--threads N] [--requests N-per-thread] [--mix bits:bits:...]\n\
         \x20              [--rate RPS-per-thread] [--batch-every N] [--batch-size N]\n\
         \x20              [--addr HOST:PORT] [--shards N] [--seed N] [--out FILE] [--quick]\n\
         \x20              [--sweep [--steps RPS:RPS:...]]\n\
         --sweep runs the admission-control experiment: an in-process server\n\
         with a small lane queue and a tight connection cap, stepped through\n\
         open-loop total-RPS levels while an over-cap prober measures the 503\n\
         reject path. Results merge into --out under \"admission_sweep\"."
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--threads" => args.threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            "--requests" => args.requests = value("--requests").parse().unwrap_or_else(|_| usage()),
            "--mix" => {
                args.mix = value("--mix")
                    .split(':')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.mix.is_empty() {
                    usage();
                }
            }
            "--rate" => args.rate = Some(value("--rate").parse().unwrap_or_else(|_| usage())),
            "--batch-every" => {
                args.batch_every = value("--batch-every").parse().unwrap_or_else(|_| usage());
            }
            "--batch-size" => {
                args.batch_size = value("--batch-size").parse().unwrap_or_else(|_| usage());
            }
            "--addr" => args.addr = Some(value("--addr").parse().unwrap_or_else(|_| usage())),
            "--shards" => {
                args.shards = value("--shards").parse().unwrap_or_else(|_| usage());
                if args.shards == 0 {
                    usage();
                }
            }
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(value("--out")),
            "--sweep" => args.sweep = true,
            "--steps" => {
                args.steps = value("--steps")
                    .split(':')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if args.steps.is_empty() {
                    usage();
                }
            }
            "--quick" => {
                args.quick = true;
                args.threads = 2;
                args.requests = 12;
                args.out = None;
            }
            _ => usage(),
        }
    }
    args
}

/// SplitMix64; the pool and per-thread request streams derive from it.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic hex literal of roughly `bits` bits.
fn hex_operand(seed: u64, bits: u64) -> String {
    let nibbles = (bits / 4).max(1) as usize;
    let mut out = String::with_capacity(nibbles + 2);
    out.push_str("0x");
    let mut s = seed;
    for i in 0..nibbles {
        if i % 16 == 0 {
            s = splitmix64(s ^ i as u64);
        }
        let nib = (s >> (4 * (i % 16))) & 0xf;
        out.push(char::from_digit(nib as u32, 16).unwrap());
    }
    out
}

/// The operand pool: seeded (a, b) pairs per size class with products
/// precomputed once, so every response can be checked bit-exactly
/// without paying a multiplication on the measurement path.
struct Pool {
    /// (a_hex, b_hex, product_hex) per entry.
    entries: Vec<(String, String, String)>,
}

impl Pool {
    fn build(seed: u64, mix: &[u64], per_class: usize) -> Pool {
        let mut entries = Vec::new();
        for (ci, &bits) in mix.iter().enumerate() {
            for i in 0..per_class {
                let s = splitmix64(seed ^ ((ci as u64) << 32) ^ i as u64);
                let a_hex = hex_operand(s, bits);
                let b_hex = hex_operand(splitmix64(s), bits);
                let a: ft_bigint::BigInt = a_hex.parse().expect("pool operand");
                let b: ft_bigint::BigInt = b_hex.parse().expect("pool operand");
                entries.push((a_hex, b_hex, a.mul_schoolbook(&b).to_hex()));
            }
        }
        Pool { entries }
    }

    fn pick(&self, n: u64) -> &(String, String, String) {
        &self.entries[(splitmix64(n) % self.entries.len() as u64) as usize]
    }
}

fn product_of(line: &str) -> String {
    let doc = Json::parse(line).expect("response JSON");
    match doc.get("product") {
        Some(Json::Str(p)) => p.clone(),
        _ => panic!("response carried no product: {line}"),
    }
}

/// One client thread's run: `requests` exchanges over one keep-alive
/// connection, every `batch_every`-th a streamed batch. Returns observed
/// per-exchange latencies (µs) and the number of products verified.
fn client_run(addr: SocketAddr, args: &Args, thread: usize, pool: &Pool) -> (Vec<u64>, u64) {
    let mut client = Client::connect(addr, Duration::from_secs(30)).expect("connect");
    let mut latencies = Vec::with_capacity(args.requests);
    let mut verified = 0u64;
    let tick = args
        .rate
        .map(|r| Duration::from_nanos(1_000_000_000 / r.max(1)));
    let run_start = Instant::now();
    for i in 0..args.requests {
        if let Some(tick) = tick {
            // Open loop: send on schedule; if behind, send immediately
            // (the latency sample then includes our own queueing).
            let due = run_start + tick * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let n = (thread as u64) << 32 | i as u64;
        let started = Instant::now();
        if args.batch_every > 0 && i % args.batch_every == args.batch_every - 1 {
            let pairs: Vec<Json> = (0..args.batch_size)
                .map(|j| {
                    let (a, b, _) = pool.pick(n ^ (j as u64) << 17);
                    Json::Arr(vec![Json::Str(a.clone()), Json::Str(b.clone())])
                })
                .collect();
            let body = obj([("pairs", Json::Arr(pairs))]).dump();
            let mut slot = 0usize;
            let rsp = client
                .request_streaming("POST", "/v1/mul/batch", Some(body.as_bytes()), |line| {
                    let (_, _, want) = pool.pick(n ^ (slot as u64) << 17);
                    assert_eq!(&product_of(line), want, "batch slot {slot} mismatch");
                    slot += 1;
                })
                .expect("batch exchange");
            assert_eq!(rsp.status, 200, "batch status");
            assert_eq!(slot, args.batch_size, "batch line count");
            verified += args.batch_size as u64;
        } else {
            let (a, b, want) = pool.pick(n);
            let body = obj([("a", Json::Str(a.clone())), ("b", Json::Str(b.clone()))]).dump();
            let rsp = client
                .request("POST", "/v1/mul", Some(body.as_bytes()))
                .expect("mul exchange");
            assert_eq!(rsp.status, 200, "mul status: {}", rsp.text());
            assert_eq!(&product_of(&rsp.text()), want, "product mismatch");
            verified += 1;
        }
        latencies.push(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    (latencies, verified)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Open raw connections against a server at its connection cap. In-cap
/// accepts are held (the server sends nothing unprompted, so the read
/// times out); over-cap accepts must receive an *immediate* `503` and a
/// close. Returns (connections admitted, reject latencies in µs).
fn probe_over_cap(addr: SocketAddr, cap: usize, want_rejects: usize) -> (usize, Vec<u64>) {
    use std::io::Read as _;
    let mut held = Vec::new();
    let mut rejects = Vec::new();
    // Bounded attempts: even if client slots free up mid-probe, at most
    // `cap` extras can be admitted before the 503s start.
    for _ in 0..cap + want_rejects + 2 {
        if rejects.len() >= want_rejects {
            break;
        }
        let started = Instant::now();
        let mut stream = std::net::TcpStream::connect(addr).expect("probe connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(400)))
            .unwrap();
        let mut buf = [0u8; 256];
        match stream.read(&mut buf) {
            Ok(n) if n > 0 => {
                let head = String::from_utf8_lossy(&buf[..n]);
                assert!(
                    head.starts_with("HTTP/1.1 503"),
                    "over-cap connection got {head:?}, not 503"
                );
                rejects.push(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
            }
            // Timeout (or EOF without payload): the connection was
            // admitted — hold it so it keeps occupying its slot.
            _ => held.push(stream),
        }
    }
    assert_eq!(rejects.len(), want_rejects, "503 prober starved");
    (held.len(), rejects)
}

/// Admission-control sweep (`--sweep`): a deliberately small in-process
/// server — lane queue capacity 8, connection cap `threads + 2` —
/// stepped through open-loop offered-load levels. Each step reports
/// latency percentiles of served requests and the 429 shed rate, while
/// an over-cap prober verifies that connections past the cap get an
/// immediate 503 no matter how overloaded the request path is.
#[allow(clippy::too_many_lines)]
fn run_sweep(args: &Args) {
    use std::sync::atomic::{AtomicBool, Ordering};

    const QUEUE_CAPACITY: usize = 8;
    const STEP_SECS: f64 = 1.5;
    // More clients than queue slots, or the bounded queue can never
    // overflow (each client holds at most one request in flight) and
    // the 429 rung would be invisible.
    let threads = args.threads.max(3 * QUEUE_CAPACITY);
    let cap = threads + 2;
    let steps: &[u64] = if args.quick {
        &args.steps[..args.steps.len().min(2)]
    } else {
        &args.steps
    };
    let pool = Pool::build(args.seed, &[256], 8);

    let service = ServiceConfig {
        batching: BatchingConfig {
            queue_capacity: QUEUE_CAPACITY,
            ..BatchingConfig::default()
        },
        ..ServiceConfig::default()
    };
    let http = HttpConfig {
        net: ft_net::ServerConfig {
            max_connections: cap,
            // Handlers park on the service while a request resolves, so
            // the pool must outnumber the queue slots — otherwise the
            // pool, not the bounded queue, is the admission limit and
            // the 429 rung never fires.
            handler_threads: threads,
            ..ft_net::ServerConfig::default()
        },
        ..HttpConfig::default()
    };
    let server = HttpServer::start(&http, service).expect("server");
    let addr = server.local_addr();
    println!(
        "admission sweep: {threads} clients, conn cap {cap}, lane queue {QUEUE_CAPACITY}, steps {steps:?} rps",
    );

    let mut step_docs = Vec::new();
    for &rate in steps {
        let per_thread = (rate / threads as u64).max(1);
        let reqs = ((per_thread as f64) * STEP_SECS).ceil() as usize;
        let release = AtomicBool::new(false);
        let (mut oks, mut shed_429, mut other_5xx) = (Vec::new(), 0u64, 0u64);
        let (probe_admitted, probe_rejects) = std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for t in 0..threads {
                let pool = &pool;
                let release = &release;
                joins.push(scope.spawn(move || {
                    let mut client =
                        Client::connect(addr, Duration::from_secs(30)).expect("connect");
                    let tick = Duration::from_nanos(1_000_000_000 / per_thread);
                    let start = Instant::now();
                    let mut lat = Vec::with_capacity(reqs);
                    let (mut e429, mut e5xx) = (0u64, 0u64);
                    for i in 0..reqs {
                        let due = start + tick * i as u32;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let n = (t as u64) << 32 | i as u64;
                        let (a, b, want) = pool.pick(n);
                        let body =
                            obj([("a", Json::Str(a.clone())), ("b", Json::Str(b.clone()))]).dump();
                        let sent = Instant::now();
                        let rsp = client
                            .request("POST", "/v1/mul", Some(body.as_bytes()))
                            .expect("mul exchange");
                        match rsp.status {
                            200 => {
                                assert_eq!(&product_of(&rsp.text()), want, "product mismatch");
                                lat.push(
                                    u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX),
                                );
                            }
                            429 => {
                                assert!(
                                    rsp.header("retry-after").is_some(),
                                    "429 without Retry-After"
                                );
                                e429 += 1;
                            }
                            503 | 504 => e5xx += 1,
                            other => panic!("unexpected status {other}: {}", rsp.text()),
                        }
                    }
                    // Hold the connection until the prober finishes so the
                    // in-cap slot count stays deterministic.
                    while !release.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    (lat, e429, e5xx)
                }));
            }
            // Mid-step, probe the admission path from the main thread.
            std::thread::sleep(Duration::from_millis(200));
            let probe = probe_over_cap(addr, cap, 3);
            release.store(true, Ordering::Release);
            for j in joins {
                let (lat, e429, e5xx) = j.join().expect("sweep client");
                oks.extend(lat);
                shed_429 += e429;
                other_5xx += e5xx;
            }
            probe
        });
        oks.sort_unstable();
        let mut reject_us = probe_rejects;
        reject_us.sort_unstable();
        let served = oks.len() as u64;
        println!(
            "  {rate:>5} rps offered: {served} ok, {shed_429} x 429, {other_5xx} x 5xx | \
             p50 {}us p99 {}us p999 {}us | probe: {probe_admitted} admitted, {} x 503 (p50 {}us)",
            percentile(&oks, 50.0),
            percentile(&oks, 99.0),
            percentile(&oks, 99.9),
            reject_us.len(),
            percentile(&reject_us, 50.0),
        );
        step_docs.push(obj([
            ("offered_rps", Json::Num(i128::from(rate))),
            ("ok", Json::Num(i128::from(served))),
            ("shed_429", Json::Num(i128::from(shed_429))),
            ("other_5xx", Json::Num(i128::from(other_5xx))),
            ("p50_us", Json::Num(i128::from(percentile(&oks, 50.0)))),
            ("p99_us", Json::Num(i128::from(percentile(&oks, 99.0)))),
            ("p999_us", Json::Num(i128::from(percentile(&oks, 99.9)))),
            ("probe_rejected_503", Json::Num(reject_us.len() as i128)),
            (
                "probe_reject_p50_us",
                Json::Num(i128::from(percentile(&reject_us, 50.0))),
            ),
        ]));
    }

    let net = server.net_stats();
    let (_, leftover) = server.shutdown();
    assert_eq!(leftover, 0, "sweep drain left connections behind");
    println!(
        "sweep done: {} over-cap connects rejected across all steps",
        net.rejected_over_cap
    );

    if args.quick {
        println!("loadgen --sweep --quick: ok");
        return;
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_http.json".to_string());
    let sweep_doc = obj([
        (
            "config",
            obj([
                ("threads", Json::Num(threads as i128)),
                ("max_connections", Json::Num(cap as i128)),
                ("queue_capacity", Json::Num(QUEUE_CAPACITY as i128)),
                ("mix_bits", Json::Arr(vec![Json::Num(256)])),
                ("seed", Json::Num(i128::from(args.seed))),
            ]),
        ),
        ("steps", Json::Arr(step_docs)),
        (
            "rejected_over_cap_total",
            Json::Num(i128::from(net.rejected_over_cap)),
        ),
    ]);
    // Merge, preserving every other key already in the report.
    let mut root = std::fs::read_to_string(&out)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .unwrap_or_else(|| Json::Obj(Default::default()));
    if let Json::Obj(map) = &mut root {
        map.insert("admission_sweep".to_string(), sweep_doc);
    } else {
        root = obj([("admission_sweep", sweep_doc)]);
    }
    std::fs::write(&out, root.dump() + "\n").expect("write bench report");
    println!("merged admission_sweep into {out}");
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = parse_args();
    if args.sweep {
        run_sweep(&args);
        return;
    }
    let pool = Pool::build(args.seed, &args.mix, 8);

    // In-process server unless --addr points elsewhere; either way the
    // traffic crosses real TCP sockets. `--shards N` puts the router's
    // sharded topology behind the same front door.
    let server = if args.addr.is_none() {
        let server = if args.shards > 1 {
            HttpServer::start_sharded(
                &HttpConfig::default(),
                ShardConfig {
                    shards: args.shards,
                    ..ShardConfig::default()
                },
            )
        } else {
            HttpServer::start(&HttpConfig::default(), ServiceConfig::default())
        };
        Some(server.expect("server"))
    } else {
        None
    };
    let addr = args
        .addr
        .unwrap_or_else(|| server.as_ref().expect("in-process server").local_addr());

    let bench_start = Instant::now();
    let (latencies, verified) = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..args.threads {
            let args = &args;
            let pool = &pool;
            joins.push(scope.spawn(move || client_run(addr, args, t, pool)));
        }
        let mut all = Vec::new();
        let mut verified = 0u64;
        for j in joins {
            let (lat, v) = j.join().expect("client thread");
            all.extend(lat);
            verified += v;
        }
        (all, verified)
    });
    let elapsed = bench_start.elapsed();

    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let exchanges = latencies.len() as u64;
    let rps = exchanges as f64 / elapsed.as_secs_f64();
    let net = server
        .as_ref()
        .map(ft_http::HttpServer::net_stats)
        .unwrap_or_default();

    println!(
        "loadgen: {} threads x {} exchanges ({} products verified) in {:.2}s{}",
        args.threads,
        args.requests,
        verified,
        elapsed.as_secs_f64(),
        if args.shards > 1 {
            format!(" across {} shards", args.shards)
        } else {
            String::new()
        }
    );
    println!(
        "  rps {rps:.1}  p50 {}us  p90 {}us  p99 {}us  max {}us",
        percentile(&sorted, 50.0),
        percentile(&sorted, 90.0),
        percentile(&sorted, 99.0),
        sorted.last().copied().unwrap_or(0),
    );

    let report = server.map(|s| {
        let http = s.http_metrics();
        let (service_metrics, leftover) = s.shutdown();
        assert_eq!(leftover, 0, "graceful drain left connections behind");
        (http, service_metrics)
    });

    if args.quick {
        // CI smoke mode: everything above already asserted bit-exact
        // results and a clean drain.
        assert!(exchanges > 0 && verified >= exchanges);
        println!("loadgen --quick: ok");
        return;
    }

    if let (Some(out), Some((http, service_metrics))) = (&args.out, report) {
        let mix = Json::Arr(args.mix.iter().map(|&b| Json::Num(i128::from(b))).collect());
        let doc = obj([
            (
                "config",
                obj([
                    ("threads", Json::Num(args.threads as i128)),
                    ("requests_per_thread", Json::Num(args.requests as i128)),
                    ("mix_bits", mix),
                    (
                        "rate_per_thread",
                        args.rate.map_or(Json::Null, |r| Json::Num(i128::from(r))),
                    ),
                    ("batch_every", Json::Num(args.batch_every as i128)),
                    ("batch_size", Json::Num(args.batch_size as i128)),
                    ("seed", Json::Num(i128::from(args.seed))),
                    (
                        "mode",
                        Json::Str(
                            if args.rate.is_some() {
                                "open"
                            } else {
                                "closed"
                            }
                            .to_string(),
                        ),
                    ),
                ]),
            ),
            (
                "results",
                obj([
                    ("exchanges", Json::Num(i128::from(exchanges))),
                    ("products_verified", Json::Num(i128::from(verified))),
                    ("elapsed_ms", Json::Num(elapsed.as_millis() as i128)),
                    ("rps", Json::Num(rps.round() as i128)),
                    ("p50_us", Json::Num(i128::from(percentile(&sorted, 50.0)))),
                    ("p90_us", Json::Num(i128::from(percentile(&sorted, 90.0)))),
                    ("p99_us", Json::Num(i128::from(percentile(&sorted, 99.0)))),
                    (
                        "max_us",
                        Json::Num(i128::from(sorted.last().copied().unwrap_or(0))),
                    ),
                    (
                        "streamed_results",
                        Json::Num(i128::from(http.streamed_results)),
                    ),
                    ("connections", Json::Num(i128::from(net.total_connections))),
                    ("parse_errors", Json::Num(i128::from(net.parse_errors))),
                    (
                        "service_served",
                        Json::Num(i128::from(service_metrics.served)),
                    ),
                    (
                        "service_p99_us",
                        Json::Num(i128::from(service_metrics.p99_latency_us())),
                    ),
                ]),
            ),
        ]);
        // Merge over the existing report so sections owned by other
        // modes (e.g. `admission_sweep` from --sweep) survive.
        let mut root = std::fs::read_to_string(out)
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .unwrap_or_else(|| Json::Obj(Default::default()));
        let (config, results) = match doc {
            Json::Obj(mut map) => (
                map.remove("config").expect("config section"),
                map.remove("results").expect("results section"),
            ),
            _ => unreachable!("doc is an object"),
        };
        if let Json::Obj(map) = &mut root {
            map.insert("config".to_string(), config);
            map.insert("results".to_string(), results);
        } else {
            root = obj([("config", config), ("results", results)]);
        }
        std::fs::write(out, root.dump() + "\n").expect("write bench report");
        println!("wrote {out}");
    }
}
