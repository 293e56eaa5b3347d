//! Client streams over loopback sockets, closed-loop or open-loop, one
//! keep-alive connection each, with every product checked
//! right after its latency stamp.

use crate::check::Checker;
use crate::gen::StreamPlan;
use ft_http::client::{Client, Response};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// How a stream paces its exchanges.
#[derive(Clone, Copy)]
pub enum Pacing {
    /// Send the next exchange when the previous one is checked. With
    /// `whole_cycles`, keep going past the deadline until the stream has
    /// sent every request of its plan a whole number of times.
    Closed { whole_cycles: bool },
    /// Send on a fixed schedule of `per_s` exchanges a second; latency
    /// counts from the due time.
    Open { per_s: f64 },
}

/// One client stream of a workload.
pub struct Stream {
    pub plan: StreamPlan,
    pub pacing: Pacing,
    /// Its exchanges feed `p50_ms` / `tail_ms`.
    pub latency: bool,
    /// Its products feed `products_per_s`.
    pub throughput: bool,
}

/// One measured exchange; times are ns since the phase epoch.
#[derive(Clone, Copy)]
pub struct Record {
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    /// Products in the exchange that came back correct.
    pub good: u32,
    pub ok: bool,
}

impl Record {
    /// Latency as the workload counts it (from the due time), in ms;
    /// a failed exchange misses every limit.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.done - self.due) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    }
}

/// What one stream measured.
#[derive(Default)]
pub struct StreamResult {
    pub records: Vec<Record>,
    /// ns since the epoch when the stream stopped sending.
    pub end: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub reconnects: u64,
}

/// Kill switch fired once the workload's exchange count reaches `at`.
pub struct Trigger<'a> {
    pub at: u64,
    pub fire: &'a (dyn Fn() + Sync),
}

/// Run every stream for `seconds` from a common epoch, one thread each,
/// sampling host steal every 50 ms alongside.
pub fn run(
    addr: SocketAddr,
    streams: &[Stream],
    checker: &Checker,
    seconds: f64,
    trigger: Option<&Trigger<'_>>,
) -> (Vec<StreamResult>, crate::steal::Samples) {
    let start = Barrier::new(streams.len() + 2);
    let exchanges = AtomicU64::new(0);
    let running = std::sync::atomic::AtomicBool::new(true);
    let deadline = Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = crate::steal::Samples::new();
            start.wait();
            let epoch = Instant::now();
            loop {
                let stop = !running.load(Ordering::Acquire);
                if let Some((steal, all)) = crate::steal::read() {
                    samples.push((ns(epoch, Instant::now()), steal, all));
                }
                if stop {
                    return samples;
                }
                std::thread::park_timeout(Duration::from_millis(50));
            }
        });
        let workers: Vec<_> = streams
            .iter()
            .map(|stream| {
                let (start, exchanges) = (&start, &exchanges);
                scope.spawn(move || {
                    let mut client = Client::connect(addr, IO_TIMEOUT).expect("connect to server");
                    start.wait();
                    let epoch = Instant::now();
                    drive(&mut client, addr, stream, checker, epoch, deadline, &|| {
                        let n = exchanges.fetch_add(1, Ordering::Relaxed) + 1;
                        if let Some(t) = trigger {
                            if n == t.at {
                                (t.fire)();
                            }
                        }
                    })
                })
            })
            .collect();
        start.wait();
        let results = workers
            .into_iter()
            .map(|w| w.join().expect("client stream panicked"))
            .collect();
        running.store(false, Ordering::Release);
        sampler.thread().unpark();
        (results, sampler.join().expect("steal sampler panicked"))
    })
}

#[allow(clippy::cast_possible_truncation)]
fn ns(epoch: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(epoch).as_nanos() as u64
}

fn drive(
    client: &mut Client,
    addr: SocketAddr,
    stream: &Stream,
    checker: &Checker,
    epoch: Instant,
    deadline: Duration,
    on_exchange: &dyn Fn(),
) -> StreamResult {
    let mut out = StreamResult::default();
    let requests = &stream.plan.requests;
    let mut due = Instant::now();
    for i in 0.. {
        match stream.pacing {
            Pacing::Closed { whole_cycles } => {
                let over = i > 0 && due.duration_since(epoch) >= deadline;
                if over && (!whole_cycles || i % requests.len() == 0) {
                    break;
                }
            }
            Pacing::Open { per_s } => {
                #[allow(clippy::cast_precision_loss)]
                let offset = Duration::from_secs_f64(i as f64 / per_s);
                if offset >= deadline {
                    break;
                }
                due = epoch + offset;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            }
        }
        let req = &requests[i % requests.len()];
        let sent = Instant::now();
        let reply = client.request("POST", req.path, Some(&req.body));
        let done = Instant::now();
        let products = req.pairs.len() as u64;
        out.attempted += products;
        let (good, wrong, close) = match &reply {
            Ok(rsp) => {
                let (good, wrong) = check(rsp, stream, req, checker);
                let close = rsp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                (good, wrong, close)
            }
            Err(_) => (0, 0, true),
        };
        out.failed += products - good - wrong;
        out.wrong += wrong;
        out.records.push(Record {
            due: ns(epoch, due),
            sent: ns(epoch, sent),
            done: ns(epoch, done),
            good: u32::try_from(good).expect("a batch holds few products"),
            ok: good == products,
        });
        on_exchange();
        if close {
            // ft-net closes a connection after `keep_alive_requests`
            // exchanges (and after any transport error); reconnect.
            *client = Client::connect(addr, IO_TIMEOUT).expect("reconnect to server");
            out.reconnects += 1;
        }
        if let Pacing::Closed { .. } = stream.pacing {
            due = Instant::now();
        }
    }
    out.end = ns(epoch, Instant::now());
    out
}

/// `(correct, wrong)` products in one response; the rest failed.
fn check(
    rsp: &Response,
    stream: &Stream,
    req: &crate::gen::Request,
    checker: &Checker,
) -> (u64, u64) {
    if rsp.status != 200 {
        return (0, 0);
    }
    let body = String::from_utf8_lossy(&rsp.body);
    let mut tally = (0, 0);
    let lines: Vec<&str> = if req.pairs.len() == 1 && req.path == "/v1/mul" {
        vec![body.as_ref()]
    } else {
        body.lines().collect()
    };
    for (slot, line) in lines.iter().enumerate() {
        let Some(product) = field(line, "product") else {
            continue;
        };
        let slot = field_num(line, "slot").unwrap_or(slot);
        let Some(&pair_id) = req.pairs.get(slot) else {
            continue;
        };
        let pair = &stream.plan.pairs[pair_id];
        let exact_ok = pair.exact.as_deref().is_none_or(|want| want == product);
        if exact_ok && checker.matches(product, &pair.residues) {
            tally.0 += 1;
        } else {
            tally.1 += 1;
        }
    }
    tally
}

/// The string value of `"key":"…"` in a flat JSON object.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// The integer value of `"key":n` in a flat JSON object.
fn field_num(line: &str, key: &str) -> Option<usize> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_from_flat_json() {
        let line = r#"{"slot":3,"product":"-0xabc"}"#;
        assert_eq!(field(line, "product"), Some("-0xabc"));
        assert_eq!(field_num(line, "slot"), Some(3));
        assert_eq!(field(r#"{"error":"shed"}"#, "product"), None);
    }
}
