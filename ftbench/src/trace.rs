//! Spans recorded from outside the program, around calls into each
//! layer's public functions, and the replay that produces them.
//!
//! Spans live in memory and are written out as JSON lines when the run
//! ends. A span's self time is its duration minus the part of it that
//! its child spans cover.

use crate::check::Checker;
use crate::gen::Pair;
use ft_bigint::BigInt;
use ft_http::HttpServer;
use ft_service::json::{obj, Json};
use ft_service::plan_cache::PlanCache;
use ft_service::{Kernel, KernelPolicy};
use ft_toom_core::residue;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are ns since the tracer's epoch.
pub struct Span {
    pub trace: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    #[allow(clippy::cast_possible_truncation)]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, trace: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            trace,
            parent,
            name,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Record an already-timed span.
    #[cfg(test)]
    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        trace: u64,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(trace, Some(parent), name);
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span, in ns, indexed like the spans.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_by_key(|&k| self.spans[k].start);
                let (mut covered, mut reach) = (0, span.start);
                for k in kids {
                    let (s, e) = (
                        self.spans[k].start.max(reach),
                        self.spans[k].end.min(span.end),
                    );
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                (span.end - span.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Mean self time in µs and span count, by span name, over the spans
    /// whose trace id lies in `traces`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean_self_us(
        &self,
        traces: std::ops::Range<u64>,
    ) -> BTreeMap<&'static str, (f64, usize)> {
        let mut sums: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            if !traces.contains(&span.trace) {
                continue;
            }
            let e = sums.entry(span.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(name, (ns, n))| (name, (ns as f64 / n as f64 / 1e3, n)))
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.trace, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// The kernel rungs the replay times, in ladder order.
pub const RUNGS: [Kernel; 4] = [
    Kernel::Schoolbook,
    Kernel::SeqToom,
    Kernel::ParToom,
    Kernel::Ntt,
];

/// Span name of a rung's kernel call.
#[must_use]
pub fn kernel_span(kernel: Kernel) -> &'static str {
    match kernel {
        Kernel::Schoolbook => "kernel.schoolbook",
        Kernel::SeqToom => "kernel.seq_toom",
        Kernel::ParToom => "kernel.par_toom",
        Kernel::Ntt | Kernel::DistributedToom => "kernel.ntt",
    }
}

/// `(lo, hi]` operand bits each rung serves under `policy`.
fn band(kernel: Kernel, policy: &KernelPolicy) -> (u64, u64) {
    match kernel {
        Kernel::Schoolbook => (0, policy.schoolbook_max_bits),
        Kernel::SeqToom => (policy.schoolbook_max_bits, policy.seq_toom_max_bits),
        Kernel::ParToom => (policy.seq_toom_max_bits, policy.ntt_min_bits),
        Kernel::Ntt | Kernel::DistributedToom => (policy.ntt_min_bits, u64::MAX),
    }
}

/// Log distance from `bits` to a rung's band (0 inside it).
#[allow(clippy::cast_precision_loss)]
fn distance(bits: u64, (lo, hi): (u64, u64)) -> f64 {
    if bits <= lo {
        (lo as f64 / bits as f64).ln()
    } else if bits > hi {
        (bits as f64 / hi as f64).ln()
    } else {
        0.0
    }
}

/// What the replay measured beyond the spans.
#[derive(Default)]
pub struct Replay {
    /// Replayed pairs and their operand Mbit (both operands).
    pub pairs: usize,
    pub mbit: f64,
    /// Mean word operations per call, by rung span name.
    pub word_ops: BTreeMap<&'static str, f64>,
    /// Replayed products that failed the benchmark's check.
    pub wrong: u64,
    /// Replayed submissions the server refused or failed.
    pub failed: u64,
}

/// Send `pairs` through each layer's public functions, one trace id per
/// pair: the ft-net parser, JSON and hex decoding, `Router::submit` and
/// `ResponseHandle::wait` on the live server, the kernel, the residue
/// check, and hex plus JSON encoding. A rung that serves none of the
/// pairs is timed once on the pair nearest its size band, so every rung
/// is timed on every workload.
#[allow(clippy::cast_precision_loss)]
pub fn replay(
    tracer: &mut Tracer,
    server: &HttpServer,
    pairs: &[&Pair],
    checker: &Checker,
) -> Replay {
    let policy = KernelPolicy::default();
    let plans = PlanCache::new(8);
    plans.prewarm([policy.seq_toom_k, policy.par_toom_k]);
    let limits = ft_net::Limits::default();
    // Size this thread's kernel workspace on the largest pair first, as the
    // server's warm-up did for its dispatcher.
    if let Some(largest) = pairs.iter().max_by_key(|p| p.bits) {
        let kernel = Kernel::select(&largest.a, &largest.b, &policy);
        let _ = kernel.execute(&largest.a, &largest.b, &policy, &plans);
    }
    let mut out = Replay::default();
    let mut ops: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (trace, pair) in pairs.iter().enumerate() {
        let trace = trace as u64;
        let body = format!("{{\"a\":\"{}\",\"b\":\"{}\"}}", pair.a_hex, pair.b_hex);
        let mut raw = format!(
            "POST /v1/mul HTTP/1.1\r\nHost: ft-http\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body.as_bytes());
        let root = tracer.open(trace, None, "replay.pair");
        let parsed = tracer.time(trace, root, "ft_net.parse", || {
            ft_net::Parser::new(limits.clone()).feed(&raw)
        });
        let Ok((_, Some(request))) = parsed else {
            panic!("ft-net rejected a benchmark request");
        };
        let (a, b) = tracer.time(trace, root, "codec.decode", || {
            let doc = Json::parse(std::str::from_utf8(&request.body).expect("UTF-8 body"))
                .expect("benchmark JSON parses");
            let operand = |key| match doc.get(key) {
                Some(Json::Str(s)) => s.parse::<BigInt>().expect("hex operand parses"),
                _ => panic!("missing operand {key}"),
            };
            (operand("a"), operand("b"))
        });
        let (a2, b2) = (a.clone(), b.clone());
        let submitted = tracer.time(trace, root, "router.submit", || {
            server.router().submit(a2, b2)
        });
        let served = match submitted {
            Ok(handle) => tracer
                .time(trace, root, "service.wait", || handle.wait())
                .ok(),
            Err(_) => None,
        };
        let kernel = Kernel::select(&a, &b, &policy);
        let (product, n_ops) = tracer.time(trace, root, kernel_span(kernel), || {
            ft_bigint::metrics::measure(|| kernel.execute(&a, &b, &policy, &plans))
        });
        let e = ops.entry(kernel_span(kernel)).or_default();
        e.0 += n_ops;
        e.1 += 1;
        let product = served.unwrap_or_else(|| {
            out.failed += 1;
            product
        });
        tracer.time(trace, root, "verify.residue", || {
            residue::verify_product(&a, &b, &product)
        });
        tracer.time(trace, root, "codec.encode", || {
            obj([("product", Json::Str(product.to_hex()))]).dump()
        });
        tracer.close(root);
        if !checker.matches(&crate::gen::hex(&product), &pair.residues) {
            out.wrong += 1;
        }
        out.pairs += 1;
        out.mbit += 2.0 * pair.bits as f64 / crate::gen::MBIT as f64;
    }
    let trace = pairs.len() as u64;
    for rung in RUNGS {
        let name = kernel_span(rung);
        if ops.contains_key(name) {
            continue;
        }
        let Some(pair) = pairs.iter().min_by(|x, y| {
            distance(x.bits, band(rung, &policy)).total_cmp(&distance(y.bits, band(rung, &policy)))
        }) else {
            continue;
        };
        let root = tracer.open(trace, None, "replay.rung");
        let (_, n_ops) = tracer.time(trace, root, name, || {
            ft_bigint::metrics::measure(|| rung.execute(&pair.a, &pair.b, &policy, &plans))
        });
        tracer.close(root);
        ops.insert(name, (n_ops, 1));
    }
    out.word_ops = ops
        .into_iter()
        .map(|(name, (total, n))| (name, total as f64 / n as f64))
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::default();
        let span = |parent, start, end| Span {
            trace: 0,
            parent,
            name: "x",
            start,
            end,
        };
        t.record(span(None, 0, 100));
        t.record(span(Some(0), 10, 30));
        t.record(span(Some(0), 20, 50)); // overlaps the first child
        t.record(span(Some(0), 90, 120)); // runs past the parent
        assert_eq!(t.self_times(), vec![100 - 40 - 10, 20, 30, 30]);
    }

    #[test]
    fn rung_bands_follow_the_policy() {
        let p = KernelPolicy::default();
        assert_eq!(distance(1_000, band(Kernel::Schoolbook, &p)), 0.0);
        assert!(
            distance(1_000, band(Kernel::Ntt, &p)) > distance(1_000, band(Kernel::ParToom, &p))
        );
        assert_eq!(distance(p.ntt_min_bits + 1, band(Kernel::Ntt, &p)), 0.0);
    }
}
