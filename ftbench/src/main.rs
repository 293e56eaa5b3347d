//! End-to-end and per-layer benchmark of the `ft-http` front door.
//!
//! Starts the server in-process, drives it over loopback sockets from at
//! most two client threads, checks every product with the benchmark's
//! own modular check, and prints one JSON result line last:
//!
//! ```sh
//! cargo run --release --offline --manifest-path ftbench/Cargo.toml -- \
//!     --workload small --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics of a traced run. README.md explains the workloads
//! and the metrics.

mod check;
mod gen;
mod live;
mod report;
mod stats;
mod steal;
mod trace;
mod workload;

use check::Checker;
use ft_http::HttpServer;
use live::{Pacing, Stream, StreamResult, Trigger};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

/// Cold starts per run; `setup_s` is their median. All but one run in
/// fresh child processes, so process-wide caches start empty each time.
const SETUP_SAMPLES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_probe = false;
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<u64>().map_err(|e| e.to_string())?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                #[allow(clippy::cast_precision_loss)]
                let s = s as f64;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(1.0),
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

/// What one started server measured.
struct Phase {
    setup_s: f64,
    streams: Vec<Stream>,
    results: Vec<StreamResult>,
    steal: steal::Samples,
    /// Warm-up products that failed or were wrong.
    warm_failed: u64,
    warm_wrong: u64,
    /// Traced runs: counters around the timed phase, spans and replay.
    traced: Option<report::Traced>,
}

fn setup(workload: Workload, seed: u64, checker: &Checker) -> (HttpServer, f64, StreamResult) {
    let warm = Stream {
        plan: workload.warmup(checker),
        pacing: Pacing::Closed { whole_cycles: true },
        latency: false,
        throughput: false,
    };
    let t0 = Instant::now();
    let server = workload.start(seed).expect("start the server");
    let (mut results, _) = live::run(
        server.local_addr(),
        std::slice::from_ref(&warm),
        checker,
        0.0,
        None,
    );
    let setup_s = t0.elapsed().as_secs_f64();
    (server, setup_s, results.remove(0))
}

fn measure(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Phase {
    let checker = Checker::new(seed);
    let streams = workload.streams(seed, &checker);
    let (server, setup_s, warm) = setup(workload, seed, &checker);
    let before = traced.then(|| report::Counters::read(&server));
    let kill = workload.kill(seconds);
    let fire = || {
        if let Some((shard, _)) = kill {
            server.router().kill_shard(shard);
        }
    };
    let trigger = kill.map(|(_, at)| Trigger { at, fire: &fire });
    let (results, steal) = live::run(
        server.local_addr(),
        &streams,
        &checker,
        seconds,
        trigger.as_ref(),
    );
    let traced = before.map(|before| {
        let after = report::Counters::read(&server);
        let mut tracer = trace::Tracer::default();
        let pairs: Vec<&gen::Pair> = streams
            .iter()
            .flat_map(|s| s.plan.pairs.iter().take(workload.replay_pairs(s)))
            .collect();
        let replay = trace::replay(&mut tracer, &server, &pairs, &checker);
        report::Traced {
            before,
            after,
            tracer,
            replay,
        }
    });
    let _ = server.shutdown();
    Phase {
        setup_s,
        streams,
        results,
        steal,
        warm_failed: warm.failed,
        warm_wrong: warm.wrong,
        traced,
    }
}

/// One cold start in a fresh process; prints `setup_s=<seconds>`.
fn setup_probe(workload: Workload, seed: u64) -> ExitCode {
    let checker = Checker::new(seed);
    let (server, setup_s, warm) = setup(workload, seed, &checker);
    let _ = server.shutdown();
    if warm.failed + warm.wrong > 0 {
        eprintln!("setup probe: warm-up products failed or wrong");
        return ExitCode::FAILURE;
    }
    println!("setup_s={setup_s}");
    ExitCode::SUCCESS
}

/// Cold starts in child processes (the current binary in probe mode).
fn child_setups(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--setup-probe", "--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines()
                .find_map(|l| l.strip_prefix("setup_s=")?.parse::<f64>().ok())
                .filter(|_| out.status.success())
                .ok_or(format!("setup probe failed: {}", out.status))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ftbench: {e}\nusage: ftbench --workload small|big|mixed|faulted --seed N --seconds N --trace 0|1");
            return ExitCode::from(2);
        }
    };
    // Injected panics in the faulted workload are expected; keep them
    // off stderr during the timed phase.
    ft_service::install_quiet_panic_hook();
    if args.setup_probe {
        return setup_probe(args.workload, args.seed);
    }
    println!(
        "{}",
        report::stamp(args.workload.name(), args.seed, args.seconds, args.trace)
    );
    let mut metrics = BTreeMap::new();
    let (correct, attempted, failed) = if args.trace {
        let untraced = measure(args.workload, args.seed, args.seconds, false);
        let traced = measure(args.workload, args.seed, args.seconds, true);
        let base = report::EndToEnd::of(&untraced, args.workload.windows(), args.seconds);
        let run = report::EndToEnd::of(&traced, args.workload.windows(), args.seconds);
        report::print_end_to_end("untraced", &base, &[untraced.setup_s]);
        report::print_end_to_end("traced", &run, &[traced.setup_s]);
        report::per_layer(args.workload, &traced, &base, &run, &mut metrics);
        let spans = report::trace_path(args.workload.name(), args.seed);
        if let Some(t) = &traced.traced {
            if let Err(e) = t.tracer.write_jsonl(&spans) {
                eprintln!("ftbench: writing {}: {e}", spans.display());
            }
        }
        let replay = traced.traced.as_ref().map(|t| &t.replay);
        let (replayed, replay_failed, replay_wrong) =
            replay.map_or((0, 0, 0), |r| (r.pairs as u64, r.failed, r.wrong));
        (
            base.wrong + run.wrong + replay_wrong == 0,
            run.attempted + replayed,
            run.failed + replay_failed,
        )
    } else {
        let mut setups = match child_setups(&args, SETUP_SAMPLES - 1) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ftbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let phase = measure(args.workload, args.seed, args.seconds, false);
        setups.push(phase.setup_s);
        let e2e = report::EndToEnd::of(&phase, args.workload.windows(), args.seconds);
        report::print_end_to_end("run", &e2e, &setups);
        stats::sort(&mut setups);
        metrics.insert("setup_s", stats::median(&setups).unwrap_or(0.0));
        metrics.insert("products_per_s", e2e.products_per_s);
        metrics.insert("p50_ms", e2e.p50_ms);
        metrics.insert("tail_ms", e2e.tail_ms);
        (e2e.wrong == 0, e2e.attempted, e2e.failed)
    };
    let declared = if args.trace {
        &report::PER_LAYER[..]
    } else {
        &report::END_TO_END[..]
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, declared, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("ftbench: a product was wrong");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "big",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Big, 7, 3.0, true)
        );
        assert!(args(&["--workload", "huge", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "small"]).is_err());
        assert!(args(&["--workload", "small", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "small", "--seed", "1", "--seconds", "0"]).is_err());
    }

    /// A short small run in both modes prints exactly the metrics that
    /// BENCHMARK.json declares for that mode.
    #[test]
    fn a_short_run_prints_every_declared_metric() {
        let untraced = measure(Workload::Small, 3, 0.3, false);
        let traced = measure(Workload::Small, 3, 0.3, true);
        let windows = Workload::Small.windows();
        let base = report::EndToEnd::of(&untraced, windows, 0.3);
        let run = report::EndToEnd::of(&traced, windows, 0.3);
        assert_eq!(base.wrong + run.wrong, 0);
        assert_eq!(base.failed + run.failed, 0);
        let mut layer = BTreeMap::new();
        report::per_layer(Workload::Small, &traced, &base, &run, &mut layer);
        let names: Vec<&str> = layer.keys().copied().collect();
        let mut declared: Vec<&str> = report::PER_LAYER.iter().map(|m| m.0).collect();
        declared.sort_unstable();
        assert_eq!(names, declared);
        let line = report::result_line(true, run.attempted, 0, &report::PER_LAYER, &layer);
        for (name, unit) in report::PER_LAYER {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        let e2e: BTreeMap<&str, f64> = report::END_TO_END.iter().map(|m| (m.0, 1.0)).collect();
        let line = report::result_line(true, 1, 0, &report::END_TO_END, &e2e);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
    }
}
