//! Limb-kernel perf trajectory: ns/op and allocations/op for schoolbook,
//! Karatsuba, sequential Toom-Cook, and parallel Toom-Cook at 1k–256kbit,
//! plus the big-operand crossover of the two-prime CRT NTT kernel against
//! sequential and parallel Toom-3 at six of ftbench `big`'s sizes
//! (1.2–11 Mbit), written to `BENCH_kernels.json` at the repo root. The
//! three big kernels are timed interleaved, round by round, and each
//! records its median, so a burst of host noise lands on all three. Both
//! the full run and `--quick` gate on the NTT beating both Toom kernels by
//! ≥1.5× at 2 Mbit, the `big` size just above the default `ntt_min_bits`
//! crossover (1 Mbit); `--quick` times that size alone.
//!
//! Run with
//! `cargo run --release -p ft-bench --features count-allocs --bin kernel_baseline`.
//! Without the `count-allocs` feature the timing rows are still produced
//! but allocation counts read as zero. `--quick` runs a reduced matrix and
//! skips the JSON write (the CI smoke mode); `--record` prints rows as
//! Rust constants for refreshing [`BASELINE`].
//!
//! The `BASELINE` table embedded below was measured on this container at
//! commit 4e12149, *before* the scratch-arena kernel layer landed, with
//! the same operand generator and iteration policy — the JSON therefore
//! carries its own before/after comparison.

use ft_bench::counting_alloc;
use ft_bench::operands;
use ft_bigint::BigInt;
use ft_toom_core::{rayon_engine, seq};
use std::time::Instant;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: counting_alloc::CountingAllocator = counting_alloc::CountingAllocator::new();

/// Pre-change reference numbers: `(kernel, bits, ns_per_op, allocs_per_op)`.
/// Measured at seed commit 4e12149 (allocating `Vec`-per-op kernels,
/// clone-heavy Toom recursion) on the CI container.
const BASELINE: &[(&str, u64, f64, f64)] = &[
    ("schoolbook", 1_024, 285.6, 1.0),
    ("schoolbook", 4_096, 4_513.7, 1.0),
    ("schoolbook", 16_384, 68_427.8, 1.0),
    ("schoolbook", 65_536, 1_147_891.9, 1.0),
    ("schoolbook", 262_144, 18_428_039.7, 1.0),
    ("karatsuba", 1_024, 344.4, 3.0),
    ("karatsuba", 4_096, 6_098.8, 47.0),
    ("karatsuba", 16_384, 78_387.5, 590.0),
    ("karatsuba", 65_536, 790_936.7, 5_436.0),
    ("karatsuba", 262_144, 7_147_911.6, 49_427.0),
    ("seq_toom", 1_024, 335.5, 3.0),
    ("seq_toom", 4_096, 9_467.2, 108.0),
    ("seq_toom", 16_384, 78_182.2, 633.0),
    ("seq_toom", 65_536, 693_505.1, 3_258.0),
    ("seq_toom", 262_144, 7_795_775.3, 82_008.0),
    ("par_toom", 1_024, 368.2, 3.0),
    ("par_toom", 4_096, 107_155.9, 124.0),
    ("par_toom", 16_384, 849_578.6, 729.1),
    ("par_toom", 65_536, 1_633_266.0, 3_354.2),
    ("par_toom", 262_144, 9_488_621.3, 82_104.0),
];

const SIZES: [u64; 5] = [1_024, 4_096, 16_384, 65_536, 262_144];
const QUICK_SIZES: [u64; 2] = [1_024, 16_384];

/// The big-operand crossover: six of ftbench `big`'s nine sizes (the
/// midpoints of nine log-uniform strata over 1–12 Mbit), all above the
/// default `ntt_min_bits` (1 Mbit).
const BIG_SIZES: [u64; 6] = [
    1_203_800, 2_091_088, 3_632_373, 4_787_398, 8_316_060, 10_960_406,
];
/// The gate size, ROADMAP item 5's "2 Mbit"; also the one size `--quick`
/// times, where seq Toom takes ~0.1 s.
const GATE_BITS: u64 = 2_091_088;
/// Interleaved rounds per size; each kernel's median is recorded.
const ROUNDS: usize = 5;

/// The acceptance gate at [`GATE_BITS`]: the NTT must beat both sequential
/// and parallel Toom-3 by at least this factor.
const NTT_GATE_RATIO: f64 = 1.5;

struct Row {
    kernel: &'static str,
    bits: u64,
    ns_per_op: f64,
    allocs_per_op: f64,
    bytes_per_op: f64,
}

type KernelFn = Box<dyn Fn(&BigInt, &BigInt) -> BigInt>;

fn kernels() -> Vec<(&'static str, KernelFn)> {
    vec![
        (
            "schoolbook",
            Box::new(|a: &BigInt, b: &BigInt| a.mul_schoolbook(b)) as _,
        ),
        (
            "karatsuba",
            Box::new(|a: &BigInt, b: &BigInt| seq::karatsuba(a, b)) as _,
        ),
        (
            "seq_toom",
            Box::new(|a: &BigInt, b: &BigInt| seq::toom_k(a, b, 3)) as _,
        ),
        (
            "par_toom",
            Box::new(|a: &BigInt, b: &BigInt| {
                rayon_engine::par_toom_k(a, b, 3, seq::DEFAULT_THRESHOLD_BITS, 2)
            }) as _,
        ),
    ]
}

fn measure(
    kernel: &'static str,
    f: &dyn Fn(&BigInt, &BigInt) -> BigInt,
    bits: u64,
    quick: bool,
) -> Row {
    let (a, b) = operands(bits, bits.wrapping_mul(0x9e37_79b9));
    // Warmup + correctness anchor, and iteration-count calibration.
    let t0 = Instant::now();
    let warm = f(&a, &b);
    let est = t0.elapsed().as_nanos().max(1);
    let prod_bits = warm.bit_length();
    assert!(
        prod_bits == 2 * bits || prod_bits == 2 * bits - 1,
        "{kernel} at {bits} bits produced a {prod_bits}-bit product"
    );
    let budget: u128 = if quick { 20_000_000 } else { 200_000_000 };
    let iters = ((budget / est).clamp(2, 2_000)) as u64;
    let (a0, b0) = (
        counting_alloc::allocation_count(),
        counting_alloc::allocated_bytes(),
    );
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f(std::hint::black_box(&a), std::hint::black_box(&b)));
    }
    let elapsed = t.elapsed().as_nanos() as f64;
    let allocs = counting_alloc::allocation_count() - a0;
    let bytes = counting_alloc::allocated_bytes() - b0;
    Row {
        kernel,
        bits,
        ns_per_op: elapsed / iters as f64,
        allocs_per_op: allocs as f64 / iters as f64,
        bytes_per_op: bytes as f64 / iters as f64,
    }
}

fn baseline_for(kernel: &str, bits: u64) -> Option<(f64, f64)> {
    BASELINE
        .iter()
        .find(|(k, b, _, _)| *k == kernel && *b == bits)
        .map(|&(_, _, ns, allocs)| (ns, allocs))
}

/// One point on the big-operand crossover curve: median ns per multiply.
struct CrossoverRow {
    bits: u64,
    seq_toom_ns: f64,
    par_toom_ns: f64,
    ntt_ns: f64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Time seq Toom-3, parallel Toom-3 and the NTT at each size: one warm-up
/// multiply each (which also checks the three products agree), then
/// [`ROUNDS`] rounds of one multiply per kernel, in turn.
fn measure_crossover(sizes: &[u64]) -> Vec<CrossoverRow> {
    let kernels: [KernelFn; 3] = [
        Box::new(|a: &BigInt, b: &BigInt| seq::toom_k(a, b, 3)),
        Box::new(|a: &BigInt, b: &BigInt| {
            rayon_engine::par_toom_k(a, b, 3, seq::DEFAULT_THRESHOLD_BITS, 2)
        }),
        Box::new(|a: &BigInt, b: &BigInt| a.mul_ntt(b)),
    ];
    sizes
        .iter()
        .map(|&bits| {
            let (a, b) = operands(bits, bits.wrapping_mul(0x9e37_79b9));
            let want = kernels[0](&a, &b);
            for f in &kernels[1..] {
                assert!(f(&a, &b) == want, "big kernels disagree at {bits} bits");
            }
            let mut times: [Vec<f64>; 3] = Default::default();
            for _ in 0..ROUNDS {
                for (f, t) in kernels.iter().zip(&mut times) {
                    let start = Instant::now();
                    std::hint::black_box(f(std::hint::black_box(&a), std::hint::black_box(&b)));
                    t.push(start.elapsed().as_nanos() as f64);
                }
            }
            let [seq_toom, par_toom, ntt] = times.map(median);
            CrossoverRow {
                bits,
                seq_toom_ns: seq_toom,
                par_toom_ns: par_toom,
                ntt_ns: ntt,
            }
        })
        .collect()
}

fn json_escape_free(rows: &[Row], crossover: &[CrossoverRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"kernel_baseline\",\n  \"units\": {\"time\": \"ns/op\", \"allocs\": \"calls/op\", \"bytes\": \"bytes/op\"},\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let (base_ns, base_allocs) = baseline_for(r.kernel, r.bits).unwrap_or((f64::NAN, f64::NAN));
        let speedup = base_ns / r.ns_per_op;
        let alloc_ratio = if r.allocs_per_op > 0.0 {
            base_allocs / r.allocs_per_op
        } else {
            f64::INFINITY
        };
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"bits\": {}, \"ns_per_op\": {:.1}, \"allocs_per_op\": {:.2}, \"bytes_per_op\": {:.0}, \"baseline_ns_per_op\": {:.1}, \"baseline_allocs_per_op\": {:.2}, \"speedup\": {:.3}, \"alloc_reduction\": {}}}{}\n",
            r.kernel,
            r.bits,
            r.ns_per_op,
            r.allocs_per_op,
            r.bytes_per_op,
            base_ns,
            base_allocs,
            speedup,
            if alloc_ratio.is_finite() { format!("{alloc_ratio:.2}") } else { "null".to_string() },
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"ntt_crossover_rounds\": {ROUNDS},\n  \"ntt_crossover\": [\n"
    ));
    for (i, r) in crossover.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bits\": {}, \"seq_toom_ns\": {:.0}, \"par_toom_ns\": {:.0}, \"ntt_ns\": {:.0}, \"seq_toom_over_ntt\": {:.3}, \"par_toom_over_ntt\": {:.3}}}{}\n",
            r.bits,
            r.seq_toom_ns,
            r.par_toom_ns,
            r.ntt_ns,
            r.seq_toom_ns / r.ntt_ns,
            r.par_toom_ns / r.ntt_ns,
            if i + 1 == crossover.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let record = args.iter().any(|a| a == "--record");
    let counting = cfg!(feature = "count-allocs");
    let sizes: &[u64] = if quick { &QUICK_SIZES } else { &SIZES };
    println!(
        "kernel_baseline ({}, allocation counting {})",
        if quick { "quick" } else { "full" },
        if counting {
            "on"
        } else {
            "OFF — build with --features count-allocs"
        },
    );
    println!(
        "{:<12} {:>9} {:>14} {:>12} {:>12} {:>9} {:>9}",
        "kernel", "bits", "ns/op", "allocs/op", "bytes/op", "speedup", "allocs÷"
    );
    let mut rows = Vec::new();
    for (name, f) in kernels() {
        for &bits in sizes {
            let row = measure(name, f.as_ref(), bits, quick);
            let (base_ns, base_allocs) = baseline_for(name, bits).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{:<12} {:>9} {:>14.1} {:>12.2} {:>12.0} {:>8.2}x {:>8.1}x",
                row.kernel,
                row.bits,
                row.ns_per_op,
                row.allocs_per_op,
                row.bytes_per_op,
                base_ns / row.ns_per_op,
                if row.allocs_per_op > 0.0 {
                    base_allocs / row.allocs_per_op
                } else {
                    f64::NAN
                },
            );
            rows.push(row);
        }
    }
    if record {
        println!("\n// --- paste into BASELINE ---");
        for r in &rows {
            println!(
                "    (\"{}\", {}, {:.1}, {:.1}),",
                r.kernel, r.bits, r.ns_per_op, r.allocs_per_op
            );
        }
    }

    let big_sizes: &[u64] = if quick { &[GATE_BITS] } else { &BIG_SIZES };
    println!(
        "\nbig-operand crossover: seq/par Toom-3 vs two-prime CRT NTT \
         (median of {ROUNDS} interleaved rounds, {} cores)",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "bits", "seq ns/op", "par ns/op", "ntt ns/op", "seq÷ntt", "par÷ntt"
    );
    let crossover = measure_crossover(big_sizes);
    for r in &crossover {
        println!(
            "{:<12} {:>14.0} {:>14.0} {:>14.0} {:>8.2}x {:>8.2}x",
            r.bits,
            r.seq_toom_ns,
            r.par_toom_ns,
            r.ntt_ns,
            r.seq_toom_ns / r.ntt_ns,
            r.par_toom_ns / r.ntt_ns
        );
    }
    // The acceptance gate: at 2 Mbit the NTT must clearly beat both Toom
    // kernels.
    let gate = crossover
        .iter()
        .find(|r| r.bits == GATE_BITS)
        .expect("the gate size is measured");
    for (name, toom_ns) in [("seq", gate.seq_toom_ns), ("par", gate.par_toom_ns)] {
        let ratio = toom_ns / gate.ntt_ns;
        assert!(
            ratio >= NTT_GATE_RATIO,
            "NTT speedup {ratio:.2}x over {name} Toom-3 at {GATE_BITS} bits \
             breaches the {NTT_GATE_RATIO}x gate"
        );
    }
    if !quick {
        let json = json_escape_free(&rows, &crossover);
        std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
        println!("\nwrote BENCH_kernels.json");
    }
}
