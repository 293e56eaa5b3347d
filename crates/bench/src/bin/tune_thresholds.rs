//! Crossover tuning for the scratch-arena kernels: measures the limb-level
//! auto-dispatch (`BigInt::mul_auto`) against digit-level Toom-Cook at a
//! sweep of base-case thresholds, to pick `seq::DEFAULT_THRESHOLD_BITS`
//! and the `auto_mul` bands (`mul_auto` itself hands over to the NTT at
//! 1 Mbit). The big-operand table at the end sweeps forced Karatsuba vs
//! Toom-3 vs the two-prime NTT from 128 kbit to 16 Mbit. With
//! `kernel_baseline`'s interleaved medians at ftbench `big`'s sizes, it
//! backs `ntt::NTT_THRESHOLD_LIMBS`, the one constant the NTT crossover
//! is kept in (`seq::NTT_MIN_BITS` and the `KernelPolicy` defaults derive
//! from it).
//!
//! Run with `cargo run --release -p ft-bench --bin tune_thresholds`.
//! Output is a table, not a JSON artifact — this is an operator tool.

use ft_bench::operands;
use ft_bigint::{kernels, workspace, BigInt};
use ft_toom_core::seq;
use std::time::Instant;

fn time_one(f: &dyn Fn(&BigInt, &BigInt) -> BigInt, a: &BigInt, b: &BigInt) -> f64 {
    let t0 = Instant::now();
    let warm = std::hint::black_box(f(a, b));
    let est = t0.elapsed().as_nanos().max(1);
    assert!(warm.bit_length() > 0);
    let iters = ((100_000_000 / est).clamp(2, 1_000)) as u64;
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f(std::hint::black_box(a), std::hint::black_box(b)));
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let sizes: [u64; 6] = [4_096, 16_384, 65_536, 131_072, 262_144, 1_048_576];
    let thresholds: [u64; 5] = [1_536, 3_072, 6_144, 12_288, 24_576];

    println!("{:>10} {:>14}  (ns/op)", "bits", "mul_auto");
    for &bits in &sizes {
        let (a, b) = operands(bits, bits.wrapping_mul(0x9e37_79b9));
        let ns = time_one(&|x: &BigInt, y: &BigInt| x.mul_auto(y), &a, &b);
        println!("{bits:>10} {ns:>14.1}");
    }

    for k in [2usize, 3, 4] {
        println!("\ntoom_k={k} by base-case threshold (ns/op):");
        print!("{:>10}", "bits");
        for &t in &thresholds {
            print!(" {t:>12}");
        }
        println!();
        for &bits in &sizes {
            let (a, b) = operands(bits, bits.wrapping_mul(0x9e37_79b9));
            print!("{bits:>10}");
            for &t in &thresholds {
                let ns = time_one(
                    &|x: &BigInt, y: &BigInt| seq::toom_k_threshold(x, y, k, t),
                    &a,
                    &b,
                );
                print!(" {ns:>12.1}");
            }
            println!();
        }
    }

    // Big-operand regime: where does the NTT overtake Toom? Forced kernels
    // (no auto-dispatch) so each column is one algorithm end to end.
    let big: [u64; 8] = [
        131_072, 262_144, 524_288, 1_048_576, 2_097_152, 4_194_304, 8_388_608, 16_777_216,
    ];
    println!("\nbig-operand crossover (ms/op): forced Karatsuba vs Toom-3 vs two-prime NTT");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10}",
        "bits", "karatsuba", "toom3", "ntt", "toom3/ntt"
    );
    for &bits in &big {
        let (a, b) = operands(bits, bits.wrapping_mul(0x9e37_79b9));
        let kara = time_one(&mul_karatsuba, &a, &b);
        let toom = time_one(&|x: &BigInt, y: &BigInt| seq::toom_k(x, y, 3), &a, &b);
        let ntt = time_one(&|x: &BigInt, y: &BigInt| x.mul_ntt(y), &a, &b);
        println!(
            "{bits:>10} {:>12.2} {:>12.2} {:>12.2} {:>10.2}",
            kara / 1e6,
            toom / 1e6,
            ntt / 1e6,
            toom / ntt
        );
    }
}

/// Karatsuba with no NTT/schoolbook dispatch, for the crossover table.
fn mul_karatsuba(a: &BigInt, b: &BigInt) -> BigInt {
    workspace::with_thread_local(|ws| {
        let mut out = ws.take_limbs();
        kernels::mul_karatsuba_into(a.limbs(), b.limbs(), &mut out, ws);
        BigInt::from_limbs(out)
    })
}
