//! Shared-memory parallel Toom-Cook on a work-stealing pool (rayon).
//!
//! The distributed simulator (`ft-machine`) measures the paper's cost
//! model; this engine measures *wall-clock* on a real multicore — the
//! practical side of the paper's claim that Toom-Cook parallelizes well
//! through its recursion tree. The `2k−1` point-products of each level are
//! independent, so the recursion parallelizes with a simple
//! fork-join over sub-products, throttled below `par_depth` levels to keep
//! task granularity sane.

use crate::bilinear::ToomPlan;
use ft_bigint::workspace::{self, Workspace};
use ft_bigint::{BigInt, Sign};
use rayon::prelude::*;

/// Parallel Toom-Cook-`k`: like [`crate::seq::toom_k`] but with the
/// point-products of the top `par_depth` recursion levels executed on the
/// rayon pool.
#[must_use]
pub fn par_toom_k(
    a: &BigInt,
    b: &BigInt,
    k: usize,
    threshold_bits: u64,
    par_depth: usize,
) -> BigInt {
    par_toom_with_plan(a, b, &ToomPlan::shared(k), threshold_bits, par_depth)
}

/// Parallel Toom-Cook with a caller-supplied plan, so batch-processing
/// layers (ft-service) can resolve the plan once per kernel choice instead
/// of per multiplication.
#[must_use]
pub fn par_toom_with_plan(
    a: &BigInt,
    b: &BigInt,
    plan: &ToomPlan,
    threshold_bits: u64,
    par_depth: usize,
) -> BigInt {
    let sign = a.sign().mul(b.sign());
    if sign == Sign::Zero {
        return BigInt::zero();
    }
    let mag =
        workspace::with_thread_local(|ws| rec(a, b, plan, threshold_bits.max(8), par_depth, ws));
    if sign == Sign::Negative {
        -mag
    } else {
        mag
    }
}

/// Magnitude recursion (`|a|·|b|`, signs handled by callers). Each rayon
/// task gets its own [`Workspace`]: the closure running on a stolen worker
/// re-enters the *worker's* thread-local arena, so scratch never crosses
/// threads and the sequential tail below `par_depth` reuses one arena.
fn rec(
    a: &BigInt,
    b: &BigInt,
    plan: &ToomPlan,
    threshold: u64,
    par_depth: usize,
    ws: &mut Workspace,
) -> BigInt {
    if a.is_zero() || b.is_zero() {
        return BigInt::zero();
    }
    if a.bit_length().min(b.bit_length()) <= threshold {
        let mut out = ws.take_limbs();
        ft_bigint::kernels::mul_into_auto(a.limbs(), b.limbs(), &mut out, ws);
        return BigInt::from_limbs(out);
    }
    let k = plan.k();
    let w = BigInt::shared_digit_width(a, b, k);
    let da = a.split_base_pow2_ws(w, k, ws);
    let db = b.split_base_pow2_ws(w, k, ws);
    let ea = plan.evaluate_ws(&da, ws);
    let eb = plan.evaluate_ws(&db, ws);
    ws.recycle_nodes(da);
    ws.recycle_nodes(db);
    let coeffs = if par_depth > 0 {
        // Parallel point-products: each task multiplies magnitudes inside
        // its worker's thread-local workspace and reattaches the sign.
        let prods: Vec<BigInt> = ea
            .par_iter()
            .zip(eb.par_iter())
            .map(|(x, y)| {
                let m = workspace::with_thread_local(|task_ws| {
                    rec(x, y, plan, threshold, par_depth - 1, task_ws)
                });
                if x.sign().mul(y.sign()) == Sign::Negative {
                    -m
                } else {
                    m
                }
            })
            .collect();
        plan.interpolate_ws(prods, ws)
    } else {
        let mut prods = ws.take_nodes();
        for (x, y) in ea.iter().zip(&eb) {
            let m = rec(x, y, plan, threshold, 0, ws);
            prods.push(if x.sign().mul(y.sign()) == Sign::Negative {
                -m
            } else {
                m
            });
        }
        plan.interpolate_ws(prods, ws)
    };
    ws.recycle_nodes(ea);
    ws.recycle_nodes(eb);
    let out = BigInt::join_base_pow2_ws(&coeffs, w, ws);
    ws.recycle_nodes(coeffs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn random_pair(bits: u64, seed: u64) -> (BigInt, BigInt) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            BigInt::random_signed_bits(&mut rng, bits),
            BigInt::random_signed_bits(&mut rng, bits),
        )
    }

    #[test]
    fn matches_sequential_result() {
        let (a, b) = random_pair(50_000, 1);
        for k in [2usize, 3, 4] {
            assert_eq!(par_toom_k(&a, &b, k, 512, 3), a.mul_schoolbook(&b), "k={k}");
        }
    }

    #[test]
    fn zero_depth_equals_sequential_path() {
        let (a, b) = random_pair(10_000, 2);
        assert_eq!(
            par_toom_k(&a, &b, 3, 512, 0),
            crate::seq::toom_k_threshold(&a, &b, 3, 512)
        );
    }

    #[test]
    fn explicit_plan_matches_cached_plan_path() {
        let (a, b) = random_pair(30_000, 7);
        let plan = ToomPlan::new(3);
        assert_eq!(
            par_toom_with_plan(&a, &b, &plan, 512, 2),
            par_toom_k(&a, &b, 3, 512, 2)
        );
    }

    #[test]
    fn signs_and_zero() {
        let (a, b) = random_pair(5_000, 3);
        let (a, b) = (a.abs(), b.abs());
        assert_eq!(par_toom_k(&-&a, &b, 3, 512, 2), -(a.mul_schoolbook(&b)));
        assert!(par_toom_k(&BigInt::zero(), &b, 3, 512, 2).is_zero());
    }

    #[test]
    fn parallel_is_not_slower_at_scale() {
        // Smoke test (not a benchmark): parallel completes and matches on a
        // large input.
        let (a, b) = random_pair(200_000, 4);
        let p = par_toom_k(&a, &b, 3, 2048, 4);
        let s = crate::seq::toom_k_threshold(&a, &b, 3, 2048);
        assert_eq!(p, s);
    }
}
