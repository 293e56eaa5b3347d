//! Sequential integer multiplication: schoolbook, Karatsuba, recursive
//! Toom-Cook-k (Algorithm 1), and unbalanced Toom-Cook-(k₁,k₂).

use crate::bilinear::ToomPlan;
use crate::points::n_points;
use ft_algebra::points::eval_matrix;
use ft_bigint::workspace::{self, Workspace};
use ft_bigint::{BigInt, Sign};

/// Default base-case threshold in bits: below this, hand off to the
/// limb-level kernels (`ft_bigint::kernels::mul_into_auto` — schoolbook,
/// then in-place Karatsuba). (Alg. 1's `s` parameter.) The limb Karatsuba
/// carries much further than the old schoolbook base case did, so the
/// digit-level recursion stops early — tuned on the CI container via the
/// `tune_thresholds` sweep (ns/op minimum across 64k–1Mbit operands).
pub const DEFAULT_THRESHOLD_BITS: u64 = 24_576;

/// Schoolbook `Θ(n²)` multiplication — the naïve baseline.
#[must_use]
pub fn schoolbook(a: &BigInt, b: &BigInt) -> BigInt {
    a.mul_schoolbook(b)
}

/// Karatsuba multiplication (Toom-Cook-2).
#[must_use]
pub fn karatsuba(a: &BigInt, b: &BigInt) -> BigInt {
    toom_k(a, b, 2)
}

/// Recursive Toom-Cook-`k` with the classic point set and default
/// threshold (Algorithm 1).
#[must_use]
pub fn toom_k(a: &BigInt, b: &BigInt, k: usize) -> BigInt {
    toom_k_threshold(a, b, k, DEFAULT_THRESHOLD_BITS)
}

/// Recursive Toom-Cook-`k` with an explicit base-case threshold.
#[must_use]
pub fn toom_k_threshold(a: &BigInt, b: &BigInt, k: usize, threshold_bits: u64) -> BigInt {
    let plan = ToomPlan::shared(k);
    toom_with_plan(a, b, &plan, threshold_bits)
}

/// Recursive Toom-Cook with an explicit plan (custom point sets supported).
#[must_use]
pub fn toom_with_plan(a: &BigInt, b: &BigInt, plan: &ToomPlan, threshold_bits: u64) -> BigInt {
    workspace::with_thread_local(|ws| toom_with_plan_ws(a, b, plan, threshold_bits, ws))
}

/// [`toom_with_plan`] with an explicit scratch workspace — the whole
/// recursion (splitting, evaluation, interpolation, reassembly, and the
/// base-case kernels) draws every buffer from `ws` and recycles it, so a
/// warmed-up workspace makes repeated multiplies allocation-free.
#[must_use]
pub fn toom_with_plan_ws(
    a: &BigInt,
    b: &BigInt,
    plan: &ToomPlan,
    threshold_bits: u64,
    ws: &mut Workspace,
) -> BigInt {
    let sign = a.sign().mul(b.sign());
    if sign == Sign::Zero {
        return BigInt::zero();
    }
    let mag = rec(a, b, plan, threshold_bits.max(8), ws);
    if sign == Sign::Negative {
        -mag
    } else {
        mag
    }
}

/// Magnitude recursion: returns `|a|·|b|`. Signs of the arguments are
/// ignored (the caller owns the sign bookkeeping), which is what lets the
/// recursion work on borrowed evaluations without `.abs()` clones.
fn rec(a: &BigInt, b: &BigInt, plan: &ToomPlan, threshold: u64, ws: &mut Workspace) -> BigInt {
    if a.is_zero() || b.is_zero() {
        return BigInt::zero();
    }
    if a.bit_length().min(b.bit_length()) <= threshold {
        let mut out = ws.take_limbs();
        ft_bigint::kernels::mul_into_auto(a.limbs(), b.limbs(), &mut out, ws);
        return BigInt::from_limbs(out);
    }
    let k = plan.k();
    // Alg. 1 line 4: split over the shared base B = 2^w.
    let w = BigInt::shared_digit_width(a, b, k);
    let da = a.split_base_pow2_ws(w, k, ws);
    let db = b.split_base_pow2_ws(w, k, ws);
    // Lines 6–7: evaluate both polynomials.
    let ea = plan.evaluate_ws(&da, ws);
    let eb = plan.evaluate_ws(&db, ws);
    ws.recycle_nodes(da);
    ws.recycle_nodes(db);
    // Lines 8–14: pointwise (recursive) products. Evaluations may be
    // negative; the recursion multiplies magnitudes, signs reattach here.
    let mut prods = ws.take_nodes();
    for (x, y) in ea.iter().zip(&eb) {
        let m = rec(x, y, plan, threshold, ws);
        prods.push(if x.sign().mul(y.sign()) == Sign::Negative {
            -m
        } else {
            m
        });
    }
    ws.recycle_nodes(ea);
    ws.recycle_nodes(eb);
    // Line 15: interpolate (in place when a Toom-Graph sequence exists).
    let coeffs = plan.interpolate_ws(prods, ws);
    // Line 16: evaluate at (B, 1) — carry propagation.
    let out = BigInt::join_base_pow2_ws(&coeffs, w, ws);
    ws.recycle_nodes(coeffs);
    out
}

/// Recursive Toom-Cook-`k` **squaring** (cf. Zuras, ref. 86 of the paper): evaluation
/// happens once, the point-values are squared, and interpolation is
/// unchanged — combined with [`ft_bigint`]'s halved schoolbook squaring at
/// the base case this is the standard `a²` fast path.
#[must_use]
pub fn toom_square(a: &BigInt, k: usize) -> BigInt {
    toom_square_threshold(a, k, DEFAULT_THRESHOLD_BITS)
}

/// [`toom_square`] with an explicit base-case threshold.
#[must_use]
pub fn toom_square_threshold(a: &BigInt, k: usize, threshold_bits: u64) -> BigInt {
    let plan = ToomPlan::shared(k);
    workspace::with_thread_local(|ws| sqr_rec(a, &plan, threshold_bits.max(8), ws))
}

/// Magnitude squaring recursion (`|a|²`; the sign is irrelevant).
fn sqr_rec(a: &BigInt, plan: &ToomPlan, threshold: u64, ws: &mut Workspace) -> BigInt {
    if a.is_zero() {
        return BigInt::zero();
    }
    if a.bit_length() <= threshold {
        return a.square_with_ws(ws);
    }
    let k = plan.k();
    let w = BigInt::shared_digit_width(a, a, k);
    let da = a.split_base_pow2_ws(w, k, ws);
    let ea = plan.evaluate_ws(&da, ws);
    ws.recycle_nodes(da);
    let mut prods = ws.take_nodes();
    for x in &ea {
        prods.push(sqr_rec(x, plan, threshold, ws));
    }
    ws.recycle_nodes(ea);
    let coeffs = plan.interpolate_ws(prods, ws);
    let out = BigInt::join_base_pow2_ws(&coeffs, w, ws);
    ws.recycle_nodes(coeffs);
    out
}

/// GMP-style size-adaptive multiplier: below the Toom range the limb-level
/// kernels ([`ft_bigint::BigInt::mul_auto`]: schoolbook basecase, then
/// in-place Karatsuba) win outright; above it digit-level TC-3 / TC-4 take
/// over (thresholds tuned via the `kernel_baseline` bench).
#[must_use]
pub fn auto_mul(a: &BigInt, b: &BigInt) -> BigInt {
    let bits = a.bit_length().min(b.bit_length());
    match bits {
        // The limb-level Karatsuba kernel wins outright to ~256kbit on the
        // CI container (see `tune_thresholds`); past that TC-3's better
        // exponent takes over. TC-4's constants never pay off here.
        0..=262_144 => a.mul_auto(b),
        // TC-3 band ends where the two-prime NTT, one prime per core,
        // takes over (1 Mbit — see EXPERIMENTS.md §S9).
        262_145..=NTT_MIN_BITS => toom_k(a, b, 3),
        _ => a.mul_ntt(b),
    }
}

/// Bits (min of both operands) above which [`auto_mul`] leaves Toom-Cook
/// for the two-prime CRT NTT: [`ft_bigint::ntt::NTT_THRESHOLD_LIMBS`] in
/// bits. The service's `KernelPolicy` defaults derive from it.
pub const NTT_MIN_BITS: u64 = 64 * ft_bigint::ntt::NTT_THRESHOLD_LIMBS as u64;

/// Install [`auto_mul`] as the process-wide fast-multiply hook in
/// `ft-bigint` ([`ft_bigint::kernels::install_fast_mul`]), so
/// `BigInt::pow` and other bigint-level callers route through Toom-Cook
/// without a dependency cycle. First install wins; returns whether this
/// call performed it.
pub fn install_fast_mul_hook() -> bool {
    ft_bigint::kernels::install_fast_mul(auto_mul)
}

/// Unbalanced Toom-Cook-(k₁,k₂) (Zanoni 2010): split `a` into `k₁` digits
/// and `b` into `k₂` digits over a shared base; `k₁+k₂−1` evaluation
/// points. One unbalanced step, then balanced recursion via `inner`.
///
/// # Panics
/// Panics if `k₁ < k₂` or `k₂ < 1` or `k₁ < 2`.
#[must_use]
pub fn toom_unbalanced(
    a: &BigInt,
    b: &BigInt,
    k1: usize,
    k2: usize,
    inner: &dyn Fn(&BigInt, &BigInt) -> BigInt,
) -> BigInt {
    assert!(
        k1 >= k2 && k2 >= 1 && k1 + k2 >= 4,
        "need k1 >= k2 >= 1 and k1+k2 >= 4"
    );
    let sign = a.sign().mul(b.sign());
    if sign == Sign::Zero {
        return BigInt::zero();
    }
    let n = k1 + k2 - 1;
    let points = n_points(n);
    let w = {
        let wa = a.bit_length().max(1).div_ceil(k1 as u64);
        let wb = b.bit_length().max(1).div_ceil(k2 as u64);
        wa.max(wb)
    };
    // Split/evaluate through the workspace, then release the borrow: the
    // caller-supplied `inner` may itself re-enter the thread-local arena.
    let (ea, eb) = workspace::with_thread_local(|ws| {
        let da = a.split_base_pow2_ws(w, k1, ws);
        let db = b.split_base_pow2_ws(w, k2, ws);
        let ea = crate::bilinear::small_matvec_ws(&eval_matrix(&points, k1), &da, ws);
        let eb = crate::bilinear::small_matvec_ws(&eval_matrix(&points, k2), &db, ws);
        ws.recycle_nodes(da);
        ws.recycle_nodes(db);
        (ea, eb)
    });
    let prods: Vec<BigInt> = ea.iter().zip(&eb).map(|(x, y)| inner(x, y)).collect();
    let interp = crate::bilinear::interpolation_matrix(&points, n);
    let coeffs = interp.apply(&prods);
    let mag = workspace::with_thread_local(|ws| {
        ws.recycle_nodes(ea);
        ws.recycle_nodes(eb);
        ws.recycle_nodes(prods);
        let out = BigInt::join_base_pow2_ws(&coeffs, w, ws);
        ws.recycle_nodes(coeffs);
        out
    });
    if sign == Sign::Negative {
        -mag
    } else {
        mag
    }
}

/// Iterative Toom-Cook for *very* unbalanced operands (Zanoni 2010, the
/// paper's ref. 85): slice the long operand into `|b|`-sized chunks,
/// multiply each chunk with a balanced kernel, and accumulate with shifts.
/// Complexity `Θ((|a|/|b|) · M(|b|))` instead of padding `a` up to a
/// balanced split.
///
/// # Panics
/// Panics if `b` is zero (the degenerate case callers should shortcut).
#[must_use]
pub fn toom_iterative_unbalanced(
    a: &BigInt,
    b: &BigInt,
    inner: &dyn Fn(&BigInt, &BigInt) -> BigInt,
) -> BigInt {
    assert!(!b.is_zero(), "iterative unbalanced multiply needs b != 0");
    if a.is_zero() {
        return BigInt::zero();
    }
    let sign = a.sign().mul(b.sign());
    let bb = b.abs();
    let chunk_bits = bb.bit_length().max(64);
    let chunks = a.bit_length().div_ceil(chunk_bits) as usize;
    let digits =
        workspace::with_thread_local(|ws| a.split_base_pow2_ws(chunk_bits, chunks.max(1), ws));
    let partials: Vec<BigInt> = digits.iter().map(|d| inner(d, &bb)).collect();
    let mag = workspace::with_thread_local(|ws| {
        ws.recycle_nodes(digits);
        let out = BigInt::join_base_pow2_ws(&partials, chunk_bits, ws);
        ws.recycle_nodes(partials);
        out
    });
    if sign == ft_bigint::Sign::Negative {
        -mag
    } else {
        mag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_bigint::Sign;
    use rand::SeedableRng;

    fn random_pair(bits_a: u64, bits_b: u64, seed: u64) -> (BigInt, BigInt) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            BigInt::random_signed_bits(&mut rng, bits_a),
            BigInt::random_signed_bits(&mut rng, bits_b),
        )
    }

    #[test]
    fn toom_matches_schoolbook_all_k() {
        for k in 2..=5 {
            for (bits, seed) in [(100u64, 1u64), (1000, 2), (5000, 3)] {
                let (a, b) = random_pair(bits, bits, seed + k as u64 * 100);
                assert_eq!(
                    toom_k_threshold(&a, &b, k, 64),
                    a.mul_schoolbook(&b),
                    "k={k} bits={bits}"
                );
            }
        }
    }

    #[test]
    fn deep_recursion_small_threshold() {
        let (a, b) = random_pair(4096, 4096, 42);
        assert_eq!(toom_k_threshold(&a, &b, 3, 8), a.mul_schoolbook(&b));
        assert_eq!(toom_k_threshold(&a, &b, 2, 8), a.mul_schoolbook(&b));
    }

    #[test]
    fn unbalanced_inputs() {
        // Very different sizes stress the shared-base rule.
        let (a, b) = random_pair(5000, 300, 7);
        for k in 2..=4 {
            assert_eq!(
                toom_k_threshold(&a, &b, k, 64),
                a.mul_schoolbook(&b),
                "k={k}"
            );
        }
    }

    #[test]
    fn signs_and_zero() {
        let (a, b) = random_pair(600, 600, 9);
        let (a, b) = (a.abs(), b.abs());
        assert_eq!(toom_k(&-&a, &b, 3), -&a.mul_schoolbook(&b));
        assert_eq!(toom_k(&-&a, &-&b, 3), a.mul_schoolbook(&b));
        assert!(toom_k(&BigInt::zero(), &b, 3).is_zero());
        assert_eq!(toom_k(&a, &b, 3).sign(), Sign::Positive);
    }

    #[test]
    fn karatsuba_named_entry() {
        let (a, b) = random_pair(2000, 2000, 11);
        assert_eq!(karatsuba(&a, &b), a.mul_schoolbook(&b));
    }

    #[test]
    fn toom_cook_32_unbalanced() {
        // Toom-Cook-(3,2), a.k.a. Toom-2.5.
        let (a, b) = random_pair(3000, 2000, 13);
        let inner = |x: &BigInt, y: &BigInt| toom_k(x, y, 2);
        assert_eq!(toom_unbalanced(&a, &b, 3, 2, &inner), a.mul_schoolbook(&b));
    }

    #[test]
    fn toom_cook_43_unbalanced() {
        let (a, b) = random_pair(4000, 3000, 17);
        let inner = |x: &BigInt, y: &BigInt| toom_k(x, y, 3);
        assert_eq!(toom_unbalanced(&a, &b, 4, 3, &inner), a.mul_schoolbook(&b));
    }

    #[test]
    fn unbalanced_with_negative_inputs() {
        let (a, b) = random_pair(1500, 900, 19);
        let inner = |x: &BigInt, y: &BigInt| x.mul_schoolbook(y);
        assert_eq!(
            toom_unbalanced(&-&a, &b, 3, 2, &inner),
            (-&a).mul_schoolbook(&b)
        );
    }

    #[test]
    fn iterative_unbalanced_matches() {
        let (a, _) = random_pair(50_000, 50_000, 41);
        let (b, _) = random_pair(2_000, 2_000, 43);
        let inner = |x: &BigInt, y: &BigInt| toom_k_threshold(x, y, 3, 256);
        assert_eq!(
            toom_iterative_unbalanced(&a, &b, &inner),
            a.mul_schoolbook(&b)
        );
        assert_eq!(
            toom_iterative_unbalanced(&-&a.abs(), &b.abs(), &inner),
            -(a.abs().mul_schoolbook(&b.abs()))
        );
        assert!(toom_iterative_unbalanced(&BigInt::zero(), &b, &inner).is_zero());
    }

    #[test]
    fn iterative_unbalanced_cheaper_than_padded_toom() {
        let (a, _) = random_pair(400_000, 400_000, 44);
        let (b, _) = random_pair(40_000, 40_000, 45);
        let inner = |x: &BigInt, y: &BigInt| toom_k_threshold(x, y, 3, 3_072);
        let (_, iter_ops) =
            ft_bigint::metrics::measure(|| toom_iterative_unbalanced(&a, &b, &inner));
        let (_, balanced_ops) = ft_bigint::metrics::measure(|| toom_k_threshold(&a, &b, 2, 512));
        let (_, school_ops) = ft_bigint::metrics::measure(|| a.mul_schoolbook(&b));
        // The balanced recursion already degrades gracefully on unbalanced
        // inputs (zero high digits); iterative must stay in the same class
        // and both must beat schoolbook clearly.
        assert!(
            iter_ops < school_ops,
            "iterative {iter_ops} vs schoolbook {school_ops}"
        );
        assert!(
            (iter_ops as f64) < 1.5 * balanced_ops as f64,
            "iterative {iter_ops} should stay near balanced {balanced_ops}"
        );
    }

    #[test]
    fn toom_square_matches_general_multiply() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for k in 2..=4 {
            for bits in [500u64, 5_000, 20_000] {
                let a = BigInt::random_signed_bits(&mut rng, bits);
                assert_eq!(
                    toom_square_threshold(&a, k, 256),
                    a.mul_schoolbook(&a),
                    "k={k} bits={bits}"
                );
            }
        }
        assert!(toom_square(&BigInt::zero(), 3).is_zero());
        assert_eq!(toom_square(&BigInt::from(-7i64), 3), BigInt::from(49u64));
    }

    #[test]
    fn toom_square_cheaper_than_toom_mul() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let a = BigInt::random_bits(&mut rng, 1 << 16);
        let (_, sq) = ft_bigint::metrics::measure(|| toom_square_threshold(&a, 3, 1024));
        let (_, mul) = ft_bigint::metrics::measure(|| toom_k_threshold(&a, &a, 3, 1024));
        assert!(sq < mul, "square {sq} ops should undercut multiply {mul}");
    }

    #[test]
    fn auto_mul_picks_correctly_at_all_sizes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        for bits in [100u64, 10_000, 50_000] {
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            assert_eq!(auto_mul(&a, &b), a.mul_schoolbook(&b), "bits={bits}");
        }
    }

    /// `2^(32·digits) − 1`: every base-2^32 digit all ones, so every
    /// product coefficient is as large as it gets — the worst case for the
    /// NTT's lazy `[0, 2p)` range.
    fn all_ones(digits: usize) -> BigInt {
        let mut limbs = vec![u64::MAX; digits / 2];
        if digits % 2 == 1 {
            limbs.push(u64::from(u32::MAX));
        }
        BigInt::from_limbs(limbs)
    }

    #[test]
    fn ntt_matches_seq_toom_across_the_block_cutoff() {
        // 2^k − 1, 2^k and 2^k + 1 digits put the transform length on both
        // sides of each power of two, from below the NTT's cache block
        // (2^11 words) to three blocked levels above it.
        let check = |a: &BigInt, b: &BigInt| {
            let want = toom_k(a, b, 3);
            assert_eq!(
                a.mul_ntt(b),
                want,
                "{} x {} bits",
                a.bit_length(),
                b.bit_length()
            );
            assert_eq!((-a).mul_ntt(b), -&want);
            assert_eq!((-a).mul_ntt(&-b), want);
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for k in 9..=12 {
            for digits in [(1usize << k) - 1, 1 << k, (1 << k) + 1] {
                let ones = all_ones(digits);
                check(&ones, &ones);
                let other = BigInt::random_bits(&mut rng, 32 * digits as u64);
                check(&ones, &other);
                // Unbalanced: a short operand against the long one.
                check(&ones, &all_ones(37));
                check(&all_ones(digits / 3 + 1), &other);
            }
        }
        let x = all_ones(1 << 12);
        assert_eq!(x.mul_ntt(&BigInt::zero()), BigInt::zero());
        assert_eq!(BigInt::zero().mul_ntt(&x), BigInt::zero());
    }

    #[test]
    fn toom_is_asymptotically_cheaper_than_schoolbook() {
        // Operation-count crossover: at large n, TC-3 does fewer word ops.
        let (a, b) = random_pair(1 << 17, 1 << 17, 23);
        let (_, school_ops) = ft_bigint::metrics::measure(|| a.mul_schoolbook(&b));
        let (_, toom_ops) = ft_bigint::metrics::measure(|| toom_k(&a, &b, 3));
        assert!(
            toom_ops < school_ops,
            "toom {toom_ops} ops should beat schoolbook {school_ops} at 128k bits"
        );
    }
}
