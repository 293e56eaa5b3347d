//! Number-theoretic-transform multiplication for the big-operand regime.
//!
//! Operands are split into base-`2^32` digits, multiplied as polynomials
//! via two independent word-sized prime NTTs, and recombined with the CRT:
//! each product coefficient is bounded by `n·(2^32−1)² < 2^84·n`, far under
//! the 122-bit product of the two primes for every transform size this
//! crate can reach, so two primes always suffice. This is the top rung of
//! the sequential kernel ladder (schoolbook → Karatsuba → Toom → NTT): the
//! `Θ(n log n)` regime the Toom papers point at once `k`-way splitting
//! stops paying (Kronenburg, PAPERS.md).
//!
//! Both primes have high 2-adicity so one primitive root covers every
//! power-of-two transform size:
//!
//! * `P0 = 57·2^55 + 1`, generator 7
//! * `P1 = 27·2^56 + 1`, generator 5
//!
//! The butterflies use Shoup multiplication: each twiddle `w` is cached
//! with its companion `⌊w·2^64/p⌋`, so the inner loop is two widening
//! multiplies and one conditional subtraction — no division, valid because
//! both primes are below `2^63`. Twiddle tables are flat and *prefix
//! closed* (`tw[k+j] = w_{2k}^j`), so one grow-only per-thread cache
//! serves every transform size up to the largest seen.
//!
//! The warm path is allocation-free: all five `N`-limb scratch buffers
//! come from one [`Workspace::alloc`] split, and the twiddle cache only
//! grows when a new maximum size appears. The transform primitives are
//! `pub` so the coded-NTT machine protocol (`ft-toom-core::ft::ntt`) can
//! run column transforms under the same arithmetic.

use crate::metrics;
use crate::workspace::{self, Workspace};
use crate::{BigInt, Limb, Sign};
use std::cell::RefCell;

/// The two CRT primes, most-significant first: `p0 = 57·2^55 + 1` and
/// `p1 = 27·2^56 + 1`. Both `< 2^63` (Shoup-safe), both `≡ 1 mod 2^55`.
pub const PRIMES: [u64; 2] = [P0, P1];

const P0: u64 = 2_053_641_430_080_946_177; // 57 * 2^55 + 1
const P1: u64 = 1_945_555_039_024_054_273; // 27 * 2^56 + 1

/// `ROOTS[i]` generates the full power-of-two subgroup of `Z_{p_i}^*`:
/// a primitive `2^ADICITY[i]`-th root of unity.
const ROOTS: [u64; 2] = [640_559_856_471_874_596, 1_613_915_479_851_665_306];
const ADICITY: [u32; 2] = [55, 56];

/// `p0^{-1} mod p1`, the CRT lift constant.
const P0_INV_MOD_P1: u64 = 1_945_555_039_024_054_255;

/// `−p^{-1} mod 2^64` per prime (Montgomery companion), by Newton
/// iteration — 6 doublings take the seed `1` (exact mod 2) to 64 bits.
const fn neg_inv_2_64(p: u64) -> u64 {
    let mut x: u64 = 1;
    let mut i = 0;
    while i < 6 {
        x = x.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(x)));
        i += 1;
    }
    x.wrapping_neg()
}
const NEG_INV: [u64; 2] = [neg_inv_2_64(P0), neg_inv_2_64(P1)];

/// Digits per coefficient: operands are split into base-`2^32` digits so
/// every digit is already reduced modulo both primes.
pub const DIGIT_BITS: u32 = 32;
const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// Below this many limbs in the *shorter* operand, [`mul_ntt_into`] is not
/// selected by the auto dispatch: 131 072 limbs = 8 Mbit, where the NTT
/// beats Toom-3 by ≥1.5× and Karatsuba by ≥2× on the CI container in
/// repeated `tune_thresholds` sweeps (the win is real from ~3 Mbit, but
/// run-to-run noise there is larger than the margin; see
/// BENCH_kernels.json / EXPERIMENTS.md §S9).
pub const NTT_THRESHOLD_LIMBS: usize = 131_072;

// ---------------------------------------------------------------------------
// Modular arithmetic helpers (pub for the coded-NTT machine protocol).
// ---------------------------------------------------------------------------

/// `(a + b) mod p`, requiring `a, b < p < 2^63`.
#[inline(always)]
#[must_use]
pub fn add_mod(a: u64, b: u64, p: u64) -> u64 {
    let s = a + b;
    if s >= p {
        s - p
    } else {
        s
    }
}

/// `(a − b) mod p`, requiring `a, b < p`.
#[inline(always)]
#[must_use]
pub fn sub_mod(a: u64, b: u64, p: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + p - b
    }
}

/// `(a · b) mod p` through a 128-bit product. Fine off the hot path; the
/// butterflies use [`shoup_mul`] instead.
#[inline]
#[must_use]
pub fn mul_mod(a: u64, b: u64, p: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(p)) as u64
}

/// `b^e mod p` by square-and-multiply.
#[must_use]
pub fn pow_mod(mut b: u64, mut e: u64, p: u64) -> u64 {
    let mut acc = 1u64;
    b %= p;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod(acc, b, p);
        }
        b = mul_mod(b, b, p);
        e >>= 1;
    }
    acc
}

/// `a^{-1} mod p` for prime `p` (Fermat).
#[must_use]
pub fn inv_mod(a: u64, p: u64) -> u64 {
    pow_mod(a, p - 2, p)
}

/// Shoup companion of a fixed multiplicand `w`: `⌊w·2^64/p⌋`.
#[inline]
#[must_use]
pub fn shoup_precompute(w: u64, p: u64) -> u64 {
    ((u128::from(w) << 64) / u128::from(p)) as u64
}

/// `(x · w) mod p` with `w`'s precomputed companion `w_shoup`; requires
/// `p < 2^63` and `x, w < p`. Two widening multiplies, one correction.
#[inline(always)]
#[must_use]
pub fn shoup_mul(x: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    let q = ((u128::from(x) * u128::from(w_shoup)) >> 64) as u64;
    let r = x.wrapping_mul(w).wrapping_sub(q.wrapping_mul(p));
    if r >= p {
        r - p
    } else {
        r
    }
}

/// A primitive root of unity of the given power-of-two `order` modulo
/// `PRIMES[prime]`.
///
/// # Panics
/// If `order` is not a power of two or exceeds the prime's 2-adicity.
#[must_use]
pub fn root_of_order(prime: usize, order: usize) -> u64 {
    assert!(order.is_power_of_two(), "order must be a power of two");
    let e = order.trailing_zeros();
    assert!(
        e <= ADICITY[prime],
        "order 2^{e} exceeds the 2-adicity of prime {prime}"
    );
    pow_mod(ROOTS[prime], 1u64 << (ADICITY[prime] - e), PRIMES[prime])
}

/// `(a · b) mod p` in Montgomery form: returns `a·b·2^{-64} mod p`. The
/// pointwise stage uses this and folds the stray `2^{-64}` into the final
/// `n^{-1}` scaling — no division anywhere on the hot path.
#[inline(always)]
fn mont_mul(a: u64, b: u64, p: u64, ninv: u64) -> u64 {
    let t = u128::from(a) * u128::from(b);
    let m = (t as u64).wrapping_mul(ninv);
    let u = ((t + u128::from(m) * u128::from(p)) >> 64) as u64;
    if u >= p {
        u - p
    } else {
        u
    }
}

/// CRT-combine residues of the same coefficient modulo `P0` and `P1` into
/// the unique value below `P0·P1` (fits in 122 bits). Division-free:
/// `P0 < 2·P1` makes the reduction a conditional subtract, and the fixed
/// lift constant carries a Shoup companion.
#[inline]
#[must_use]
pub fn crt_combine(r0: u64, r1: u64) -> u128 {
    // c = r0 + p0 · ((r1 − r0) · p0^{-1} mod p1)
    let r0_mod_p1 = if r0 >= P1 { r0 - P1 } else { r0 };
    let diff = sub_mod(r1, r0_mod_p1, P1);
    const LIFT_SHOUP: u64 = ((P0_INV_MOD_P1 as u128) << 64).wrapping_div(P1 as u128) as u64;
    let t = shoup_mul(diff, P0_INV_MOD_P1, LIFT_SHOUP, P1);
    u128::from(r0) + u128::from(P0) * u128::from(t)
}

// ---------------------------------------------------------------------------
// Transforms.
// ---------------------------------------------------------------------------

/// Grow-only flat twiddle tables for one prime. `tw[k + j] = w_{2k}^j`
/// (forward) and `itw[k + j] = w_{2k}^{-j}` (inverse) for every power of
/// two `k < built`, with Shoup companions alongside — the prefix for a
/// smaller transform is exactly the smaller transform's table.
struct PrimeTables {
    tw: Vec<u64>,
    tws: Vec<u64>,
    itw: Vec<u64>,
    itws: Vec<u64>,
    built: usize,
}

impl PrimeTables {
    const fn new() -> PrimeTables {
        PrimeTables {
            tw: Vec::new(),
            tws: Vec::new(),
            itw: Vec::new(),
            itws: Vec::new(),
            built: 0,
        }
    }

    /// Extend the tables to cover transforms of size `n` (a power of two).
    fn ensure(&mut self, prime: usize, n: usize) {
        if self.built >= n {
            return;
        }
        let p = PRIMES[prime];
        self.tw.resize(n, 0);
        self.tws.resize(n, 0);
        self.itw.resize(n, 0);
        self.itws.resize(n, 0);
        let mut k = self.built.max(1);
        while k < n {
            // Segment [k, 2k): powers of the primitive 2k-th root.
            let w = root_of_order(prime, 2 * k);
            let winv = inv_mod(w, p);
            let (mut f, mut r) = (1u64, 1u64);
            for j in 0..k {
                self.tw[k + j] = f;
                self.tws[k + j] = shoup_precompute(f, p);
                self.itw[k + j] = r;
                self.itws[k + j] = shoup_precompute(r, p);
                f = mul_mod(f, w, p);
                r = mul_mod(r, winv, p);
            }
            k *= 2;
        }
        self.built = n;
    }
}

thread_local! {
    static TABLES: RefCell<[PrimeTables; 2]> =
        const { RefCell::new([PrimeTables::new(), PrimeTables::new()]) };
}

/// In-place bit-reversal permutation of a power-of-two-length slice.
fn bit_reverse(data: &mut [u64]) {
    let n = data.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// Cooley–Tukey decimation-in-time stages: **bit-reversed** input,
/// natural-order output, no scaling. `tw[k + j] = w_{2k}^j`.
fn dit_stages(data: &mut [u64], p: u64, tw: &[u64], tws: &[u64]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let mut k = 1;
    while k < n {
        let (wk, wsk) = (&tw[k..2 * k], &tws[k..2 * k]);
        for block in data.chunks_exact_mut(2 * k) {
            let (lo, hi) = block.split_at_mut(k);
            for j in 0..k {
                let t = shoup_mul(hi[j], wk[j], wsk[j], p);
                let u = lo[j];
                lo[j] = add_mod(u, t, p);
                hi[j] = sub_mod(u, t, p);
            }
        }
        k *= 2;
    }
    // One tallied word-op per butterfly per stage: N/2 · log2 N in total
    // (§2.1 cost model — the machine simulator folds this into F).
    metrics::tally(((n / 2) * n.trailing_zeros() as usize) as u64);
}

/// Gentleman–Sande decimation-in-frequency stages: natural-order input,
/// **bit-reversed** output, no scaling. Paired with [`dit_stages`] on the
/// inverse tables this multiplies polynomials without any bit-reversal
/// pass — the pointwise product is taken in bit-reversed order, where
/// elementwise position is all that matters.
fn dif_stages(data: &mut [u64], p: u64, tw: &[u64], tws: &[u64]) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());
    let mut k = n / 2;
    while k >= 1 {
        let (wk, wsk) = (&tw[k..2 * k], &tws[k..2 * k]);
        for block in data.chunks_exact_mut(2 * k) {
            let (lo, hi) = block.split_at_mut(k);
            for j in 0..k {
                let u = lo[j];
                let v = hi[j];
                lo[j] = add_mod(u, v, p);
                hi[j] = shoup_mul(sub_mod(u, v, p), wk[j], wsk[j], p);
            }
        }
        k /= 2;
    }
    metrics::tally(((n / 2) * n.trailing_zeros() as usize) as u64);
}

/// Natural-order-to-natural-order transform (bit-reverse, then DIT).
fn transform(data: &mut [u64], p: u64, tw: &[u64], tws: &[u64]) {
    bit_reverse(data);
    dit_stages(data, p, tw, tws);
}

/// Forward NTT of `data` (length a power of two, entries `< PRIMES[prime]`)
/// using this thread's twiddle cache. Natural order in and out.
///
/// # Panics
/// If the length is not a power of two within the prime's 2-adicity.
pub fn forward(prime: usize, data: &mut [u64]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "NTT length must be a power of two");
    TABLES.with(|cell| {
        let tables = &mut cell.borrow_mut()[prime];
        tables.ensure(prime, n);
        transform(data, PRIMES[prime], &tables.tw, &tables.tws);
    });
}

/// Inverse NTT of `data`, including the final `n^{-1}` scaling.
pub fn inverse(prime: usize, data: &mut [u64]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "NTT length must be a power of two");
    let p = PRIMES[prime];
    TABLES.with(|cell| {
        let tables = &mut cell.borrow_mut()[prime];
        tables.ensure(prime, n);
        transform(data, p, &tables.itw, &tables.itws);
    });
    scale_by_inv_len(prime, data);
}

/// Multiply every entry by `len^{-1} mod p` — the normalization a raw
/// inverse `transform` leaves out (exposed for protocols that fold the
/// scaling into a later stage).
pub fn scale_by_inv_len(prime: usize, data: &mut [u64]) {
    let p = PRIMES[prime];
    let ninv = inv_mod(data.len() as u64 % p, p);
    let ninv_shoup = shoup_precompute(ninv, p);
    for x in data.iter_mut() {
        *x = shoup_mul(*x, ninv, ninv_shoup, p);
    }
    metrics::tally(data.len() as u64);
}

// ---------------------------------------------------------------------------
// Digit splitting / recombination.
// ---------------------------------------------------------------------------

/// Number of base-`2^32` digits carried by `limbs`.
#[must_use]
pub fn digit_count(limbs: usize) -> usize {
    2 * limbs
}

/// Transform size for a product of `la`-limb and `lb`-limb operands: the
/// smallest power of two holding every product digit.
#[must_use]
pub fn transform_size(la: usize, lb: usize) -> usize {
    (digit_count(la) + digit_count(lb)).next_power_of_two()
}

/// Split limbs into base-`2^32` digits, zero-padding `out` past the end.
/// Every digit is `< 2^32`, hence already reduced modulo both primes.
pub fn split_digits(limbs: &[Limb], out: &mut [u64]) {
    debug_assert!(out.len() >= digit_count(limbs.len()));
    for (i, &limb) in limbs.iter().enumerate() {
        out[2 * i] = limb & DIGIT_MASK;
        out[2 * i + 1] = limb >> DIGIT_BITS;
    }
    out[digit_count(limbs.len())..].fill(0);
    metrics::tally(limbs.len() as u64);
}

/// Scratch requirement (in limbs) of [`mul_ntt_into`]: five transform-sized
/// buffers from one arena allocation.
#[must_use]
pub fn ntt_scratch_limbs(la: usize, lb: usize) -> usize {
    5 * transform_size(la, lb)
}

/// `out = a · b` via the two-prime CRT NTT; `out` is fully overwritten
/// with the normalized `la + lb`-limb product. All scratch comes from
/// `ws`; the warm path performs no heap allocation.
pub fn mul_ntt_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>, ws: &mut Workspace) {
    let (la, lb) = (a.len(), b.len());
    out.clear();
    if la == 0 || lb == 0 {
        return;
    }
    let n = transform_size(la, lb);
    let out_limbs = la + lb;
    out.reserve(out_limbs);
    let mark = ws.mark();
    {
        let buf = ws.alloc(5 * n);
        let (da, rest) = buf.split_at_mut(n);
        let (db, rest) = rest.split_at_mut(n);
        let (r0, rest) = rest.split_at_mut(n);
        let (r1, tmp) = rest.split_at_mut(n);
        split_digits(a, da);
        split_digits(b, db);
        TABLES.with(|cell| {
            let mut tables = cell.borrow_mut();
            for (prime, res) in [&mut *r0, &mut *r1].into_iter().enumerate() {
                let p = PRIMES[prime];
                let t = &mut tables[prime];
                t.ensure(prime, n);
                res.copy_from_slice(da);
                tmp.copy_from_slice(db);
                // DIF forward → pointwise in bit-reversed order → raw DIT
                // inverse: no bit-reversal pass anywhere. The Montgomery
                // pointwise product carries a stray 2^{-64}, folded into
                // the final scaling constant `n^{-1}·2^64 mod p`.
                dif_stages(res, p, &t.tw, &t.tws);
                dif_stages(tmp, p, &t.tw, &t.tws);
                let ninv = NEG_INV[prime];
                for (x, &y) in res.iter_mut().zip(tmp.iter()) {
                    *x = mont_mul(*x, y, p, ninv);
                }
                metrics::tally(n as u64);
                dit_stages(res, p, &t.itw, &t.itws);
                let r_mod_p = ((1u128 << 64) % u128::from(p)) as u64;
                let scale = mul_mod(inv_mod(n as u64 % p, p), r_mod_p, p);
                let scale_shoup = shoup_precompute(scale, p);
                for x in res.iter_mut() {
                    *x = shoup_mul(*x, scale, scale_shoup, p);
                }
                metrics::tally(n as u64);
            }
        });
        // CRT lift + base-2^32 carry propagation, packed back to limbs.
        // `n ≥ 2·out_limbs`, and the product fits `out_limbs` limbs, so the
        // final carry provably dies in-window.
        let mut carry: u128 = 0;
        let mut lo32: u64 = 0;
        for i in 0..digit_count(out_limbs) {
            let cur = crt_combine(r0[i], r1[i]) + carry;
            let digit = (cur as u64) & DIGIT_MASK;
            carry = cur >> DIGIT_BITS;
            if i % 2 == 0 {
                lo32 = digit;
            } else {
                out.push(lo32 | (digit << DIGIT_BITS));
            }
        }
        debug_assert_eq!(carry, 0, "NTT product carry escaped the window");
        metrics::tally(digit_count(out_limbs) as u64);
    }
    ws.release(mark);
    while out.last() == Some(&0) {
        out.pop();
    }
}

impl BigInt {
    /// Signed product via the two-prime CRT NTT kernel. `mul_auto` reaches
    /// this automatically above [`NTT_THRESHOLD_LIMBS`]; this entry point
    /// forces it at any size (tests, explicit kernel selection).
    #[must_use]
    pub fn mul_ntt(&self, other: &BigInt) -> BigInt {
        workspace::with_thread_local(|ws| self.mul_ntt_with_ws(other, ws))
    }

    /// [`BigInt::mul_ntt`] against a caller-held workspace.
    #[must_use]
    pub fn mul_ntt_with_ws(&self, other: &BigInt, ws: &mut Workspace) -> BigInt {
        let sign = self.sign.mul(other.sign);
        if sign == Sign::Zero {
            return BigInt::zero();
        }
        let mut out = ws.take_limbs();
        mul_ntt_into(&self.mag, &other.mag, &mut out, ws);
        BigInt { sign, mag: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primes_are_prime_and_roots_are_primitive() {
        for (i, &p) in PRIMES.iter().enumerate() {
            assert!(miller_rabin(p), "PRIMES[{i}] failed Miller-Rabin");
            // p − 1 = odd · 2^adicity exactly.
            assert_eq!((p - 1).trailing_zeros(), ADICITY[i]);
            // The stored root has exact order 2^adicity.
            let r = ROOTS[i];
            assert_eq!(pow_mod(r, 1 << ADICITY[i], p), 1);
            assert_ne!(pow_mod(r, 1 << (ADICITY[i] - 1), p), 1);
        }
        // CRT constant.
        assert_eq!(mul_mod(P0 % P1, P0_INV_MOD_P1, P1), 1);
    }

    #[test]
    fn forward_inverse_round_trip() {
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for (prime, &p) in PRIMES.iter().enumerate() {
            for n in [1usize, 2, 4, 64, 1024] {
                let data: Vec<u64> = (0..n).map(|_| next() % p).collect();
                let mut work = data.clone();
                forward(prime, &mut work);
                inverse(prime, &mut work);
                assert_eq!(work, data, "prime {prime} size {n}");
            }
        }
    }

    #[test]
    fn forward_matches_naive_dft() {
        let prime = 0;
        let p = PRIMES[prime];
        let n = 8;
        let w = root_of_order(prime, n);
        let data: Vec<u64> = (0..n as u64).map(|i| i * i + 3).collect();
        let mut fast = data.clone();
        forward(prime, &mut fast);
        for (m, &got) in fast.iter().enumerate() {
            let mut want = 0u64;
            for (i, &x) in data.iter().enumerate() {
                want = add_mod(want, mul_mod(x, pow_mod(w, (i * m) as u64, p), p), p);
            }
            assert_eq!(got, want, "coefficient {m}");
        }
    }

    #[test]
    fn ntt_product_matches_schoolbook() {
        let mut rng = 0xdead_beef_cafe_f00du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for limbs in [1usize, 2, 17, 64, 200] {
            let a = BigInt::from_limbs((0..limbs).map(|_| next()).collect());
            let b = BigInt::from_limbs((0..limbs + 3).map(|_| next()).collect());
            assert_eq!(a.mul_ntt(&b), a.mul_schoolbook(&b), "limbs {limbs}");
            assert_eq!(a.mul_ntt(&-&a), -&a.mul_schoolbook(&a));
        }
        // Degenerate shapes.
        let zero = BigInt::zero();
        let one = BigInt::from(1u64);
        let x = BigInt::from_limbs(vec![u64::MAX; 9]);
        assert_eq!(x.mul_ntt(&zero), zero);
        assert_eq!(x.mul_ntt(&one), x);
        assert_eq!(x.mul_ntt(&x), x.mul_schoolbook(&x));
    }

    fn miller_rabin(n: u64) -> bool {
        if n < 2 {
            return false;
        }
        let s = (n - 1).trailing_zeros();
        let d = (n - 1) >> s;
        'witness: for &a in &[2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            if a % n == 0 {
                continue;
            }
            let mut x = pow_mod(a, d, n);
            if x == 1 || x == n - 1 {
                continue;
            }
            for _ in 1..s {
                x = mul_mod(x, x, n);
                if x == n - 1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }
}
