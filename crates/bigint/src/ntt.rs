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
//! The butterflies are Harvey's lazy ones: values stay in `[0, 2p)`
//! between stages and are corrected branch-free (`x.min(x − 2p)`), which
//! is sound because both primes are below `2^62`. Each twiddle `w` is
//! cached with its Shoup companion `⌊w·2^64/p⌋`, so a butterfly is two
//! widening multiplies and no division. The stage order is depth-first:
//! a transform finishes every stage of a block of `BLOCK` (2^11) words
//! while the block sits in L1 before moving to the next, so only the top
//! `log2(N/BLOCK)` stages stream the whole buffer (the blocking of Chen
//! et al., PAPERS.md).
//!
//! Twiddle tables are flat and *prefix closed* (`tw[k+j] = w_{2k}^j`), so
//! one table serves every transform size up to the largest built. One set
//! is shared by the whole process: nothing is built at start-up; the
//! first transform builds it, a larger one regrows it under a lock, and
//! every transform reads it through an `Arc`.
//!
//! [`mul_ntt_into`] convolves prime 0 on the calling thread while one
//! scoped helper thread convolves prime 1, each on its own half of one
//! [`Workspace::alloc`] split of `4N` limbs; the warm path allocates
//! nothing but the product and the helper. The transform primitives
//! ([`forward`], [`inverse`]) stay single-threaded and are `pub` so the
//! coded-NTT machine protocol (`ft-toom-core::ft::ntt`) can run column
//! transforms under the same arithmetic.

use crate::metrics;
use crate::workspace::{self, Workspace};
use crate::{BigInt, Limb, Sign};
use std::sync::{Arc, Mutex};

/// The two CRT primes, most-significant first: `p0 = 57·2^55 + 1` and
/// `p1 = 27·2^56 + 1`. Both `< 2^62` (lazy-butterfly safe), both
/// `≡ 1 mod 2^55`.
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
/// selected by the auto dispatch: 16 384 limbs = 1 Mbit. With one prime
/// per core the NTT beats sequential Toom-3 and parallel Toom at every
/// size from there up on the 2-core host of BENCH_kernels.json (see
/// EXPERIMENTS.md §S9). The crossover is kept here only:
/// `ft_toom_core::seq::NTT_MIN_BITS` and the service's `KernelPolicy`
/// defaults derive from it.
pub const NTT_THRESHOLD_LIMBS: usize = 16_384;

/// Words one transform block keeps in L1: every stage below this size
/// runs to completion on one block before the next block is touched.
const BLOCK: usize = 1 << 11;

// ---------------------------------------------------------------------------
// Modular arithmetic helpers (pub for the coded-NTT machine protocol).
// ---------------------------------------------------------------------------

/// `(a + b) mod p`, requiring `a, b < p < 2^63`.
#[inline(always)]
#[must_use]
pub fn add_mod(a: u64, b: u64, p: u64) -> u64 {
    reduce_once(a + b, p)
}

/// `(a − b) mod p`, requiring `a, b < p`.
#[inline(always)]
#[must_use]
pub fn sub_mod(a: u64, b: u64, p: u64) -> u64 {
    reduce_once(a + p - b, p)
}

/// `x mod m` for `x < 2m`, branch-free: `x − m` wraps above `x` exactly
/// when `x < m`.
#[inline(always)]
fn reduce_once(x: u64, m: u64) -> u64 {
    x.min(x.wrapping_sub(m))
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
/// `p < 2^63` and `w < p` (any `x`). Two widening multiplies, one
/// correction.
#[inline(always)]
#[must_use]
pub fn shoup_mul(x: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    reduce_once(shoup_lazy(x, w, w_shoup, p), p)
}

/// [`shoup_mul`] without its correction: `x·w mod p` plus at most one
/// `p`, so in `[0, 2p)`, for every `x < 2^64`.
#[inline(always)]
fn shoup_lazy(x: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    let q = ((u128::from(x) * u128::from(w_shoup)) >> 64) as u64;
    x.wrapping_mul(w).wrapping_sub(q.wrapping_mul(p))
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

/// `a·b·2^{-64} mod p`, lazily: inputs in `[0, 2p)`, result in `[0, 2p)`
/// (both hold because `4p < 2^64`). The pointwise stage uses this and
/// folds the stray `2^{-64}` into the final `n^{-1}` scaling — no division
/// anywhere on the hot path.
#[inline(always)]
fn mont_mul_lazy(a: u64, b: u64, p: u64, ninv: u64) -> u64 {
    let t = u128::from(a) * u128::from(b);
    let m = (t as u64).wrapping_mul(ninv);
    ((t + u128::from(m) * u128::from(p)) >> 64) as u64
}

/// CRT-combine residues of the same coefficient modulo `P0` and `P1` into
/// the unique value below `P0·P1` (fits in 122 bits). Division-free:
/// `P0 < 2·P1` makes the reduction a conditional subtract, and the fixed
/// lift constant carries a Shoup companion.
#[inline]
#[must_use]
pub fn crt_combine(r0: u64, r1: u64) -> u128 {
    // c = r0 + p0 · ((r1 − r0) · p0^{-1} mod p1)
    let r0_mod_p1 = reduce_once(r0, P1);
    let diff = sub_mod(r1, r0_mod_p1, P1);
    const LIFT_SHOUP: u64 = ((P0_INV_MOD_P1 as u128) << 64).wrapping_div(P1 as u128) as u64;
    let t = shoup_mul(diff, P0_INV_MOD_P1, LIFT_SHOUP, P1);
    u128::from(r0) + u128::from(P0) * u128::from(t)
}

// ---------------------------------------------------------------------------
// Twiddle tables.
// ---------------------------------------------------------------------------

/// A twiddle and its Shoup companion, side by side so one cache line
/// serves both loads.
type Twiddle = [u64; 2];

/// One prime's flat twiddle tables: `fwd[k + j] = w_{2k}^j` and
/// `inv[k + j] = w_{2k}^{-j}` for every power of two `k` below the
/// table length and `j < k` — the prefix for a smaller transform is
/// exactly the smaller transform's table.
struct PrimeTables {
    fwd: Vec<Twiddle>,
    inv: Vec<Twiddle>,
}

impl PrimeTables {
    /// Tables for every transform up to `len` (a power of two `≥ 2`).
    /// Only the top segment costs a division per entry (its Shoup
    /// companion); every other entry is copied or negated.
    fn build(prime: usize, len: usize) -> PrimeTables {
        let p = PRIMES[prime];
        let half = len / 2;
        let mut fwd = vec![[0u64; 2]; len];
        // Top segment [half, len): powers of the primitive len-th root.
        let w = root_of_order(prime, len);
        let w_shoup = shoup_precompute(w, p);
        let mut f = 1u64;
        for entry in &mut fwd[half..] {
            *entry = [f, shoup_precompute(f, p)];
            f = shoup_mul(f, w, w_shoup, p);
        }
        // Smaller segments by stride: w_{2k}^j = w_{4k}^{2j}.
        let mut k = half / 2;
        while k >= 1 {
            for j in 0..k {
                fwd[k + j] = fwd[2 * k + 2 * j];
            }
            k /= 2;
        }
        // w_{2k}^{-j} = −w_{2k}^{k−j} (as w_{2k}^k = −1), and the companion
        // of p − w is 2^64 − 1 − ⌊w·2^64/p⌋ (w·2^64/p is never an integer).
        let mut inv = vec![[0u64; 2]; len];
        let mut k = 1;
        while k < len {
            inv[k] = fwd[k];
            for j in 1..k {
                let [w, c] = fwd[2 * k - j];
                inv[k + j] = [p - w, !c];
            }
            k *= 2;
        }
        PrimeTables { fwd, inv }
    }
}

/// Both primes' tables, indexed by prime.
type Tables = [PrimeTables; 2];

/// The process's tables, grown to the largest transform seen. Callers
/// clone the `Arc` and release the lock; a caller that needs a larger
/// transform builds the larger set while holding it.
static TABLES: Mutex<Option<Arc<Tables>>> = Mutex::new(None);

/// Tables covering transforms of length `len` (a power of two `≥ 2`).
fn tables(len: usize) -> Arc<Tables> {
    let mut slot = TABLES
        .lock()
        .expect("a thread panicked while building the NTT tables");
    match &*slot {
        Some(t) if t[0].fwd.len() >= len => Arc::clone(t),
        _ => {
            let t = Arc::new([PrimeTables::build(0, len), PrimeTables::build(1, len)]);
            *slot = Some(Arc::clone(&t));
            t
        }
    }
}

// ---------------------------------------------------------------------------
// Transforms.
// ---------------------------------------------------------------------------

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

/// One tallied word-op per butterfly per stage: `N/2 · log2 N` per
/// transform (§2.1 cost model — the machine simulator folds this into F).
fn tally_transform(n: usize) {
    metrics::tally(((n / 2) * n.trailing_zeros() as usize) as u64);
}

/// One Gentleman–Sande stage of half-width `k` over every `2k` block:
/// `(u, v) → (u + v, (u − v)·w_{2k}^j)`, values in `[0, 2p)` in and out.
#[inline(always)]
fn dif_stage(data: &mut [u64], k: usize, p: u64, tw: &[Twiddle]) {
    let two_p = 2 * p;
    let tw = &tw[k..2 * k];
    for block in data.chunks_exact_mut(2 * k) {
        let (lo, hi) = block.split_at_mut(k);
        for ((x, y), &[w, w_shoup]) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
            let (u, v) = (*x, *y);
            *x = reduce_once(u + v, two_p);
            *y = shoup_lazy(u + two_p - v, w, w_shoup, p);
        }
    }
}

/// One Cooley–Tukey stage of half-width `k` over every `2k` block:
/// `(u, v) → (u + v·w_{2k}^j, u − v·w_{2k}^j)`, values in `[0, 2p)` in
/// and out.
#[inline(always)]
fn dit_stage(data: &mut [u64], k: usize, p: u64, tw: &[Twiddle]) {
    let two_p = 2 * p;
    let tw = &tw[k..2 * k];
    for block in data.chunks_exact_mut(2 * k) {
        let (lo, hi) = block.split_at_mut(k);
        for ((x, y), &[w, w_shoup]) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
            let u = *x;
            let t = shoup_lazy(*y, w, w_shoup, p);
            *x = reduce_once(u + t, two_p);
            *y = reduce_once(u + two_p - t, two_p);
        }
    }
}

/// Decimation-in-frequency stages, depth-first: natural-order input,
/// **bit-reversed** output, no scaling, values in `[0, 2p)`. The top stage
/// splits the slice into two independent half-size transforms; below
/// [`BLOCK`] words all stages run on the block while it is in cache.
fn dif(data: &mut [u64], p: u64, tw: &[Twiddle]) {
    let n = data.len();
    if n <= BLOCK {
        let mut k = n / 2;
        while k >= 1 {
            dif_stage(data, k, p, tw);
            k /= 2;
        }
        return;
    }
    dif_stage(data, n / 2, p, tw);
    let (lo, hi) = data.split_at_mut(n / 2);
    dif(lo, p, tw);
    dif(hi, p, tw);
}

/// Decimation-in-time stages, depth-first: **bit-reversed** input,
/// natural-order output, no scaling, values in `[0, 2p)` — the mirror of
/// [`dif`]. Paired with it on the inverse tables this multiplies
/// polynomials without any bit-reversal pass: the pointwise product is
/// taken in bit-reversed order, where elementwise position is all that
/// matters.
fn dit(data: &mut [u64], p: u64, tw: &[Twiddle]) {
    let n = data.len();
    if n <= BLOCK {
        let mut k = 1;
        while k < n {
            dit_stage(data, k, p, tw);
            k *= 2;
        }
        return;
    }
    let (lo, hi) = data.split_at_mut(n / 2);
    dit(lo, p, tw);
    dit(hi, p, tw);
    dit_stage(data, n / 2, p, tw);
}

/// Forward NTT of `data` (length a power of two, entries `< PRIMES[prime]`)
/// using the shared twiddle tables. Natural order in and out, entries
/// fully reduced.
///
/// # Panics
/// If the length is not a power of two within the prime's 2-adicity.
pub fn forward(prime: usize, data: &mut [u64]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "NTT length must be a power of two");
    let p = PRIMES[prime];
    dif(data, p, &tables(n)[prime].fwd);
    tally_transform(n);
    bit_reverse(data);
    for x in data.iter_mut() {
        *x = reduce_once(*x, p);
    }
}

/// Inverse NTT of `data`, including the final `n^{-1}` scaling; entries
/// fully reduced.
///
/// # Panics
/// If the length is not a power of two within the prime's 2-adicity.
pub fn inverse(prime: usize, data: &mut [u64]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "NTT length must be a power of two");
    bit_reverse(data);
    dit(data, PRIMES[prime], &tables(n)[prime].inv);
    tally_transform(n);
    scale_by_inv_len(prime, data);
}

/// Multiply every entry by `len^{-1} mod p` — the normalization a raw
/// inverse transform leaves out (exposed for protocols that fold the
/// scaling into a later stage). Entries may be any `u64`; results are
/// fully reduced.
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
    split_untallied(limbs, out);
    metrics::tally(limbs.len() as u64);
}

fn split_untallied(limbs: &[Limb], out: &mut [u64]) {
    let (digits, pad) = out.split_at_mut(digit_count(limbs.len()));
    for (pair, &limb) in digits.chunks_exact_mut(2).zip(limbs) {
        pair[0] = limb & DIGIT_MASK;
        pair[1] = limb >> DIGIT_BITS;
    }
    pad.fill(0);
}

/// Scratch requirement (in limbs) of [`mul_ntt_into`]: two transform-sized
/// buffers per prime from one arena allocation.
#[must_use]
pub fn ntt_scratch_limbs(la: usize, lb: usize) -> usize {
    4 * transform_size(la, lb)
}

/// Cyclic convolution of `a` and `b` modulo `PRIMES[prime]` in `buf`
/// (`2N` words): on return `buf[..N]` holds `N·2^{-64}·(a ⊛ b)[i]` in
/// `[0, 2p)` — [`mul_ntt_into`]'s CRT pass applies the scaling. Splits its
/// own digits, so the two primes share no buffer.
fn convolve(prime: usize, a: &[Limb], b: &[Limb], buf: &mut [u64], tables: &Tables) {
    let p = PRIMES[prime];
    let t = &tables[prime];
    let (fa, fb) = buf.split_at_mut(buf.len() / 2);
    let n = fa.len();
    split_untallied(a, fa);
    split_untallied(b, fb);
    // DIF forward → pointwise in bit-reversed order → DIT inverse: no
    // bit-reversal pass anywhere. The Montgomery pointwise product carries
    // a stray 2^{-64}, folded into the final scaling constant.
    dif(fa, p, &t.fwd);
    dif(fb, p, &t.fwd);
    tally_transform(n);
    tally_transform(n);
    let ninv = NEG_INV[prime];
    for (x, &y) in fa.iter_mut().zip(fb.iter()) {
        *x = mont_mul_lazy(*x, y, p, ninv);
    }
    metrics::tally(n as u64);
    dit(fa, p, &t.inv);
    tally_transform(n);
    // The n^{-1}·2^64 scaling, one word-op per coefficient, is applied
    // where the CRT pass reads the coefficient.
    metrics::tally(n as u64);
}

/// `out = a · b` via the two-prime CRT NTT; `out` is fully overwritten
/// with the normalized `la + lb`-limb product. All scratch comes from
/// `ws`; the warm path allocates nothing but the product and the scoped
/// helper thread that convolves prime 1 while this thread convolves prime
/// 0. The helper is joined before this returns, and its word-ops are
/// tallied on this thread, so [`metrics::measure`] sees the whole multiply.
pub fn mul_ntt_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>, ws: &mut Workspace) {
    let (la, lb) = (a.len(), b.len());
    out.clear();
    if la == 0 || lb == 0 {
        return;
    }
    let n = transform_size(la, lb);
    let out_limbs = la + lb;
    out.reserve(out_limbs);
    let tables = tables(n);
    let mark = ws.mark();
    {
        let (buf0, buf1) = ws.alloc(4 * n).split_at_mut(2 * n);
        metrics::tally((la + lb) as u64); // the digit split
        let helper_ops = std::thread::scope(|s| {
            let helper = s.spawn(|| metrics::measure(|| convolve(1, a, b, buf1, &tables)).1);
            convolve(0, a, b, buf0, &tables);
            helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        metrics::tally(helper_ops);
        // Scaling + CRT lift + base-2^32 carry propagation, packed back to
        // limbs. `n ≥ 2·out_limbs`, and the product fits `out_limbs` limbs,
        // so the final carry provably dies in-window.
        let scale = |prime: usize| {
            let p = PRIMES[prime];
            let r_mod_p = ((1u128 << 64) % u128::from(p)) as u64;
            let s = mul_mod(inv_mod(n as u64 % p, p), r_mod_p, p);
            (s, shoup_precompute(s, p))
        };
        let ((s0, s0_shoup), (s1, s1_shoup)) = (scale(0), scale(1));
        let digits = digit_count(out_limbs);
        let mut carry: u128 = 0;
        for (r0, r1) in buf0[..digits]
            .chunks_exact(2)
            .zip(buf1[..digits].chunks_exact(2))
        {
            let mut limb = 0;
            for (shift, (&x0, &x1)) in [0, DIGIT_BITS].into_iter().zip(r0.iter().zip(r1)) {
                let cur = crt_combine(
                    shoup_mul(x0, s0, s0_shoup, P0),
                    shoup_mul(x1, s1, s1_shoup, P1),
                ) + carry;
                limb |= ((cur as u64) & DIGIT_MASK) << shift;
                carry = cur >> DIGIT_BITS;
            }
            out.push(limb);
        }
        debug_assert_eq!(carry, 0, "NTT product carry escaped the window");
        metrics::tally(digits as u64);
    }
    ws.release(mark);
    while out.last() == Some(&0) {
        out.pop();
    }
}

impl BigInt {
    /// Signed product via the two-prime CRT NTT kernel. `mul_auto` reaches
    /// this automatically from [`NTT_THRESHOLD_LIMBS`]; this entry point
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

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut rng = seed;
        move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        }
    }

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
            // Lazy butterflies hold values below 4p, which must not wrap.
            assert!(p < 1 << 62);
        }
        // CRT constant.
        assert_eq!(mul_mod(P0 % P1, P0_INV_MOD_P1, P1), 1);
    }

    /// The twiddle tables as they were built before sharing: every entry
    /// of every segment by repeated `mul_mod`, every companion by division.
    fn direct_tables(prime: usize, n: usize) -> (Vec<Twiddle>, Vec<Twiddle>) {
        let p = PRIMES[prime];
        let (mut fwd, mut inv) = (vec![[0u64; 2]; n], vec![[0u64; 2]; n]);
        let mut k = 1;
        while k < n {
            let w = root_of_order(prime, 2 * k);
            let winv = inv_mod(w, p);
            let (mut f, mut r) = (1u64, 1u64);
            for j in 0..k {
                fwd[k + j] = [f, shoup_precompute(f, p)];
                inv[k + j] = [r, shoup_precompute(r, p)];
                f = mul_mod(f, w, p);
                r = mul_mod(r, winv, p);
            }
            k *= 2;
        }
        (fwd, inv)
    }

    fn assert_tables_match_the_direct_construction(log_lens: std::ops::RangeInclusive<u32>) {
        for prime in 0..2 {
            for n in log_lens.clone().map(|log_n| 1usize << log_n) {
                let built = PrimeTables::build(prime, n);
                let (fwd, inv) = direct_tables(prime, n);
                // Entry 0 belongs to no segment.
                assert_eq!(built.fwd[1..], fwd[1..], "prime {prime} size {n}");
                assert_eq!(built.inv[1..], inv[1..], "prime {prime} size {n}");
            }
        }
    }

    #[test]
    fn tables_match_the_direct_construction() {
        assert_tables_match_the_direct_construction(1..=16);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "2^20-entry tables by division: release-only (slow in debug)"
    )]
    fn tables_match_the_direct_construction_at_2_20() {
        assert_tables_match_the_direct_construction(20..=20);
    }

    /// Textbook radix-2 transform: bit-reverse, then Cooley–Tukey stages
    /// with fully reduced arithmetic and twiddles by `pow_mod`.
    fn reference_transform(prime: usize, data: &mut [u64], invert: bool) {
        let p = PRIMES[prime];
        let n = data.len();
        bit_reverse(data);
        let mut k = 1;
        while k < n {
            let mut w = root_of_order(prime, 2 * k);
            if invert {
                w = inv_mod(w, p);
            }
            for block in data.chunks_exact_mut(2 * k) {
                let mut wj = 1u64;
                for j in 0..k {
                    let t = mul_mod(block[k + j], wj, p);
                    let u = block[j];
                    block[j] = add_mod(u, t, p);
                    block[k + j] = sub_mod(u, t, p);
                    wj = mul_mod(wj, w, p);
                }
            }
            k *= 2;
        }
        if invert {
            let ninv = inv_mod(n as u64, p);
            for x in data.iter_mut() {
                *x = mul_mod(*x, ninv, p);
            }
        }
    }

    #[test]
    fn forward_inverse_round_trip() {
        let mut next = xorshift(0x1234_5678_9abc_def0);
        for (prime, &p) in PRIMES.iter().enumerate() {
            for n in [1usize, 2, 4, 64, 1024, 1 << 12, 1 << 17] {
                let data: Vec<u64> = (0..n).map(|_| next() % p).collect();
                let mut work = data.clone();
                forward(prime, &mut work);
                inverse(prime, &mut work);
                assert_eq!(work, data, "prime {prime} size {n}");
            }
        }
    }

    #[test]
    fn blocked_transforms_match_the_radix2_reference() {
        let mut next = xorshift(0x0bad_cafe_1234_5678);
        for (prime, &p) in PRIMES.iter().enumerate() {
            for log_n in 12..=17 {
                let n = 1usize << log_n;
                // Entries up to p − 1: the largest inputs the lazy range sees.
                let data: Vec<u64> = (0..n)
                    .map(|i| if i % 3 == 0 { p - 1 } else { next() % p })
                    .collect();
                for invert in [false, true] {
                    let mut fast = data.clone();
                    if invert {
                        inverse(prime, &mut fast);
                    } else {
                        forward(prime, &mut fast);
                    }
                    let mut want = data.clone();
                    reference_transform(prime, &mut want, invert);
                    assert_eq!(fast, want, "prime {prime} size 2^{log_n} invert {invert}");
                }
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
        let mut next = xorshift(0xdead_beef_cafe_f00d);
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

    #[test]
    fn word_ops_count_the_whole_multiply_on_the_calling_thread() {
        // 5 000-limb operands, N = 2^15: la + lb for the split; per prime
        // three transforms of N/2·log2 N, N pointwise and N scaling; one
        // per product digit for the CRT. Half of it happens on the helper
        // thread, and the total is what the single-threaded kernel
        // tallied.
        let mut next = xorshift(0x005e_ed0f_0005);
        let a = BigInt::from_limbs((0..5_000).map(|_| next()).collect());
        let b = BigInt::from_limbs((0..5_000).map(|_| next()).collect());
        let (_, ops) = metrics::measure(|| a.mul_ntt(&b));
        assert_eq!(ops, 1_635_632);
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
