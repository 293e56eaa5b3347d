//! Low-level limb-slice primitives.
//!
//! All functions operate on little-endian `u64` limb slices. Magnitudes are
//! *normalized* when they carry no trailing (most-significant) zero limbs;
//! functions document whether they require or produce normalized slices.
//!
//! These are the word operations the paper's cost model charges for; each
//! inner loop tallies one unit per limb touched arithmetically.

use crate::metrics::tally;
use crate::{DoubleLimb, Limb};
use std::cmp::Ordering;

/// Strip trailing zero limbs in place, leaving a normalized magnitude.
pub fn normalize(v: &mut Vec<Limb>) {
    while v.last() == Some(&0) {
        v.pop();
    }
}

/// Compare two normalized magnitudes.
pub fn cmp_slices(a: &[Limb], b: &[Limb]) -> Ordering {
    debug_assert!(a.last() != Some(&0) && b.last() != Some(&0));
    match a.len().cmp(&b.len()) {
        Ordering::Equal => {
            for (x, y) in a.iter().rev().zip(b.iter().rev()) {
                match x.cmp(y) {
                    Ordering::Equal => continue,
                    other => return other,
                }
            }
            Ordering::Equal
        }
        other => other,
    }
}

/// `a + b`, magnitudes in any normalization state; result normalized.
#[allow(clippy::needless_range_loop)] // index drives two slices at once
pub fn add_slices(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry: Limb = 0;
    for i in 0..long.len() {
        let s =
            long[i] as DoubleLimb + *short.get(i).unwrap_or(&0) as DoubleLimb + carry as DoubleLimb;
        out.push(s as Limb);
        carry = (s >> 64) as Limb;
    }
    if carry != 0 {
        out.push(carry);
    }
    tally(long.len() as u64);
    normalize(&mut out);
    out
}

/// `a - b` for normalized `a >= b`; result normalized.
///
/// # Panics
/// Debug-panics if `a < b`.
#[allow(clippy::needless_range_loop)] // index drives two slices at once
pub fn sub_slices(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    debug_assert!(
        cmp_slices(a, b) != Ordering::Less,
        "sub_slices requires a >= b"
    );
    let mut out = Vec::with_capacity(a.len());
    let mut borrow: Limb = 0;
    for i in 0..a.len() {
        let bi = *b.get(i).unwrap_or(&0);
        let (d1, o1) = a[i].overflowing_sub(bi);
        let (d2, o2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = (o1 | o2) as Limb;
    }
    debug_assert_eq!(borrow, 0);
    tally(a.len() as u64);
    normalize(&mut out);
    out
}

/// Schoolbook product of two magnitudes (`Θ(|a|·|b|)` word ops); result
/// normalized. Empty inputs yield the empty (zero) magnitude.
pub fn mul_schoolbook(a: &[Limb], b: &[Limb]) -> Vec<Limb> {
    let mut out = Vec::new();
    mul_into(a, b, &mut out);
    out
}

// ---------------------------------------------------------------------------
// In-place / into-buffer kernels.
//
// The functions below are the zero-allocation counterparts of the `Vec`-
// returning primitives above: they write through caller-provided buffers so
// recursive algorithms (Karatsuba, Toom-Cook) can reuse scratch memory
// across levels. Slice-level helpers (`add_in_place`, `sub_in_place`,
// `mul_basecase`, …) work on fixed-width windows and report the out-of-range
// carry/borrow; `Vec`-level helpers (`*_assign_slices`, `*_into`) manage
// length and leave a normalized magnitude.
// ---------------------------------------------------------------------------

/// Limbs per block of `b` in the blocked accumulating multiply: 4 KiB of
/// multiplicand stays L1-resident while `a` and `out` stream past it.
const MUL_BLOCK_LIMBS: usize = 512;

/// `acc[..b.len()] += b` over a fixed window; returns the carry out of the
/// window (0 or 1). Requires `b.len() <= acc.len()`; limbs of `acc` past
/// `b.len()` are *not* touched.
#[inline]
pub fn add_in_place(acc: &mut [Limb], b: &[Limb]) -> Limb {
    debug_assert!(b.len() <= acc.len());
    let mut carry: Limb = 0;
    for (x, &y) in acc.iter_mut().zip(b) {
        let s = *x as DoubleLimb + y as DoubleLimb + carry as DoubleLimb;
        *x = s as Limb;
        carry = (s >> 64) as Limb;
    }
    tally(b.len() as u64);
    carry
}

/// Propagate a single carry limb into `acc`; returns the carry out of the
/// slice (0 unless the whole slice was `u64::MAX`s).
#[inline]
pub fn propagate_carry(acc: &mut [Limb], mut carry: Limb) -> Limb {
    let mut i = 0;
    while carry != 0 && i < acc.len() {
        let (s, o) = acc[i].overflowing_add(carry);
        acc[i] = s;
        carry = o as Limb;
        i += 1;
    }
    carry
}

/// `acc[..b.len()] -= b` over a fixed window; returns the borrow out of the
/// window (0 or 1). Requires `b.len() <= acc.len()`; limbs of `acc` past
/// `b.len()` are *not* touched.
#[inline]
pub fn sub_in_place(acc: &mut [Limb], b: &[Limb]) -> Limb {
    debug_assert!(b.len() <= acc.len());
    let mut borrow: Limb = 0;
    for (x, &y) in acc.iter_mut().zip(b) {
        let (d1, o1) = x.overflowing_sub(y);
        let (d2, o2) = d1.overflowing_sub(borrow);
        *x = d2;
        borrow = (o1 | o2) as Limb;
    }
    tally(b.len() as u64);
    borrow
}

/// Propagate a single borrow limb into `acc`; returns the borrow out of the
/// slice.
#[inline]
pub fn propagate_borrow(acc: &mut [Limb], mut borrow: Limb) -> Limb {
    let mut i = 0;
    while borrow != 0 && i < acc.len() {
        let (d, o) = acc[i].overflowing_sub(borrow);
        acc[i] = d;
        borrow = o as Limb;
        i += 1;
    }
    borrow
}

/// Two's-complement negate in place: `v = 2^(64·len) - v`. Used to recover
/// the magnitude after a subtraction that underflowed.
#[inline]
pub(crate) fn negate_in_place(v: &mut [Limb]) {
    let mut carry: Limb = 1;
    for x in v.iter_mut() {
        let s = (!*x) as DoubleLimb + carry as DoubleLimb;
        *x = s as Limb;
        carry = (s >> 64) as Limb;
    }
    tally(v.len() as u64);
}

/// `acc += b` in place, growing `acc` as needed; result normalized.
pub fn add_assign_slices(acc: &mut Vec<Limb>, b: &[Limb]) {
    if acc.len() < b.len() {
        acc.resize(b.len(), 0);
    }
    let carry = add_in_place(&mut acc[..], b);
    let carry = propagate_carry(&mut acc[b.len()..], carry);
    if carry != 0 {
        acc.push(carry);
    }
    normalize(acc);
}

/// `acc = |acc - b|` in place with no pre-comparison pass; returns `true`
/// when the true difference was negative (the caller must flip the sign).
///
/// Subtracts limb-wise and, only when the final borrow indicates underflow,
/// recovers the magnitude with one two's-complement negate — one data pass
/// in the common case instead of compare-then-subtract's two.
pub fn sub_assign_slices(acc: &mut Vec<Limb>, b: &[Limb]) -> bool {
    if acc.len() < b.len() {
        acc.resize(b.len(), 0);
    }
    let borrow = sub_in_place(&mut acc[..], b);
    let borrow = propagate_borrow(&mut acc[b.len()..], borrow);
    let flipped = borrow != 0;
    if flipped {
        negate_in_place(acc);
    }
    normalize(acc);
    flipped
}

/// `out += a * b`, cache-blocked: `b` is consumed in `MUL_BLOCK_LIMBS`
/// chunks so each chunk stays cache-resident while all of `a` streams past.
/// Requires `out.len() >= a.len() + b.len()`; carries that outrun a block
/// are propagated immediately (the running value never exceeds the final
/// product, so propagation terminates inside `out`).
pub fn addmul_slices(a: &[Limb], b: &[Limb], out: &mut [Limb]) {
    debug_assert!(out.len() >= a.len() + b.len());
    for (c0, chunk) in b.chunks(MUL_BLOCK_LIMBS).enumerate() {
        let base = c0 * MUL_BLOCK_LIMBS;
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry: Limb = 0;
            let lo = i + base;
            for (x, &bj) in out[lo..lo + chunk.len()].iter_mut().zip(chunk) {
                let t =
                    *x as DoubleLimb + ai as DoubleLimb * bj as DoubleLimb + carry as DoubleLimb;
                *x = t as Limb;
                carry = (t >> 64) as Limb;
            }
            let spill = propagate_carry(&mut out[lo + chunk.len()..], carry);
            debug_assert_eq!(spill, 0, "addmul carry escaped the output buffer");
            tally(chunk.len() as u64);
        }
    }
}

/// Schoolbook product written straight into `out[..a.len()+b.len()]` with
/// *overwrite* semantics: the first row writes, later rows accumulate, so
/// `out` need not be zeroed beforehand. Requires non-empty inputs and
/// `out.len() == a.len() + b.len()`; every limb of `out` is written.
pub fn mul_basecase(a: &[Limb], b: &[Limb], out: &mut [Limb]) {
    let (la, lb) = (a.len(), b.len());
    debug_assert!(la >= 1 && lb >= 1);
    debug_assert_eq!(out.len(), la + lb);
    // Row 0 overwrites out[0..=lb]; the tail is zero-filled so later rows
    // (and their plain carry stores) can accumulate into defined limbs.
    let a0 = a[0];
    let mut carry: Limb = 0;
    for (x, &bj) in out[..lb].iter_mut().zip(b) {
        let t = a0 as DoubleLimb * bj as DoubleLimb + carry as DoubleLimb;
        *x = t as Limb;
        carry = (t >> 64) as Limb;
    }
    out[lb] = carry;
    for x in &mut out[lb + 1..] {
        *x = 0;
    }
    tally(lb as u64);
    for (i, &ai) in a.iter().enumerate().skip(1) {
        if ai == 0 {
            continue;
        }
        let mut carry: Limb = 0;
        for (x, &bj) in out[i..i + lb].iter_mut().zip(b) {
            let t = *x as DoubleLimb + ai as DoubleLimb * bj as DoubleLimb + carry as DoubleLimb;
            *x = t as Limb;
            carry = (t >> 64) as Limb;
        }
        // Rows only touch out[i..=i+lb], so out[i+lb] still holds its fill
        // value 0 when row i reaches it: a plain store is enough.
        out[i + lb] = carry;
        tally(lb as u64);
    }
}

/// Schoolbook product into a caller-provided buffer: `out` is reused
/// (cleared, sized, filled) rather than freshly allocated; result
/// normalized.
pub fn mul_into(a: &[Limb], b: &[Limb], out: &mut Vec<Limb>) {
    out.clear();
    if a.is_empty() || b.is_empty() {
        return;
    }
    out.resize(a.len() + b.len(), 0);
    addmul_slices(a, b, out);
    normalize(out);
}

/// `a * m` into a caller-provided buffer; result normalized.
pub fn mul_limb_into(a: &[Limb], m: Limb, out: &mut Vec<Limb>) {
    out.clear();
    if m == 0 || a.is_empty() {
        return;
    }
    out.reserve(a.len() + 1);
    let mut carry: Limb = 0;
    for &ai in a {
        let t = ai as DoubleLimb * m as DoubleLimb + carry as DoubleLimb;
        out.push(t as Limb);
        carry = (t >> 64) as Limb;
    }
    if carry != 0 {
        out.push(carry);
    }
    tally(a.len() as u64);
    normalize(out);
}

/// `a *= m` in place; result normalized.
pub fn mul_limb_assign(a: &mut Vec<Limb>, m: Limb) {
    if a.is_empty() {
        return;
    }
    if m == 0 {
        a.clear();
        return;
    }
    let mut carry: Limb = 0;
    for x in a.iter_mut() {
        let t = *x as DoubleLimb * m as DoubleLimb + carry as DoubleLimb;
        *x = t as Limb;
        carry = (t >> 64) as Limb;
    }
    tally(a.len() as u64);
    if carry != 0 {
        a.push(carry);
    }
    normalize(a);
}

/// `a /= d` in place for a single non-zero limb divisor; returns the
/// remainder. Quotient left normalized.
pub fn div_rem_limb_assign(a: &mut Vec<Limb>, d: Limb) -> Limb {
    assert!(d != 0, "division by zero limb");
    let mut rem: Limb = 0;
    for x in a.iter_mut().rev() {
        let cur = ((rem as DoubleLimb) << 64) | *x as DoubleLimb;
        *x = (cur / d as DoubleLimb) as Limb;
        rem = (cur % d as DoubleLimb) as Limb;
    }
    tally(a.len() as u64);
    normalize(a);
    rem
}

/// `acc += a << shift` in place (bit shift applied on the fly, no shifted
/// temporary); result normalized. This is the offset-add join primitive
/// behind base-`2^b` digit recombination.
pub fn add_shifted_assign_slices(acc: &mut Vec<Limb>, a: &[Limb], shift: u64) {
    if a.is_empty() {
        normalize(acc);
        return;
    }
    let limb_off = (shift / 64) as usize;
    let bit_off = (shift % 64) as u32;
    let needed = limb_off + a.len() + 1;
    if acc.len() < needed {
        acc.resize(needed, 0);
    }
    let mut carry: Limb = 0;
    let mut spill: Limb = 0; // bits shifted out of the previous source limb
    let mut k = limb_off;
    for &ai in a {
        let shifted = if bit_off == 0 {
            ai
        } else {
            (ai << bit_off) | spill
        };
        spill = if bit_off == 0 {
            0
        } else {
            ai >> (64 - bit_off)
        };
        let s = acc[k] as DoubleLimb + shifted as DoubleLimb + carry as DoubleLimb;
        acc[k] = s as Limb;
        carry = (s >> 64) as Limb;
        k += 1;
    }
    let s = acc[k] as DoubleLimb + spill as DoubleLimb + carry as DoubleLimb;
    acc[k] = s as Limb;
    carry = (s >> 64) as Limb;
    k += 1;
    let carry = propagate_carry(&mut acc[k..], carry);
    if carry != 0 {
        acc.push(carry);
    }
    tally(a.len() as u64 + 1);
    normalize(acc);
}

/// Extract the bit range `[lo, hi)` into a caller-provided buffer — the
/// digit-splitting primitive without the intermediate shifted `Vec` that
/// [`bits_range`] pays for. Result normalized.
pub fn bits_range_into(a: &[Limb], lo: u64, hi: u64, out: &mut Vec<Limb>) {
    assert!(lo <= hi);
    out.clear();
    let limb_off = (lo / 64) as usize;
    if limb_off >= a.len() || hi == lo {
        return;
    }
    let bit_off = (lo % 64) as u32;
    let width = hi - lo;
    let keep = (width.div_ceil(64) as usize).min(a.len() - limb_off);
    let src = &a[limb_off..];
    out.reserve(keep);
    for i in 0..keep {
        let lo_part = src[i] >> bit_off;
        let hi_part = if bit_off == 0 {
            0
        } else {
            src.get(i + 1).map_or(0, |&x| x << (64 - bit_off))
        };
        out.push(lo_part | hi_part);
    }
    let rem_bits = (width % 64) as u32;
    if rem_bits != 0 && out.len() as u64 == width.div_ceil(64) {
        if let Some(last) = out.last_mut() {
            *last &= (1u64 << rem_bits) - 1;
        }
    }
    tally(keep as u64);
    normalize(out);
}

/// `a * m` for a single limb multiplier; result normalized.
pub fn mul_limb(a: &[Limb], m: Limb) -> Vec<Limb> {
    if m == 0 || a.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(a.len() + 1);
    let mut carry: Limb = 0;
    for &ai in a {
        let t = ai as DoubleLimb * m as DoubleLimb + carry as DoubleLimb;
        out.push(t as Limb);
        carry = (t >> 64) as Limb;
    }
    if carry != 0 {
        out.push(carry);
    }
    tally(a.len() as u64);
    normalize(&mut out);
    out
}

/// Divide a magnitude by a single non-zero limb: returns `(quotient, remainder)`,
/// quotient normalized.
pub fn div_rem_limb(a: &[Limb], d: Limb) -> (Vec<Limb>, Limb) {
    assert!(d != 0, "division by zero limb");
    let mut q = vec![0 as Limb; a.len()];
    let mut rem: Limb = 0;
    for i in (0..a.len()).rev() {
        let cur = ((rem as DoubleLimb) << 64) | a[i] as DoubleLimb;
        q[i] = (cur / d as DoubleLimb) as Limb;
        rem = (cur % d as DoubleLimb) as Limb;
    }
    tally(a.len() as u64);
    normalize(&mut q);
    (q, rem)
}

/// Left shift by `bits`; result normalized.
pub fn shl_bits(a: &[Limb], bits: u64) -> Vec<Limb> {
    if a.is_empty() {
        return Vec::new();
    }
    let limb_shift = (bits / 64) as usize;
    let bit_shift = (bits % 64) as u32;
    let mut out = vec![0 as Limb; limb_shift];
    if bit_shift == 0 {
        out.extend_from_slice(a);
    } else {
        let mut carry: Limb = 0;
        for &ai in a {
            out.push((ai << bit_shift) | carry);
            carry = ai >> (64 - bit_shift);
        }
        if carry != 0 {
            out.push(carry);
        }
    }
    tally(a.len() as u64);
    normalize(&mut out);
    out
}

/// Logical right shift by `bits`; result normalized.
pub fn shr_bits(a: &[Limb], bits: u64) -> Vec<Limb> {
    let limb_shift = (bits / 64) as usize;
    if limb_shift >= a.len() {
        return Vec::new();
    }
    let bit_shift = (bits % 64) as u32;
    let src = &a[limb_shift..];
    let mut out = Vec::with_capacity(src.len());
    if bit_shift == 0 {
        out.extend_from_slice(src);
    } else {
        for i in 0..src.len() {
            let hi = if i + 1 < src.len() {
                src[i + 1] << (64 - bit_shift)
            } else {
                0
            };
            out.push((src[i] >> bit_shift) | hi);
        }
    }
    tally(src.len() as u64);
    normalize(&mut out);
    out
}

/// Extract the bit range `[lo, hi)` of a magnitude as a new normalized
/// magnitude (bits beyond the magnitude's length read as zero).
///
/// This is the primitive behind base-`2^b` digit splitting (Toom-Cook input
/// splitting, Alg. 1 line 4).
pub fn bits_range(a: &[Limb], lo: u64, hi: u64) -> Vec<Limb> {
    let mut out = Vec::new();
    bits_range_into(a, lo, hi, &mut out);
    out
}

/// Number of significant bits of a normalized magnitude (0 for zero).
pub fn bit_length(a: &[Limb]) -> u64 {
    match a.last() {
        None => 0,
        Some(&top) => (a.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = vec![u64::MAX, u64::MAX, 7];
        let b = vec![1, 0, u64::MAX];
        let s = add_slices(&a, &b);
        assert_eq!(sub_slices(&s, &b), a);
        assert_eq!(sub_slices(&s, &a), b);
    }

    #[test]
    fn add_carry_chain() {
        let a = vec![u64::MAX, u64::MAX];
        let s = add_slices(&a, &[1]);
        assert_eq!(s, vec![0, 0, 1]);
    }

    #[test]
    fn cmp_orders_by_length_then_lexicographic() {
        assert_eq!(cmp_slices(&[1, 2], &[5]), Ordering::Greater);
        assert_eq!(cmp_slices(&[9], &[1, 1]), Ordering::Less);
        assert_eq!(cmp_slices(&[3, 2], &[4, 2]), Ordering::Less);
        assert_eq!(cmp_slices(&[3, 2], &[3, 2]), Ordering::Equal);
    }

    #[test]
    fn schoolbook_small_products() {
        assert_eq!(mul_schoolbook(&[3], &[4]), vec![12]);
        assert_eq!(mul_schoolbook(&[], &[4]), Vec::<u64>::new());
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let p = mul_schoolbook(&[u64::MAX], &[u64::MAX]);
        assert_eq!(p, vec![1, u64::MAX - 1]);
    }

    #[test]
    fn mul_limb_matches_schoolbook() {
        let a = vec![0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 42];
        assert_eq!(mul_limb(&a, 12345), mul_schoolbook(&a, &[12345]));
    }

    #[test]
    fn div_rem_limb_inverts_mul() {
        let a = vec![0xdead_beef, 0xcafe_babe, 99];
        let m = 0x1234_5678_9abc_def1;
        let prod = mul_limb(&a, m);
        let (q, r) = div_rem_limb(&prod, m);
        assert_eq!(q, a);
        assert_eq!(r, 0);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = vec![0x8000_0000_0000_0001, 0xf0f0];
        for bits in [0u64, 1, 13, 64, 65, 130] {
            let up = shl_bits(&a, bits);
            assert_eq!(shr_bits(&up, bits), a, "bits={bits}");
        }
    }

    #[test]
    fn shr_to_zero() {
        assert_eq!(shr_bits(&[5], 3), Vec::<u64>::new());
        assert_eq!(shr_bits(&[5, 7], 200), Vec::<u64>::new());
    }

    #[test]
    fn bits_range_extracts_digits() {
        // value = 0b_1011_0110, digits of width 4: lo=0110, hi=1011
        let a = vec![0b1011_0110u64];
        assert_eq!(bits_range(&a, 0, 4), vec![0b0110]);
        assert_eq!(bits_range(&a, 4, 8), vec![0b1011]);
        assert_eq!(bits_range(&a, 8, 12), Vec::<u64>::new());
    }

    #[test]
    fn bits_range_across_limb_boundary() {
        let a = vec![u64::MAX, 0b101];
        assert_eq!(bits_range(&a, 60, 68), vec![0b0101_1111]);
    }

    #[test]
    fn bit_length_cases() {
        assert_eq!(bit_length(&[]), 0);
        assert_eq!(bit_length(&[1]), 1);
        assert_eq!(bit_length(&[u64::MAX]), 64);
        assert_eq!(bit_length(&[0, 1]), 65);
    }

    #[test]
    fn add_assign_matches_add_slices() {
        let cases: &[(Vec<Limb>, Vec<Limb>)] = &[
            (vec![], vec![]),
            (vec![], vec![7]),
            (vec![u64::MAX, u64::MAX], vec![1]),
            (vec![1], vec![u64::MAX, u64::MAX, u64::MAX]),
            (vec![5, 6, 7], vec![9, 10]),
        ];
        for (a, b) in cases {
            let mut acc = a.clone();
            add_assign_slices(&mut acc, b);
            assert_eq!(acc, add_slices(a, b), "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn sub_assign_reports_flip() {
        let mut acc = vec![3u64];
        assert!(sub_assign_slices(&mut acc, &[0, 1]));
        assert_eq!(acc, sub_slices(&[0, 1], &[3]));

        let mut acc = vec![0u64, 1];
        assert!(!sub_assign_slices(&mut acc, &[3]));
        assert_eq!(acc, sub_slices(&[0, 1], &[3]));

        let mut acc = vec![9u64, 4];
        assert!(!sub_assign_slices(&mut acc, &[9, 4]));
        assert_eq!(acc, Vec::<u64>::new());
    }

    #[test]
    fn mul_into_reuses_buffer() {
        let a = vec![u64::MAX; 5];
        let b = vec![u64::MAX; 3];
        let mut out = vec![0xdead_beefu64; 2]; // stale contents must vanish
        mul_into(&a, &b, &mut out);
        assert_eq!(out, mul_schoolbook(&a, &b));
        mul_into(&[], &b, &mut out);
        assert_eq!(out, Vec::<u64>::new());
    }

    #[test]
    fn mul_basecase_overwrites_dirty_buffer() {
        let a = vec![0x0123_4567_89ab_cdefu64, 0, u64::MAX];
        let b = vec![u64::MAX, 42];
        let mut out = vec![u64::MAX; a.len() + b.len()];
        mul_basecase(&a, &b, &mut out);
        let mut expect = mul_schoolbook(&a, &b);
        expect.resize(a.len() + b.len(), 0);
        assert_eq!(out, expect);
    }

    #[test]
    fn addmul_blocked_matches_schoolbook() {
        // Force multiple blocks with a long multiplicand.
        let a: Vec<Limb> = (0..7).map(|i| u64::MAX - i).collect();
        let b: Vec<Limb> = (0..(MUL_BLOCK_LIMBS as u64 + 9))
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
            .collect();
        let mut out = vec![0u64; a.len() + b.len()];
        addmul_slices(&a, &b, &mut out);
        normalize(&mut out);
        assert_eq!(out, mul_schoolbook(&a, &b));
    }

    #[test]
    fn mul_limb_into_and_assign_match() {
        let a = vec![u64::MAX, 0xcafe, u64::MAX];
        let m = 0x1234_5678_9abc_def1;
        let mut out = Vec::new();
        mul_limb_into(&a, m, &mut out);
        assert_eq!(out, mul_limb(&a, m));
        let mut v = a.clone();
        mul_limb_assign(&mut v, m);
        assert_eq!(v, out);
        mul_limb_assign(&mut v, 0);
        assert_eq!(v, Vec::<u64>::new());
    }

    #[test]
    fn div_rem_limb_assign_matches() {
        let a = vec![0xdead_beefu64, 0xcafe_babe, 99];
        let (q, r) = div_rem_limb(&a, 0x1234_5679);
        let mut v = a.clone();
        let r2 = div_rem_limb_assign(&mut v, 0x1234_5679);
        assert_eq!((v, r2), (q, r));
    }

    #[test]
    fn add_shifted_matches_shl_then_add() {
        let d = vec![0x8000_0000_0000_0001u64, 0xf0f0];
        for shift in [0u64, 1, 13, 64, 65, 130, 200] {
            let mut acc = vec![u64::MAX, u64::MAX, 3];
            let expect = add_slices(&acc, &shl_bits(&d, shift));
            add_shifted_assign_slices(&mut acc, &d, shift);
            assert_eq!(acc, expect, "shift={shift}");
        }
        // Empty digit is a no-op.
        let mut acc = vec![5u64];
        add_shifted_assign_slices(&mut acc, &[], 77);
        assert_eq!(acc, vec![5]);
    }

    #[test]
    fn bits_range_into_matches_shift_and_mask() {
        let a = vec![u64::MAX, 0b101, 0, 0xffff_0000_0000_0000];
        for (lo, hi) in [
            (0u64, 4u64),
            (60, 68),
            (64, 128),
            (13, 200),
            (250, 260),
            (300, 400),
            (7, 7),
        ] {
            // Independent reference: shift down, truncate, mask.
            let shifted = shr_bits(&a, lo);
            let width = hi - lo;
            let mut expect: Vec<Limb> = shifted
                .into_iter()
                .take(width.div_ceil(64) as usize)
                .collect();
            let rem = (width % 64) as u32;
            if rem != 0 && expect.len() as u64 == width.div_ceil(64) {
                if let Some(last) = expect.last_mut() {
                    *last &= (1u64 << rem) - 1;
                }
            }
            normalize(&mut expect);
            let mut out = vec![1u64; 3];
            bits_range_into(&a, lo, hi, &mut out);
            assert_eq!(out, expect, "[{lo},{hi})");
        }
    }

    #[test]
    fn propagate_carry_and_borrow_ripple() {
        let mut v = vec![u64::MAX, u64::MAX, 7];
        assert_eq!(propagate_carry(&mut v, 1), 0);
        assert_eq!(v, vec![0, 0, 8]);
        assert_eq!(propagate_borrow(&mut v, 1), 0);
        assert_eq!(v, vec![u64::MAX, u64::MAX, 7]);
        let mut w = vec![u64::MAX];
        assert_eq!(propagate_carry(&mut w, 1), 1);
    }
}
