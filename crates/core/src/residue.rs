//! The end-to-end product check: accept `c` as `a · b` only if
//! `a · b ≡ c` modulo two secret 61-bit primes.
//!
//! [`soft::verify_products`](crate::soft::verify_products) checks the
//! *internal* consistency of a redundant Toom-Cook evaluation; this module
//! checks the *end-to-end* result of any multiplication kernel, in `O(n)`
//! word operations against the superlinear multiply — the analogue of the
//! paper's §7 soft-fault verification, in the `o(1)` relative-overhead
//! spirit of its fault-tolerance bounds.
//!
//! ## The primes
//!
//! Two distinct primes `p, q` with `2^60 < p, q < 2^61` are drawn once per
//! process, on the first check, from std's `RandomState` (seeded by the
//! operating system) and a deterministic Miller–Rabin test. Nothing that
//! computes a product sees them, so a fault cannot be shaped to them.
//!
//! ## Soundness
//!
//! A wrong product `c = a·b + e`, `e ≠ 0`, passes only if both primes
//! divide `e`. Two cases:
//!
//! - **Deterministic.** Every error `e = c·2^j` with `0 < |c| < 2^120` is
//!   caught, whatever the primes: both are odd, and `p·q > 2^120 > |c|`.
//!   That covers every single-limb corruption (`|c| < 2^64`), and every
//!   multiple `c·(2^128 − 1)·2^{64i}` with `|c| < 2^64` — the deltas that
//!   fool a check modulo `2^64 ± 1` — because the largest prime factor of
//!   `2^128 − 1` has 46 bits.
//! - **Probabilistic.** An `n`-bit error has at most `n / 60` prime
//!   factors of 61 bits, among about `2^54.6` such primes, so an error
//!   that does not depend on the primes escapes with probability at most
//!   `(n · 2^−60.5)^2`: `2^−71` for a 32-Mbit error.
//!
//! ## Cost
//!
//! Each residue is a Montgomery (REDC) pass with `R = 2^64`: one limb
//! costs one low and one high word multiply per prime and no division.
//! One pass serves both primes, over two segments of the limbs run as
//! interleaved chains, so the multiplier is kept busy rather than
//! waiting on one chain.

use ft_bigint::BigInt;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// One check prime `p` and its Montgomery constants, for `R = 2^64`.
#[derive(Debug)]
struct Modulus {
    p: u64,
    /// `p^−1 mod 2^64`.
    inv: u64,
    /// `R mod p`: [`Modulus::mul`] by it leaves a value unchanged.
    one: u64,
    /// `pow[k] = R^{1 − 2^k} mod p`: [`Modulus::mul`] by it scales by
    /// `R^{−2^k}`.
    pow: [u64; 64],
}

impl Modulus {
    fn new(p: u64) -> Modulus {
        debug_assert!(p & 1 == 1 && p < 1 << 62);
        // Newton's iteration doubles the correct low bits of p^−1 each
        // step; p · p ≡ 1 (mod 8) gives the first three.
        let mut inv = p;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(inv)));
        }
        #[allow(clippy::cast_possible_truncation)] // the remainder is < p
        let one = ((1u128 << 64) % u128::from(p)) as u64;
        let mut m = Modulus {
            p,
            inv,
            one,
            pow: [0; 64],
        };
        let mut pow = 1; // R^{1 − 2^0}
        for k in 0..64 {
            m.pow[k] = pow;
            pow = m.mul(pow, pow);
        }
        m
    }

    /// `⌊m · p / 2^64⌋` for `m = lo · p^−1 mod 2^64`. Subtracting `m · p`
    /// from a value whose low word is `lo` clears that word exactly, so
    /// `(hi · 2^64 + lo) · R^−1 ≡ hi − cancel(lo) (mod p)`.
    #[inline(always)]
    fn cancel(&self, lo: u64) -> u64 {
        let m = lo.wrapping_mul(self.inv);
        #[allow(clippy::cast_possible_truncation)] // the high word
        let mp = ((u128::from(m) * u128::from(self.p)) >> 64) as u64;
        mp
    }

    /// `x · y · R^−1 mod p`, in `[0, p)` for `x, y < p`.
    fn mul(&self, x: u64, y: u64) -> u64 {
        let t = u128::from(x) * u128::from(y);
        #[allow(clippy::cast_possible_truncation)] // the two words of t
        let (hi, lo) = ((t >> 64) as u64, t as u64);
        self.reduce(hi + self.p - self.cancel(lo))
    }

    /// Feed the next limb up into a running value `y ≤ p + 1`:
    /// `(y + limb) · R^−1`, congruent mod p and again in `[1, p + 1]`.
    #[inline(always)]
    fn step(&self, y: u64, limb: u64) -> u64 {
        let (lo, carry) = limb.overflowing_add(y);
        u64::from(carry) + self.p - self.cancel(lo)
    }

    /// `y mod p`, for `y < 2p`.
    fn reduce(&self, y: u64) -> u64 {
        if y >= self.p {
            y - self.p
        } else {
            y
        }
    }

    /// The multiplier that scales by `R^−e`: `mul(x, shift(e)) = x · R^−e`.
    fn shift(&self, e: usize) -> u64 {
        let mut g = self.one;
        for (k, &pow) in self.pow.iter().enumerate() {
            if e >> k == 0 {
                break;
            }
            if (e >> k) & 1 == 1 {
                g = self.mul(g, pow);
            }
        }
        g
    }
}

/// The check for one pair of primes.
#[derive(Debug)]
struct Check {
    moduli: [Modulus; 2],
}

impl Check {
    fn new(p: u64, q: u64) -> Check {
        Check {
            moduli: [Modulus::new(p), Modulus::new(q)],
        }
    }

    /// `x · R^−n` modulo both primes, where `x` has `n` limbs.
    fn scaled(&self, x: &BigInt) -> [u64; 2] {
        // Both primes in one pass over two segments of `seg` limbs, the
        // lower one `n % 2` longer: four independent chains (more would
        // spill registers on x86-64). A chain over limbs [s, e) yields
        // Σ limb_i · R^{i − e}, so with the lower segment ending at
        // n − seg the two combine as y0 · R^−seg + y1.
        let limbs = x.limbs();
        let seg = limbs.len() / 2;
        let (low, s1) = limbs.split_at(limbs.len() - seg);
        let (head, s0) = low.split_at(low.len() - seg);
        let [m, n] = &self.moduli;
        let (mut y0, mut z0) = (0, 0);
        for &limb in head {
            y0 = m.step(y0, limb);
            z0 = n.step(z0, limb);
        }
        let (mut y1, mut z1) = (0, 0);
        for (&l0, &l1) in s0.iter().zip(s1) {
            y0 = m.step(y0, l0);
            z0 = n.step(z0, l0);
            y1 = m.step(y1, l1);
            z1 = n.step(z1, l1);
        }
        [(m, y0, y1), (n, z0, z1)].map(|(m, y0, y1)| {
            let r = m.reduce(m.mul(m.reduce(y0), m.shift(seg)) + m.reduce(y1));
            if x.is_negative() && r != 0 {
                m.p - r
            } else {
                r
            }
        })
    }

    /// `true` when `c ≡ a · b` modulo both primes.
    fn verify(&self, a: &BigInt, b: &BigInt, c: &BigInt) -> bool {
        let (na, nb, nc) = (a.word_len(), b.word_len(), c.word_len());
        if nc > na + nb {
            return false; // |c| ≥ 2^{64(na+nb)} > |a · b|
        }
        let (ra, rb, rc) = (self.scaled(a), self.scaled(b), self.scaled(c));
        // a·R^−na · b·R^−nb · R^−1 against c·R^−nc · R^−(na+nb+1−nc).
        let shift = na + nb + 1 - nc;
        self.moduli
            .iter()
            .enumerate()
            .all(|(i, m)| m.mul(ra[i], rb[i]) == m.mul(rc[i], m.shift(shift)))
    }
}

/// The process's check, drawing its two primes on first use.
fn process_check() -> &'static Check {
    static CHECK: OnceLock<Check> = OnceLock::new();
    CHECK.get_or_init(|| {
        let state = RandomState::new();
        let mut draw = 0u64;
        let mut prime = || loop {
            let mut hasher = state.build_hasher();
            hasher.write_u64(draw);
            draw += 1;
            let candidate = (hasher.finish() >> 3) | (1 << 60) | 1;
            if is_prime(candidate) {
                break candidate;
            }
        };
        let p = prime();
        let q = loop {
            let q = prime();
            if q != p {
                break q;
            }
        };
        Check::new(p, q)
    })
}

/// `a · b mod n`.
fn mul_mod(a: u64, b: u64, n: u64) -> u64 {
    #[allow(clippy::cast_possible_truncation)] // the remainder is < n
    let r = (u128::from(a) * u128::from(b) % u128::from(n)) as u64;
    r
}

/// Deterministic Miller–Rabin: exact for every 64-bit `n` with the first
/// twelve primes as bases.
fn is_prime(n: u64) -> bool {
    const BASES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    if n < 2 {
        return false;
    }
    if let Some(&p) = BASES.iter().find(|&&p| n.is_multiple_of(p)) {
        return n == p;
    }
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    BASES.iter().all(|&base| {
        let mut x = 1;
        let (mut power, mut e) = (base, d);
        while e > 0 {
            if e & 1 == 1 {
                x = mul_mod(x, power, n);
            }
            power = mul_mod(power, power, n);
            e >>= 1;
        }
        if x == 1 || x == n - 1 {
            return true;
        }
        (1..s).any(|_| {
            x = mul_mod(x, x, n);
            x == n - 1
        })
    })
}

/// Check `product == a · b` modulo the process's two secret primes.
/// `true` means the product is consistent; see the module docs for which
/// errors are always caught and the escape bound for the rest.
#[must_use]
pub fn verify_product(a: &BigInt, b: &BigInt, product: &BigInt) -> bool {
    process_check().verify(a, b, product)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_bigint::Sign;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big_u128(v: u128) -> BigInt {
        #[allow(clippy::cast_possible_truncation)]
        BigInt::from_sign_limbs(Sign::Positive, vec![v as u64, (v >> 64) as u64])
    }

    /// `x mod p` for each process prime, from the check's scaled residues.
    fn residues(x: &BigInt) -> [BigInt; 2] {
        let check = process_check();
        let scaled = check.scaled(x);
        let shift = 64 * x.word_len() as u64;
        std::array::from_fn(|i| {
            let p = BigInt::from(check.moduli[i].p);
            (&BigInt::from(scaled[i]) << shift).mod_floor(&p)
        })
    }

    fn assert_residues_match(x: &BigInt) {
        let check = process_check();
        for (m, r) in check.moduli.iter().zip(residues(x)) {
            assert_eq!(r, x.mod_floor(&BigInt::from(m.p)), "x = {x:?}");
        }
    }

    /// One operand for the boundary tests: ~half the draws are forced
    /// onto a limb or segment edge (zero, all-ones words, exact powers
    /// of 2^64 and their negations, odd and even limb counts across the
    /// two-segment split); the rest are random.
    fn boundary_operand(choice: usize, rng: &mut StdRng) -> BigInt {
        let limbs = 1 + (choice / 16) % 9;
        match choice % 8 {
            0 => BigInt::zero(),
            1 => BigInt::from_sign_limbs(Sign::Positive, vec![u64::MAX; limbs]),
            2 => -BigInt::from_sign_limbs(Sign::Positive, vec![u64::MAX; limbs]),
            3 => {
                // Exactly 2^{64·limbs}.
                let mut v = vec![0; limbs + 1];
                v[limbs] = 1;
                BigInt::from_sign_limbs(Sign::Positive, v)
            }
            4 => {
                let mut v = vec![0; limbs + 1];
                v[limbs] = 1;
                -BigInt::from_sign_limbs(Sign::Positive, v)
            }
            5 => &BigInt::from_sign_limbs(Sign::Positive, vec![u64::MAX; limbs]) + &BigInt::one(),
            6 => BigInt::from_sign_limbs(Sign::Positive, vec![1, 1]), // 2^64 + 1
            _ => BigInt::random_signed_bits(rng, 1 + (choice as u64) % 700),
        }
    }

    #[test]
    fn residues_match_mod_floor() {
        let mut rng = StdRng::seed_from_u64(1);
        for bits in [0u64, 1, 63, 64, 65, 128, 255, 256, 257, 500, 4_000] {
            assert_residues_match(&BigInt::random_signed_bits(&mut rng, bits));
        }
        for choice in 0..144 {
            assert_residues_match(&boundary_operand(choice, &mut rng));
        }
        for m in &process_check().moduli {
            for v in [m.p - 1, m.p, m.p + 1, 2 * m.p, u64::MAX] {
                assert_residues_match(&BigInt::from(v));
                assert_residues_match(&-BigInt::from(v));
            }
        }
    }

    #[test]
    fn the_primes_are_distinct_61_bit_and_prime() {
        let [m, n] = &process_check().moduli;
        assert_ne!(m.p, n.p);
        for m in [m, n] {
            assert_eq!(64 - m.p.leading_zeros(), 61, "{}", m.p);
            assert!(is_prime(m.p), "{}", m.p);
            assert_eq!(m.p.wrapping_mul(m.inv), 1);
        }
        // The draw happens once per process.
        assert!(std::ptr::eq(process_check(), process_check()));
    }

    #[test]
    fn miller_rabin_agrees_with_trial_division() {
        let trial = |n: u64| {
            n >= 2
                && (2..)
                    .take_while(|d| d * d <= n)
                    .all(|d| !n.is_multiple_of(d))
        };
        for n in (0..5_000).chain(1_000_000_000..1_000_002_000) {
            assert_eq!(is_prime(n), trial(n), "{n}");
        }
        // Strong pseudoprimes to the first bases, and 2^61 − 1.
        for n in [
            2_047u64,
            1_373_653,
            25_326_001,
            3_215_031_751,
            3_825_123_056_546_413_051,
        ] {
            assert!(!is_prime(n), "{n}");
        }
        assert!(is_prime((1 << 61) - 1));
    }

    #[test]
    fn montgomery_helpers_match_bigint_arithmetic() {
        let m = &process_check().moduli[0];
        let p = BigInt::from(m.p);
        let r_inv = |e: u32| {
            // R^−e mod p, as the inverse of R^e by Fermat.
            let r_e = (&BigInt::one() << (64 * u64::from(e))).mod_floor(&p);
            let mut acc = BigInt::one();
            for bit in (0..64).rev() {
                acc = (&acc * &acc).mod_floor(&p);
                if ((m.p - 2) >> bit) & 1 == 1 {
                    acc = (&acc * &r_e).mod_floor(&p);
                }
            }
            acc
        };
        for (x, y) in [(0, 0), (1, 1), (m.p - 1, m.p - 1), (m.p / 3, 12_345)] {
            let want = (&(&BigInt::from(x) * &BigInt::from(y)) * &r_inv(1)).mod_floor(&p);
            assert_eq!(BigInt::from(m.mul(x, y)), want, "{x}·{y}");
        }
        for e in [0u32, 1, 2, 5, 64, 1_000] {
            let want = (&BigInt::from(12_345u64) * &r_inv(e)).mod_floor(&p);
            assert_eq!(
                BigInt::from(m.mul(12_345, m.shift(e as usize))),
                want,
                "{e}"
            );
        }
    }

    #[test]
    fn true_products_verify() {
        let mut rng = StdRng::seed_from_u64(2);
        for bits in [1u64, 100, 2_000, 20_000] {
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            assert!(verify_product(&a, &b, &a.mul_schoolbook(&b)), "bits={bits}");
        }
        assert!(verify_product(
            &BigInt::zero(),
            &BigInt::one(),
            &BigInt::zero()
        ));
        assert!(!verify_product(
            &BigInt::zero(),
            &BigInt::one(),
            &BigInt::one()
        ));
    }

    #[test]
    fn every_single_limb_bit_flip_is_caught() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = BigInt::random_bits(&mut rng, 700);
        let b = BigInt::random_bits(&mut rng, 700);
        let product = a.mul_schoolbook(&b);
        for limb in 0..product.word_len() {
            for bit in (0..64).step_by(7) {
                let mut limbs = product.limbs().to_vec();
                limbs[limb] ^= 1u64 << bit;
                let corrupt = BigInt::from_sign_limbs(Sign::Positive, limbs);
                assert!(
                    !verify_product(&a, &b, &corrupt),
                    "flip limb {limb} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn wrong_sign_and_off_by_one_are_caught() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = BigInt::random_bits(&mut rng, 300);
        let b = BigInt::random_bits(&mut rng, 300);
        let product = a.mul_schoolbook(&b);
        assert!(!verify_product(&a, &b, &-product.clone()));
        assert!(!verify_product(&a, &b, &(&product + &BigInt::one())));
        // A product one limb too long is wrong whatever its residues.
        let long = &product + &(&BigInt::one() << (64 * (a.word_len() + b.word_len()) as u64));
        assert!(!verify_product(&a, &b, &long));
    }

    #[test]
    fn boundary_operands_and_signed_products_verify() {
        let pool = [
            BigInt::zero(),
            BigInt::one(),
            -BigInt::one(),
            BigInt::from(u64::MAX),
            -BigInt::from(u64::MAX),
            BigInt::from_sign_limbs(Sign::Positive, vec![0, 1]),
            -BigInt::from_sign_limbs(Sign::Positive, vec![0, 1]),
            BigInt::from_sign_limbs(Sign::Positive, vec![1, 1]),
            -BigInt::from_sign_limbs(Sign::Positive, vec![1, 1]),
        ];
        for a in &pool {
            for b in &pool {
                let product = a.mul_schoolbook(b);
                assert!(verify_product(a, b, &product), "true {a:?}·{b:?}");
                assert!(
                    !verify_product(a, b, &(&product + &BigInt::one())),
                    "off-by-one {a:?}·{b:?}"
                );
                // Every prime factor of these products is below 2^46, so
                // a sign flip (the delta −2·product) is always caught —
                // including (2^64 − 1)(2^64 + 1) = 2^128 − 1, which a
                // check modulo 2^64 ± 1 cannot see.
                if !product.is_zero() {
                    assert!(
                        !verify_product(a, b, &-product.clone()),
                        "sign flip {a:?}·{b:?}"
                    );
                }
            }
        }
    }

    /// The secret is what makes the check sound: a check keyed to two
    /// fixed public primes accepts a delta equal to their product, which
    /// the process's own check rejects.
    #[test]
    fn a_delta_built_for_known_primes_fools_only_their_check() {
        let own = process_check();
        let mut public = (1..1 << 20)
            .map(|i| (1u64 << 61) - i)
            .filter(|&p| is_prime(p) && own.moduli.iter().all(|m| m.p != p));
        let (p, q) = (public.next().unwrap(), public.next().unwrap());
        let fixed = Check::new(p, q);
        let mut rng = StdRng::seed_from_u64(5);
        let a = BigInt::random_signed_bits(&mut rng, 3_000);
        let b = BigInt::random_signed_bits(&mut rng, 3_000);
        let product = a.mul_schoolbook(&b);
        let corrupt = &product + &(&BigInt::from(p) * &BigInt::from(q));
        assert!(fixed.verify(&a, &b, &product));
        assert!(
            fixed.verify(&a, &b, &corrupt),
            "the known primes are fooled"
        );
        assert!(!verify_product(&a, &b, &corrupt), "the secret ones are not");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every error `c · 2^j` with `0 < |c| < 2^120` is rejected: both
        /// primes are odd and their product exceeds `|c|`.
        #[test]
        fn every_short_shifted_error_is_rejected(
            seed in any::<u64>(),
            c_lo in any::<u64>(),
            c_hi in 0u64..1 << 56,
            negative in any::<bool>(),
            shift in 0u64..2_500,
            bits in 0u64..2_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            let product = a.mul_schoolbook(&b);
            let c = (u128::from(c_hi) << 64 | u128::from(c_lo)).max(1);
            let delta = &big_u128(c) << shift;
            let corrupt = if negative { &product - &delta } else { &product + &delta };
            prop_assert!(!verify_product(&a, &b, &corrupt));
        }

        /// The deltas `c · 2^{64i} · (2^128 − 1)`, which preserve both
        /// residues modulo `2^64 ± 1`, are all rejected: no prime factor
        /// of `2^128 − 1` has 61 bits, and `|c| < 2^64`.
        #[test]
        fn residue_evading_corruptions_are_rejected(
            seed in any::<u64>(),
            c in 1u64..=u64::MAX,
            shift in 0usize..6,
            bits in 64u64..2_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = BigInt::random_signed_bits(&mut rng, bits);
            let b = BigInt::random_signed_bits(&mut rng, bits);
            let product = a.mul_schoolbook(&b);
            // c · 2^{64·shift} · (2^128 − 1) = (c << 64(shift+2)) − (c << 64·shift)
            let mut hi = vec![0u64; shift + 2];
            hi.push(c);
            let mut lo = vec![0u64; shift];
            lo.push(c);
            let delta = &BigInt::from_sign_limbs(Sign::Positive, hi)
                - &BigInt::from_sign_limbs(Sign::Positive, lo);
            let corrupt = &product + &delta;
            prop_assert!(corrupt != product, "delta must be nonzero");
            prop_assert!(!verify_product(&a, &b, &corrupt));
        }

        /// Residues of boundary-forced operands agree with `mod_floor`,
        /// their true products verify, and single-limb corruptions and
        /// sign flips of those products are always caught.
        #[test]
        fn boundary_residues_agree_with_mod_floor(
            seed in any::<u64>(),
            choice_a in 0usize..144,
            choice_b in 0usize..144,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = boundary_operand(choice_a, &mut rng);
            let b = boundary_operand(choice_b, &mut rng);
            let check = process_check();
            for x in [&a, &b] {
                for (m, r) in check.moduli.iter().zip(residues(x)) {
                    prop_assert_eq!(r, x.mod_floor(&BigInt::from(m.p)));
                }
            }
            let product = a.mul_schoolbook(&b);
            prop_assert!(verify_product(&a, &b, &product));
            prop_assert!(!verify_product(&a, &b, &(&product + &BigInt::one())));
            if !product.is_zero() {
                prop_assert!(!verify_product(&a, &b, &-product.clone()));
                let limb = choice_a % product.word_len();
                let bit = choice_b % 64;
                let mut limbs = product.limbs().to_vec();
                limbs[limb] ^= 1u64 << bit;
                let corrupt = BigInt::from_sign_limbs(product.sign(), limbs);
                prop_assert!(
                    !verify_product(&a, &b, &corrupt),
                    "flip limb {} bit {} slipped through", limb, bit
                );
            }
        }
    }
}
