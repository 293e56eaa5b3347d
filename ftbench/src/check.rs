//! The benchmark's own product check, independent of the program's
//! verification ladder: reduce `a`, `b` and the served product modulo a
//! few ~61-bit primes drawn per run and check `a·b ≡ c` for each. A wrong
//! product passes one prime only if the prime divides the error, which
//! for an n-bit error happens with probability about n·2^-60.

use crate::gen::{derive, Rng};
use ft_bigint::{BigInt, Sign};

const PRIMES: usize = 3;

fn mul_mod(a: u64, b: u64, p: u64) -> u64 {
    #[allow(clippy::cast_possible_truncation)] // result < p
    let r = (u128::from(a) * u128::from(b) % u128::from(p)) as u64;
    r
}

fn pow_mod(mut base: u64, mut exp: u64, p: u64) -> u64 {
    let mut acc = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, p);
        }
        base = mul_mod(base, base, p);
        exp >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin for 64-bit `n`.
#[must_use]
pub fn is_prime(n: u64) -> bool {
    const BASES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    if n < 2 {
        return false;
    }
    for p in BASES {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    'bases: for a in BASES {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'bases;
            }
        }
        return false;
    }
    true
}

/// The run's check primes.
pub struct Checker {
    primes: [u64; PRIMES],
}

impl Checker {
    /// Draw the primes from the workload seed.
    #[must_use]
    pub fn new(seed: u64) -> Checker {
        let mut rng = Rng::new(derive(seed, 0x9a11));
        let mut primes = [0; PRIMES];
        for p in &mut primes {
            *p = loop {
                let candidate = (rng.next_u64() >> 3) | (1 << 60) | 1;
                if is_prime(candidate) {
                    break candidate;
                }
            };
        }
        Checker { primes }
    }

    fn signed(&self, i: usize, r: u64, negative: bool) -> u64 {
        if negative && r != 0 {
            self.primes[i] - r
        } else {
            r
        }
    }

    fn residues(&self, x: &BigInt) -> [u64; PRIMES] {
        let mut out = [0; PRIMES];
        for (i, &p) in self.primes.iter().enumerate() {
            let mut r = 0u64;
            for &limb in x.limbs().iter().rev() {
                #[allow(clippy::cast_possible_truncation)] // result < p
                let next = (((u128::from(r)) << 64 | u128::from(limb)) % u128::from(p)) as u64;
                r = next;
            }
            out[i] = self.signed(i, r, x.sign() == Sign::Negative);
        }
        out
    }

    /// Residues `a·b mod p` for each prime, computed from the operands.
    #[must_use]
    pub fn product_residues(&self, a: &BigInt, b: &BigInt) -> Vec<u64> {
        let (ra, rb) = (self.residues(a), self.residues(b));
        (0..PRIMES)
            .map(|i| mul_mod(ra[i], rb[i], self.primes[i]))
            .collect()
    }

    /// Residues of a `0x…` / `-0x…` literal, or `None` if it is not one.
    #[must_use]
    pub fn hex_residues(&self, text: &str) -> Option<Vec<u64>> {
        let (negative, digits) = match text.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, text),
        };
        let digits = digits.strip_prefix("0x")?.as_bytes();
        if digits.is_empty() {
            return None;
        }
        let mut acc = [0u64; PRIMES];
        // 15 hex digits (60 bits) per step keeps `acc << 60` inside u128.
        let head = digits.len() % 15;
        let chunks = std::iter::once(&digits[..head]).chain(digits[head..].chunks(15));
        for chunk in chunks.filter(|c| !c.is_empty()) {
            let mut v = 0u64;
            for &c in chunk {
                let d = (c as char).to_digit(16)?;
                v = v << 4 | u64::from(d);
            }
            let shift = 4 * chunk.len() as u32;
            for (i, &p) in self.primes.iter().enumerate() {
                #[allow(clippy::cast_possible_truncation)] // result < p
                let next = ((u128::from(acc[i]) << shift | u128::from(v)) % u128::from(p)) as u64;
                acc[i] = next;
            }
        }
        Some(
            (0..PRIMES)
                .map(|i| self.signed(i, acc[i], negative))
                .collect(),
        )
    }

    /// Does the served `product` literal match the pair's residues?
    #[must_use]
    pub fn matches(&self, product: &str, residues: &[u64]) -> bool {
        self.hex_residues(product).as_deref() == Some(residues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{hex, operand};

    #[test]
    fn primes_are_61_bit_and_prime() {
        let c = Checker::new(3);
        for p in c.primes {
            assert!(is_prime(p));
            assert_eq!(64 - p.leading_zeros(), 61);
        }
        assert!(is_prime(2_305_843_009_213_693_951)); // 2^61 - 1
        assert!(!is_prime(2_305_843_009_213_693_953));
    }

    #[test]
    fn accepts_the_product_and_rejects_a_one_bit_flip() {
        let checker = Checker::new(9);
        let mut rng = Rng::new(4);
        for bits in [64, 300, 5_000, 70_000] {
            let (a, b) = (operand(&mut rng, bits), operand(&mut rng, bits));
            let want = checker.product_residues(&a, &b);
            let product = a.mul_schoolbook(&b);
            assert!(checker.matches(&hex(&product), &want));
            for bit in [0, 63, 64, bits, 2 * bits - 1] {
                let mut limbs = product.limbs().to_vec();
                limbs[(bit / 64) as usize] ^= 1 << (bit % 64);
                let flipped = BigInt::from_sign_limbs(product.sign(), limbs);
                assert!(
                    !checker.matches(&hex(&flipped), &want),
                    "bit {bit} of {bits}"
                );
            }
            assert!(
                !checker.matches(&hex(&-product.clone()), &want),
                "sign flip"
            );
        }
    }

    #[test]
    fn rejects_malformed_literals() {
        let checker = Checker::new(1);
        assert!(checker.hex_residues("0x").is_none());
        assert!(checker.hex_residues("12").is_none());
        assert!(checker.hex_residues("0xzz").is_none());
        assert_eq!(checker.hex_residues("0x0"), Some(vec![0; PRIMES]));
    }
}
