//! Workload inputs drawn from the workload seed: operand sizes, operand
//! values, request bodies and the chaos seed. Nothing here reads the
//! program's own random sources, so the same seed gives the same inputs
//! on every build.

use crate::check::Checker;
use ft_bigint::{BigInt, Sign};

/// One megabit, as the kernel policy counts it (`ntt_min_bits` is 8 Mbit).
pub const MBIT: u64 = 1 << 20;

/// Pairs at or below this size are also checked exactly against
/// `mul_schoolbook`; above it only the modular check runs.
pub const EXACT_MAX_BITS: u64 = 16_384;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent seed for one purpose (operands, primes, chaos, …).
#[must_use]
pub fn derive(seed: u64, purpose: u64) -> u64 {
    splitmix64(seed ^ splitmix64(purpose))
}

/// The chaos seed of the faulted workload.
#[must_use]
pub fn chaos_seed(seed: u64) -> u64 {
    derive(seed, 0xc4a0)
}

/// SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    #[allow(clippy::cast_precision_loss)]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    #[allow(clippy::cast_possible_truncation)]
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// `n` sizes spread log-uniformly over `[lo, hi]`, one per stratum of
/// equal log width. With `jitter` each size is drawn uniformly inside its
/// stratum; without it each sits at its stratum's midpoint, so the sizes
/// are the same for every seed.
#[must_use]
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn log_sizes(rng: &mut Rng, lo: u64, hi: u64, n: usize, jitter: bool) -> Vec<u64> {
    let span = (hi as f64 / lo as f64).ln();
    (0..n)
        .map(|i| {
            let u = if jitter { rng.unit() } else { 0.5 };
            let bits = (lo as f64 * (span * (i as f64 + u) / n as f64).exp()).round() as u64;
            bits.clamp(lo, hi)
        })
        .collect()
}

/// A random operand of exactly `bits` bits with a random sign.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn operand(rng: &mut Rng, bits: u64) -> BigInt {
    let words = bits.div_ceil(64) as usize;
    let mut limbs: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
    let top_bits = bits - 64 * (words as u64 - 1);
    let top = &mut limbs[words - 1];
    if top_bits < 64 {
        *top &= (1u64 << top_bits) - 1;
    }
    *top |= 1u64 << (top_bits - 1);
    let sign = if rng.next_u64() & 1 == 1 {
        Sign::Negative
    } else {
        Sign::Positive
    };
    BigInt::from_sign_limbs(sign, limbs)
}

/// Canonical hex as the server prints it: `0x…` / `-0x…`, lowercase, no
/// leading zeros. Written here rather than taken from the program so the
/// request bodies do not depend on the code under test.
#[must_use]
pub fn hex(x: &BigInt) -> String {
    use std::fmt::Write;
    let limbs = x.limbs();
    let Some((top, rest)) = limbs.split_last() else {
        return "0x0".to_string();
    };
    let mut s = String::with_capacity(3 + 16 * limbs.len());
    if x.sign() == Sign::Negative {
        s.push('-');
    }
    let _ = write!(s, "0x{top:x}");
    for limb in rest.iter().rev() {
        let _ = write!(s, "{limb:016x}");
    }
    s
}

/// One operand pair with everything needed to check its product.
pub struct Pair {
    pub a: BigInt,
    pub b: BigInt,
    pub bits: u64,
    pub a_hex: String,
    pub b_hex: String,
    /// Residues of `a·b` modulo the run's check primes.
    pub residues: Vec<u64>,
    /// The exact product's hex, for pairs at or below [`EXACT_MAX_BITS`].
    pub exact: Option<String>,
}

impl Pair {
    #[must_use]
    pub fn new(rng: &mut Rng, bits: u64, checker: &Checker) -> Pair {
        let a = operand(rng, bits);
        let b = operand(rng, bits);
        let residues = checker.product_residues(&a, &b);
        let exact = (bits <= EXACT_MAX_BITS).then(|| hex(&a.mul_schoolbook(&b)));
        Pair {
            a_hex: hex(&a),
            b_hex: hex(&b),
            a,
            b,
            bits,
            residues,
            exact,
        }
    }
}

/// One HTTP exchange: a single `/v1/mul` or a `/v1/mul/batch`.
pub struct Request {
    pub path: &'static str,
    pub body: Vec<u8>,
    /// Indices into the stream's pairs, in slot order.
    pub pairs: Vec<usize>,
}

/// The operands one client stream cycles through.
pub struct StreamPlan {
    pub pairs: Vec<Pair>,
    pub requests: Vec<Request>,
}

impl StreamPlan {
    /// `n` pairs with log-uniform sizes over `[lo, hi]`, in a seeded
    /// order when `jitter` is set and in stratum order otherwise. With
    /// `batch_every = k > 0`, every `k`-th exchange is a 4-pair batch.
    #[must_use]
    pub fn new(
        rng: &mut Rng,
        checker: &Checker,
        (lo, hi): (u64, u64),
        n: usize,
        jitter: bool,
        batch_every: usize,
    ) -> StreamPlan {
        let mut sizes = log_sizes(rng, lo, hi, n, jitter);
        if jitter {
            for i in (1..sizes.len()).rev() {
                #[allow(clippy::cast_possible_truncation)]
                let j = rng.below(i as u64 + 1) as usize;
                sizes.swap(i, j);
            }
        }
        let pairs: Vec<Pair> = sizes
            .iter()
            .map(|&bits| Pair::new(rng, bits, checker))
            .collect();
        let mut requests = Vec::new();
        let mut next = 0;
        while next < pairs.len() {
            let batch = batch_every > 0 && requests.len() % batch_every == batch_every - 1;
            let take = if batch { 4.min(pairs.len() - next) } else { 1 };
            let ids: Vec<usize> = (next..next + take).collect();
            requests.push(request_for(&pairs, ids, batch));
            next += take;
        }
        StreamPlan { pairs, requests }
    }

    /// Fixed pairs at the given sizes, one exchange each, then one batch
    /// of the last `batch_of_last` pairs (when above 1). For the warm-up.
    #[must_use]
    pub fn fixed(sizes: &[u64], checker: &Checker, batch_of_last: usize) -> StreamPlan {
        let mut rng = Rng::new(derive(0, 0x3a7e));
        let pairs: Vec<Pair> = sizes
            .iter()
            .map(|&bits| Pair::new(&mut rng, bits, checker))
            .collect();
        let mut requests: Vec<Request> = (0..pairs.len())
            .map(|i| request_for(&pairs, vec![i], false))
            .collect();
        if batch_of_last > 1 {
            let ids = (pairs.len().saturating_sub(batch_of_last)..pairs.len()).collect();
            requests.push(request_for(&pairs, ids, true));
        }
        StreamPlan { pairs, requests }
    }
}

fn request_for(pairs: &[Pair], ids: Vec<usize>, batch: bool) -> Request {
    if batch {
        let items: Vec<String> = ids
            .iter()
            .map(|&i| format!("[\"{}\",\"{}\"]", pairs[i].a_hex, pairs[i].b_hex))
            .collect();
        Request {
            path: "/v1/mul/batch",
            body: format!("{{\"pairs\":[{}]}}", items.join(",")).into_bytes(),
            pairs: ids,
        }
    } else {
        let p = &pairs[ids[0]];
        Request {
            path: "/v1/mul",
            body: format!("{{\"a\":\"{}\",\"b\":\"{}\"}}", p.a_hex, p.b_hex).into_bytes(),
            pairs: ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_deterministic_in_the_seed() {
        let draw = |seed| log_sizes(&mut Rng::new(derive(seed, 1)), 256, 16_384, 64, true);
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let fixed = |seed| log_sizes(&mut Rng::new(seed), MBIT, 12 * MBIT, 8, false);
        assert_eq!(
            fixed(1),
            fixed(2),
            "midpoint sizes do not depend on the seed"
        );
        for bits in draw(3) {
            assert!((256..=16_384).contains(&bits));
        }
    }

    #[test]
    fn chaos_seed_is_deterministic_in_the_seed() {
        assert_eq!(chaos_seed(11), chaos_seed(11));
        assert_ne!(chaos_seed(11), chaos_seed(12));
    }

    #[test]
    fn operands_have_exact_bit_lengths_and_canonical_hex() {
        let mut rng = Rng::new(5);
        for bits in [1, 63, 64, 65, 2_048, 16_385] {
            let x = operand(&mut rng, bits);
            assert_eq!(x.bit_length(), bits);
            assert_eq!(hex(&x), x.to_hex());
        }
        assert_eq!(hex(&BigInt::zero()), BigInt::zero().to_hex());
    }

    #[test]
    fn every_eighth_exchange_is_a_batch_of_four() {
        let checker = Checker::new(1);
        let plan = StreamPlan::new(&mut Rng::new(2), &checker, (256, 1_024), 40, true, 8);
        let paths: Vec<&str> = plan.requests.iter().map(|r| r.path).collect();
        assert_eq!(paths[7], "/v1/mul/batch");
        assert_eq!(plan.requests[7].pairs.len(), 4);
        assert!(paths[..7].iter().all(|p| *p == "/v1/mul"));
        let covered: usize = plan.requests.iter().map(|r| r.pairs.len()).sum();
        assert_eq!(covered, 40);
    }
}
