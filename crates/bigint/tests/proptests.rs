//! Property-based tests: ring axioms, division invariants, radix and digit
//! round-trips — checked against both `i128` reference semantics and
//! self-consistency on arbitrarily large values.

use ft_bigint::{ops, BigInt, Sign};
use proptest::collection::vec;
use proptest::prelude::*;

/// Arbitrary signed big integer up to ~4 limbs.
fn bigint() -> impl Strategy<Value = BigInt> {
    (any::<Vec<u64>>(), any::<bool>()).prop_map(|(mut limbs, neg)| {
        limbs.truncate(4);
        let v = BigInt::from_limbs(limbs);
        if neg {
            -v
        } else {
            v
        }
    })
}

/// Larger integers (up to ~16 limbs) for stress paths.
fn bigint_wide() -> impl Strategy<Value = BigInt> {
    (
        proptest::collection::vec(any::<u64>(), 0..16),
        any::<bool>(),
    )
        .prop_map(|(limbs, neg)| {
            let v = BigInt::from_limbs(limbs);
            if neg {
                -v
            } else {
                v
            }
        })
}

/// `limbs` as a magnitude with a random sign.
fn signed(limbs: impl Strategy<Value = Vec<u64>>) -> impl Strategy<Value = BigInt> {
    (limbs, any::<bool>()).prop_map(|(limbs, neg)| {
        let v = BigInt::from_limbs(limbs);
        if neg {
            -v
        } else {
            v
        }
    })
}

/// Chars for arbitrary parser input, digits weighted up.
const ALPHABET: &str = "010101278899afAFcE__-+ gGxz.\t\u{e9}\u{1F600}\u{663}\u{ff10}";

/// The parser as it was before the table-driven codec, kept as the
/// reference: `chars()` and `to_digit` into a digit vector, then a
/// `rchunks` fold for radix 2 and 16 and the quadratic `mag·10^k + chunk`
/// loop for radix 10. Errors are compared by their `Display` text.
fn reference_parse(s: &str, radix: u32) -> Result<BigInt, String> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let empty = || "empty string is not a valid integer".to_string();
    if body.is_empty() {
        return Err(empty());
    }
    let mut digits = Vec::new();
    for c in body.chars().filter(|&c| c != '_') {
        let d = c
            .to_digit(radix)
            .ok_or_else(|| format!("invalid digit {c:?}"))?;
        digits.push(u64::from(d));
    }
    if digits.is_empty() {
        return Err(empty());
    }
    let mag = if radix == 10 {
        let mut mag = Vec::new();
        for chunk in digits.chunks(19) {
            let value = chunk.iter().fold(0, |acc, &d| acc * 10 + d);
            let scaled = ops::mul_limb(&mag, 10u64.pow(chunk.len() as u32));
            mag = ops::add_slices(&scaled, &[value]);
        }
        mag
    } else {
        let bits = radix.trailing_zeros();
        digits
            .rchunks((64 / bits) as usize)
            .map(|chunk| chunk.iter().fold(0, |acc, &d| (acc << bits) | d))
            .collect()
    };
    let v = BigInt::from_limbs(mag);
    Ok(if neg { -v } else { v })
}

/// `to_hex` as it was before the table-driven codec: one `format!` per
/// limb.
fn reference_hex(a: &BigInt) -> String {
    let Some((top, rest)) = a.limbs().split_last() else {
        return "0x0".to_string();
    };
    let mut s = format!("{}0x{top:x}", if a.is_negative() { "-" } else { "" });
    for limb in rest.iter().rev() {
        s.push_str(&format!("{limb:016x}"));
    }
    s
}

/// Word-op budget for parsing 200,000 decimal digits (10,381 limbs). The
/// split parse reads 15.1M; the chunk loop alone, 109M.
const DECIMAL_PARSE_BUDGET: u64 = 30_000_000;

#[test]
fn decimal_parse_cost_is_subquadratic() {
    let digits: String = (0..200_000u64)
        .map(|i| char::from(b'0' + ((i * 7 + i / 13) % 10) as u8))
        .collect();
    let (fast, ops) = ft_bigint::metrics::measure(|| BigInt::from_str_radix(&digits, 10));
    let (slow, slow_ops) = ft_bigint::metrics::measure(|| reference_parse(&digits, 10));
    assert_eq!(fast.map_err(|e| e.to_string()), slow);
    assert!(ops < DECIMAL_PARSE_BUDGET, "split parse: {ops} word ops");
    assert!(
        slow_ops > DECIMAL_PARSE_BUDGET,
        "chunk loop: {slow_ops} word ops"
    );
}

proptest! {
    #[test]
    fn i128_addition_model(a in any::<i64>(), b in any::<i64>()) {
        let (x, y) = (BigInt::from(a), BigInt::from(b));
        prop_assert_eq!(&x + &y, BigInt::from(a as i128 + b as i128));
        prop_assert_eq!(&x - &y, BigInt::from(a as i128 - b as i128));
        prop_assert_eq!(&x * &y, BigInt::from(a as i128 * b as i128));
    }

    #[test]
    fn i128_division_model(a in any::<i64>(), b in any::<i64>().prop_filter("nonzero", |v| *v != 0)) {
        let (q, r) = BigInt::from(a).div_rem(&BigInt::from(b));
        prop_assert_eq!(q, BigInt::from(a as i128 / b as i128));
        prop_assert_eq!(r, BigInt::from(a as i128 % b as i128));
    }

    #[test]
    fn add_commutes(a in bigint(), b in bigint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in bigint(), b in bigint(), c in bigint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutes(a in bigint(), b in bigint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_associates(a in bigint(), b in bigint(), c in bigint()) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn mul_distributes(a in bigint(), b in bigint(), c in bigint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_is_add_neg(a in bigint(), b in bigint()) {
        prop_assert_eq!(&a - &b, &a + &(-&b));
        prop_assert!((&a - &a).is_zero());
    }

    #[test]
    fn division_invariant(a in bigint_wide(), b in bigint().prop_filter("nonzero", |v| !v.is_zero())) {
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(&(&q * &b) + &r, a.clone());
        prop_assert!(r.cmp_abs(&b) == std::cmp::Ordering::Less);
        // sign(r) == sign(a) or r == 0 (truncated division)
        prop_assert!(r.is_zero() || r.signum() == a.signum());
    }

    #[test]
    fn exact_division_of_products(a in bigint_wide(), b in bigint().prop_filter("nonzero", |v| !v.is_zero())) {
        let p = &a * &b;
        prop_assert_eq!(p.div_exact(&b), a);
    }

    #[test]
    fn decimal_roundtrip(
        a in signed(vec(any::<u64>(), 0..160)),
        zeros in 0usize..700,
        separator in 0usize..2_000,
    ) {
        // Up to ~3,000 digits, so most cases cross the split size, and up
        // to 700 leading zeros, so some split off an all-zero high part.
        let s = a.to_string();
        prop_assert_eq!(s.parse::<BigInt>().unwrap(), a.clone());
        let (sign, digits) = s.split_at(usize::from(a.is_negative()));
        let mut text = format!("{sign}{}{digits}", "0".repeat(zeros));
        text.insert(sign.len() + separator % (text.len() - sign.len() + 1), '_');
        prop_assert_eq!(BigInt::from_str_radix(&text, 10), Ok(a.clone()));
        prop_assert_eq!(reference_parse(&text, 10), Ok(a));
    }

    #[test]
    fn hex_roundtrip(
        limbs in vec(any::<u64>(), 0..16),
        top_shift in 0u32..64,
        neg in any::<bool>(),
        style in any::<u64>(),
        zeros in 0usize..20,
    ) {
        // Shifting the top limb leaves it with leading zero nibbles and
        // the text with every digit count, odd ones included.
        let mut limbs = limbs;
        if let Some(top) = limbs.last_mut() {
            *top >>= top_shift;
        }
        let magnitude = BigInt::from_limbs(limbs);
        let a = if neg { -&magnitude } else { magnitude };
        let hex = a.to_hex();
        prop_assert_eq!(&hex, &reference_hex(&a));
        let mut appended = b"{\"product\":\"".to_vec();
        a.write_hex(&mut appended);
        prop_assert_eq!(&appended[12..], hex.as_bytes());
        prop_assert_eq!(format!("{a:#x}"), hex.clone());
        prop_assert_eq!(format!("{a:x}"), hex.replacen("0x", "", 1));
        prop_assert_eq!(hex.parse::<BigInt>().unwrap(), a.clone());

        // The same value in the spellings the parser accepts: `+`,
        // leading zeros, upper case, `_` anywhere, surrounding space.
        let digits = hex.trim_start_matches('-').trim_start_matches("0x");
        let mut bits = style | 1;
        let mut next = || {
            bits ^= bits << 13;
            bits ^= bits >> 7;
            bits ^= bits << 17;
            bits
        };
        let mut text = String::from(if neg { "-" } else if style & 1 == 0 { "+" } else { "" });
        for c in "0".repeat(zeros).chars().chain(digits.chars()) {
            let r = next();
            if r & 3 == 0 {
                text.push('_');
            }
            text.push(if r & 4 == 0 { c.to_ascii_uppercase() } else { c });
        }
        if style & 2 == 0 {
            text = format!(" {text}_\n");
        }
        prop_assert_eq!(BigInt::from_str_radix(&text, 16), Ok(a.clone()));
        prop_assert_eq!(reference_parse(&text, 16), Ok(a));
    }

    #[test]
    fn parsers_match_the_reference_on_any_text(
        picks in vec(0usize..ALPHABET.chars().count(), 0..48),
        radix in 0usize..3,
    ) {
        // Mostly digits of every radix, with `_`, signs, space, bytes no
        // radix accepts and non-ASCII chars mixed in: empty and `_`-only
        // bodies, a bad char anywhere, and long valid runs.
        let radix = [2, 10, 16][radix];
        let alphabet: Vec<char> = ALPHABET.chars().collect();
        let text: String = picks.iter().map(|&i| alphabet[i]).collect();
        let got = BigInt::from_str_radix(&text, radix).map_err(|e| e.to_string());
        prop_assert_eq!(got, reference_parse(&text, radix), "{:?} radix {}", text, radix);
    }

    #[test]
    fn shift_is_pow2_mul(a in bigint(), bits in 0u64..200) {
        let shifted = a.shl_bits(bits);
        let pow = BigInt::from(1u64).shl_bits(bits);
        prop_assert_eq!(shifted.clone(), &a * &pow);
        prop_assert_eq!(shifted.shr_bits(bits), a);
    }

    #[test]
    fn gcd_divides_both(a in bigint(), b in bigint()) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!(a.div_rem(&g).1.is_zero());
            prop_assert!(b.div_rem(&g).1.is_zero());
            prop_assert!(g.signum() > 0);
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn extended_gcd_bezout(a in bigint(), b in bigint()) {
        let (g, x, y) = a.extended_gcd(&b);
        prop_assert_eq!(&(&a * &x) + &(&b * &y), g.clone());
        prop_assert_eq!(g, a.gcd(&b));
    }

    #[test]
    fn digit_split_roundtrip(a in bigint_wide().prop_map(|v| v.abs()), k in 2usize..8) {
        let width = BigInt::shared_digit_width(&a, &a, k);
        let digits = a.split_base_pow2(width, k);
        prop_assert_eq!(digits.len(), k);
        prop_assert_eq!(BigInt::join_base_pow2(&digits, width), a);
    }

    #[test]
    fn mod_floor_in_range(a in bigint(), m in bigint().prop_filter("nonzero", |v| !v.is_zero())) {
        let r = a.mod_floor(&m);
        prop_assert!(!r.is_negative());
        prop_assert!(r.cmp_abs(&m) == std::cmp::Ordering::Less);
        // a ≡ r (mod m)
        prop_assert!((&a - &r).div_rem(&m).1.is_zero());
    }

    #[test]
    fn mod_pow_matches_naive(base in any::<i32>(), e in 0u32..24, m in 2u64..10_000) {
        let m_big = BigInt::from(m);
        let expected = {
            let mut acc = BigInt::one();
            for _ in 0..e {
                acc = (&acc * &BigInt::from(base)).mod_floor(&m_big);
            }
            acc
        };
        let got = BigInt::from(base).mod_pow(&BigInt::from(e), &m_big);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn normalization_invariants(a in bigint_wide()) {
        // No trailing zero limbs; sign Zero iff empty magnitude.
        prop_assert!(a.limbs().last() != Some(&0));
        prop_assert_eq!(a.sign() == Sign::Zero, a.limbs().is_empty());
    }

    #[test]
    fn mul_schoolbook_cost_is_quadratic_bounded(a in bigint_wide(), b in bigint_wide()) {
        let (_, ops) = ft_bigint::metrics::measure(|| a.mul_schoolbook(&b));
        let (la, lb) = (a.word_len() as u64, b.word_len() as u64);
        // One tally of |b| per non-zero limb of a (plus normalize slack).
        prop_assert!(ops <= (la + 1) * (lb + 1) + la + lb + 2,
            "ops={} la={} lb={}", ops, la, lb);
    }
}
