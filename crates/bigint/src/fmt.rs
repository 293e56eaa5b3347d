//! Text codecs: hexadecimal and binary, decimal, and `Debug`.
//!
//! Hex is the wire format of the HTTP front door, so its codec works on
//! limbs and bytes directly:
//!
//! * [`BigInt::write_hex`] appends `0x…` to a caller's byte buffer through
//!   a byte → two-digit table, reserving the space once. [`BigInt::to_hex`]
//!   and `LowerHex` go through it.
//! * [`BigInt::from_str_radix`] with radix 16 or 2 packs digits into limbs
//!   in one pass from the low end, through a digit table, and allocates
//!   only the magnitude. The first invalid char is found by a second scan,
//!   on the error path only.
//!
//! Decimal text is parsed by splitting it at `19·2^j` digits and combining
//! the halves with [`BigInt::mul_auto`], so its cost follows the multiply
//! kernels rather than the square of the length; below about 600 digits
//! the chunk loop `mag·10^19 + chunk` does it. `Display` peels 19
//! decimal digits per limb division.

use crate::bigint::{BigInt, Sign};
use crate::ops;
use crate::Limb;
use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

/// Largest power of ten below 2^64 and its exponent: format/parse in chunks
/// of 19 decimal digits per limb-division.
const TEN19: Limb = 10_000_000_000_000_000_000;
const TEN19_DIGITS: usize = 19;

/// Decimal strings up to this many digits (32 chunks of 19) are parsed by
/// the chunk loop, whose limb work grows with the square of the length;
/// longer ones are split in two.
const DEC_SPLIT_DIGITS: usize = 32 * TEN19_DIGITS;

/// `HEX_PAIRS[b]` is byte `b` as two lowercase hex digits.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let digits = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [digits[b >> 4], digits[b & 15]];
        b += 1;
    }
    table
};

/// `DIGITS[b]` is the value of ASCII byte `b` as a digit of radix ≤ 16
/// (`0–9`, `a–f`, `A–F`), or `u8::MAX` for every other byte.
const DIGITS: [u8; 256] = {
    let mut table = [u8::MAX; 256];
    let mut d = 0;
    while d < 10 {
        table[b'0' as usize + d] = d as u8;
        d += 1;
    }
    let mut d = 0;
    while d < 6 {
        table[b'a' as usize + d] = 10 + d as u8;
        table[b'A' as usize + d] = 10 + d as u8;
        d += 1;
    }
    table
};

/// Error parsing a [`BigInt`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    Empty,
    InvalidDigit(char),
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::Empty => write!(f, "empty string is not a valid integer"),
            ParseErrorKind::InvalidDigit(c) => write!(f, "invalid digit {c:?}"),
        }
    }
}

impl std::error::Error for ParseBigIntError {}

const EMPTY: ParseBigIntError = ParseBigIntError {
    kind: ParseErrorKind::Empty,
};

/// The error naming the first char of `body` that is neither `_` nor a
/// digit of `radix`. Only the error path pays for this second scan.
fn invalid_digit(body: &str, radix: u32) -> ParseBigIntError {
    let c = body
        .chars()
        .find(|&c| c != '_' && !c.is_digit(radix))
        .expect("the caller saw a byte that is neither `_` nor a digit");
    ParseBigIntError {
        kind: ParseErrorKind::InvalidDigit(c),
    }
}

/// Radix-`2^bits` digits (most significant first, `_` skipped) packed into
/// little-endian limbs in one pass from the low end. The limb vector is
/// sized from the text length up front, so it is the only allocation.
fn pow2_limbs(body: &str, radix: u32) -> Result<Vec<Limb>, ParseBigIntError> {
    let bits = radix.trailing_zeros();
    let bytes = body.as_bytes();
    let mut mag = Vec::with_capacity(bytes.len().div_ceil((Limb::BITS / bits) as usize));
    let (mut limb, mut shift): (Limb, u32) = (0, 0);
    for &b in bytes.iter().rev() {
        let d = DIGITS[usize::from(b)];
        if u32::from(d) >= radix {
            if b == b'_' {
                continue;
            }
            return Err(invalid_digit(body, radix));
        }
        limb |= Limb::from(d) << shift;
        shift += bits;
        if shift == Limb::BITS {
            mag.push(limb);
            (limb, shift) = (0, 0);
        }
    }
    if shift > 0 {
        mag.push(limb);
    }
    Ok(mag)
}

/// The magnitude of the decimal digits `digits` (ASCII `0–9`, most
/// significant first). Up to [`DEC_SPLIT_DIGITS`] it runs the chunk loop;
/// above, it splits off the low `19·2^j` digits, the largest such count
/// below the length, and returns `high·10^(19·2^j) + low`. `powers[j]`
/// caches `10^(19·2^j)` for the whole parse, each built by squaring the
/// one before.
fn decimal_limbs(digits: &[u8], powers: &mut Vec<BigInt>) -> Vec<Limb> {
    if digits.len() <= DEC_SPLIT_DIGITS {
        let mut mag = Vec::with_capacity(digits.len() / TEN19_DIGITS + 1);
        for chunk in digits.chunks(TEN19_DIGITS) {
            let value = chunk
                .iter()
                .fold(0, |acc, &d| acc * 10 + Limb::from(d - b'0'));
            ops::mul_limb_assign(&mut mag, 10u64.pow(chunk.len() as u32));
            ops::add_assign_slices(&mut mag, &[value]);
        }
        return mag;
    }
    let mut j = 0;
    while TEN19_DIGITS << (j + 1) < digits.len() {
        j += 1;
    }
    while powers.len() <= j {
        let next = match powers.last() {
            Some(p) => p.mul_auto(p),
            None => BigInt::from(TEN19),
        };
        powers.push(next);
    }
    let (high, low) = digits.split_at(digits.len() - (TEN19_DIGITS << j));
    let high = BigInt::from_limbs(decimal_limbs(high, powers));
    let mut mag = high.mul_auto(&powers[j]).into_limbs();
    ops::add_assign_slices(&mut mag, &decimal_limbs(low, powers));
    mag
}

/// `limb` as 16 lowercase hex digits.
#[inline]
fn limb_hex(limb: Limb) -> [u8; 16] {
    let mut out = [0u8; 16];
    for (pair, byte) in out.chunks_exact_mut(2).zip(limb.to_be_bytes()) {
        pair.copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
    }
    out
}

/// Append the magnitude `mag` (normalized, non-empty) as lowercase hex
/// digits without leading zeros. The caller has reserved the space.
fn push_hex_digits(mag: &[Limb], out: &mut Vec<u8>) {
    let (&top, rest) = mag.split_last().expect("a non-zero magnitude");
    let top_digits = (Limb::BITS - top.leading_zeros()).div_ceil(4) as usize;
    out.extend_from_slice(&limb_hex(top)[16 - top_digits..]);
    for &limb in rest.iter().rev() {
        out.extend_from_slice(&limb_hex(limb));
    }
}

impl BigInt {
    /// Parse from a string in the given radix (supported: 2, 10, 16), with
    /// optional leading `-`/`+` and `_` separators.
    pub fn from_str_radix(s: &str, radix: u32) -> Result<BigInt, ParseBigIntError> {
        assert!(
            radix == 2 || radix == 10 || radix == 16,
            "supported radixes: 2, 10, 16"
        );
        let s = s.trim();
        let (sign, body) = match s.strip_prefix('-') {
            Some(rest) => (Sign::Negative, rest),
            None => (Sign::Positive, s.strip_prefix('+').unwrap_or(s)),
        };
        if body.is_empty() {
            return Err(EMPTY);
        }
        let mag = if radix == 10 {
            if body.bytes().any(|b| !b.is_ascii_digit() && b != b'_') {
                return Err(invalid_digit(body, radix));
            }
            let digits: Cow<[u8]> = if body.contains('_') {
                body.bytes().filter(|&b| b != b'_').collect()
            } else {
                body.as_bytes().into()
            };
            if digits.is_empty() {
                return Err(EMPTY);
            }
            decimal_limbs(&digits, &mut Vec::new())
        } else {
            let mag = pow2_limbs(body, radix)?;
            if mag.is_empty() {
                return Err(EMPTY);
            }
            mag
        };
        // A zero magnitude (`-000`) normalizes to zero whatever the sign.
        Ok(BigInt::from_sign_limbs(sign, mag))
    }

    /// Decimal string (same as `Display`).
    #[must_use]
    pub fn to_decimal(&self) -> String {
        format!("{self}")
    }

    /// Lowercase hexadecimal string with sign and `0x` prefix: the text
    /// [`BigInt::write_hex`] appends, in a string of its own.
    #[must_use]
    pub fn to_hex(&self) -> String {
        let mut out = Vec::new();
        self.write_hex(&mut out);
        String::from_utf8(out).expect("hex text is ASCII")
    }

    /// Append [`BigInt::to_hex`]'s text — `0x…` or `-0x…`, lowercase, no
    /// leading zeros, `0x0` for zero — to `out`, reserving the space once.
    pub fn write_hex(&self, out: &mut Vec<u8>) {
        if self.is_zero() {
            out.extend_from_slice(b"0x0");
            return;
        }
        out.reserve(3 + 16 * self.mag.len());
        if self.sign == Sign::Negative {
            out.push(b'-');
        }
        out.extend_from_slice(b"0x");
        push_hex_digits(&self.mag, out);
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        // Peel 19 decimal digits at a time.
        let mut chunks: Vec<Limb> = Vec::new();
        let mut cur = self.mag.clone();
        while !cur.is_empty() {
            let (q, r) = ops::div_rem_limb(&cur, TEN19);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::with_capacity(chunks.len() * TEN19_DIGITS);
        s.push_str(&chunks.last().unwrap().to_string());
        for c in chunks.iter().rev().skip(1) {
            s.push_str(&format!("{c:019}"));
        }
        f.pad_integral(self.sign != Sign::Negative, "", &s)
    }
}

impl fmt::LowerHex for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0x", "0");
        }
        let mut digits = Vec::with_capacity(16 * self.mag.len());
        push_hex_digits(&self.mag, &mut digits);
        let digits = std::str::from_utf8(&digits).expect("hex digits are ASCII");
        f.pad_integral(self.sign != Sign::Negative, "0x", digits)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal for small values, hex limb count summary for huge ones.
        if self.mag.len() <= 4 {
            write!(f, "BigInt({self})")
        } else {
            write!(
                f,
                "BigInt({} limbs, {} bits, top=0x{:x}…)",
                self.mag.len(),
                self.bit_length(),
                self.mag.last().unwrap()
            )
        }
    }
}

impl FromStr for BigInt {
    type Err = ParseBigIntError;
    fn from_str(s: &str) -> Result<BigInt, ParseBigIntError> {
        if let Some(rest) = s.strip_prefix("0x") {
            BigInt::from_str_radix(rest, 16)
        } else if let Some(rest) = s.strip_prefix("-0x") {
            Ok(-BigInt::from_str_radix(rest, 16)?)
        } else {
            BigInt::from_str_radix(s, 10)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_small() {
        assert_eq!(BigInt::from(0u64).to_string(), "0");
        assert_eq!(BigInt::from(12345u64).to_string(), "12345");
        assert_eq!(BigInt::from(-12345i64).to_string(), "-12345");
    }

    #[test]
    fn display_multi_chunk() {
        // 2^128 = 340282366920938463463374607431768211456 (39 digits, 3 chunks)
        let v = BigInt::from(1u64).shl_bits(128);
        assert_eq!(v.to_string(), "340282366920938463463374607431768211456");
    }

    #[test]
    fn parse_roundtrip_decimal() {
        for s in [
            "0",
            "7",
            "-7",
            "18446744073709551616",
            "-340282366920938463463374607431768211455",
            "99999999999999999999999999999999999999999999999999",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn parse_separators_and_plus() {
        let v: BigInt = "+1_000_000".parse().unwrap();
        assert_eq!(v, BigInt::from(1_000_000u64));
    }

    #[test]
    fn parse_hex() {
        let v = BigInt::from_str_radix("ff", 16).unwrap();
        assert_eq!(v, BigInt::from(255u64));
        let v: BigInt = "0xdeadbeefdeadbeefdeadbeef".parse().unwrap();
        assert_eq!(format!("{v:#x}"), "0xdeadbeefdeadbeefdeadbeef");
        assert_eq!(v.to_hex(), "0xdeadbeefdeadbeefdeadbeef");
        let v: BigInt = "-0x10".parse().unwrap();
        assert_eq!(v, BigInt::from(-16i64));
    }

    #[test]
    fn parse_binary() {
        let v = BigInt::from_str_radix("101101", 2).unwrap();
        assert_eq!(v, BigInt::from(45u64));
    }

    #[test]
    fn parse_hex_leading_zeros_and_zero() {
        assert_eq!(BigInt::from_str_radix("000", 16).unwrap(), BigInt::zero());
        assert_eq!(BigInt::from_str_radix("-000", 16).unwrap(), BigInt::zero());
        let v = BigInt::from_str_radix("0000deadbeef", 16).unwrap();
        assert_eq!(v, BigInt::from(0xdead_beefu64));
        // Separators may split a limb boundary.
        let v = BigInt::from_str_radix("a_0000000000000001", 16).unwrap();
        assert_eq!(v, BigInt::from_limbs(vec![0x1, 0xa]));
    }

    #[test]
    fn parse_hex_roundtrip_large() {
        // Exercise the chunked limb-assembly path on a multi-limb value
        // whose digit count is not a multiple of 16.
        let mut s = String::from("1");
        for i in 0..997u32 {
            s.push(char::from_digit(i % 16, 16).unwrap());
        }
        let v = BigInt::from_str_radix(&s, 16).unwrap();
        assert_eq!(format!("{v:x}"), s);
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
        assert!("_".parse::<BigInt>().is_err());
    }

    #[test]
    fn hex_zero_padding_between_limbs() {
        let v = BigInt::from_limbs(vec![0x1, 0xa]);
        assert_eq!(format!("{v:x}"), "a0000000000000001");
        assert_eq!(format!("{v:#x}"), "0xa0000000000000001");
        assert_eq!(format!("{:#x}", -&v), "-0xa0000000000000001");
    }

    #[test]
    fn debug_forms() {
        assert_eq!(format!("{:?}", BigInt::from(5u64)), "BigInt(5)");
        let huge = BigInt::from(1u64).shl_bits(1000);
        let dbg = format!("{huge:?}");
        assert!(dbg.contains("limbs"), "{dbg}");
    }
}
