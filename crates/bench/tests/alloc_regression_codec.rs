//! Allocation-regression pin for the hex codec.
//!
//! The HTTP front door writes every product with `BigInt::write_hex`
//! straight into its response buffer and parses every hex operand with
//! `BigInt::from_str_radix`. For a 2 Mbit value, writing into a buffer
//! that already has the room must not allocate, `to_hex` allocates only
//! its string, and parsing allocates only the magnitude. Formatting one
//! `String` per limb, as the codec once did, makes 32k allocations here.
//!
//! This file must stay a single-test binary: the counting allocator's
//! counters are process-wide, so a sibling test running concurrently
//! would pollute the measurement (same rule as `alloc_regression.rs`).

use ft_bench::counting_alloc::{measure_allocs, CountingAllocator};
use ft_bench::operands;
use ft_bigint::BigInt;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn hex_codec_allocates_at_most_its_output() {
    let (a, _) = operands(2_097_152, 0x5eed);
    let a = -a;

    let mut buf = Vec::with_capacity(8 + 16 * a.word_len());
    let ((), allocs, _) = measure_allocs(|| a.write_hex(&mut buf));
    assert_eq!(allocs, 0, "write_hex into a buffer with room allocated");

    let (hex, allocs, _) = measure_allocs(|| a.to_hex());
    assert!(allocs <= 1, "to_hex made {allocs} allocations");
    assert_eq!(hex.as_bytes(), &buf[..]);

    let digits = hex.strip_prefix("-0x").expect("a negative hex literal");
    let (parsed, allocs, _) = measure_allocs(|| BigInt::from_str_radix(digits, 16));
    assert!(allocs <= 1, "from_str_radix made {allocs} allocations");
    assert_eq!(parsed.expect("valid hex"), -a);
}
