//! Allocation-regression pin for the warm NTT multiply path.
//!
//! A warm 256-kbit two-prime CRT NTT multiply draws every scratch buffer
//! (both primes' digit vectors) from the caller's workspace arena, and
//! the twiddle tables are one process-wide set built on first use — so
//! the warm path performs only the handful of allocations that outlive
//! the arena: the product's limb vector and the bookkeeping of the one
//! scoped helper thread that convolves the second prime. This pins that
//! number with headroom so a refactor that reintroduces per-transform
//! allocation fails CI instead of only showing up in BENCH_kernels.json.
//!
//! This file must stay a single-test binary: the counting allocator's
//! counters are process-wide, so a sibling test running concurrently
//! would pollute the measurement (same rule as `alloc_regression.rs`).

use ft_bench::counting_alloc::{measure_allocs, CountingAllocator};
use ft_bench::operands;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Generous ceiling, same budget as the Toom pin: the measured warm count
/// is a small constant (the product vector plus arena bookkeeping).
const MAX_ALLOCS_PER_MUL: u64 = 64;

#[test]
fn warm_256kbit_ntt_stays_under_allocation_budget() {
    let (a, b) = operands(262_144, 0x5eed);
    let expected = &a * &b;

    // Warm up: grow the thread-local arena and the shared twiddle tables
    // to steady state.
    for _ in 0..3 {
        assert_eq!(a.mul_ntt(&b), expected);
    }

    let (product, allocs, _bytes) = measure_allocs(|| a.mul_ntt(&b));
    assert_eq!(product, expected);
    assert!(
        allocs <= MAX_ALLOCS_PER_MUL,
        "warm 256-kbit NTT multiply made {allocs} allocations \
         (budget {MAX_ALLOCS_PER_MUL}); the arena-backed NTT path has regressed"
    );
}
