//! The NTT's twiddle tables are shared by the whole process and grown on
//! first use. Four threads make their first multiply at four different
//! transform sizes at once, so the tables are built and grown while other
//! threads read them; every product must still be exact.
//!
//! This file must stay a single-test binary: the tables are process-wide,
//! and another test running first would build them before the race.

use ft_bigint::kernels::mul_karatsuba_into;
use ft_bigint::workspace::Workspace;
use ft_bigint::BigInt;
use std::sync::Barrier;

#[test]
fn first_multiplies_at_four_sizes_at_once_are_exact() {
    // Transform lengths 2^12 through 2^15.
    let sizes = [700usize, 1_500, 3_000, 6_000];
    let barrier = Barrier::new(sizes.len());
    std::thread::scope(|s| {
        for (i, &limbs) in sizes.iter().enumerate() {
            let barrier = &barrier;
            s.spawn(move || {
                let mut state = 0x9e37_79b9_7f4a_7c15_u64 ^ i as u64;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let a: Vec<u64> = (0..limbs).map(|_| next()).collect();
                let b: Vec<u64> = (0..limbs + 5).map(|_| next()).collect();
                let mut want = Vec::new();
                mul_karatsuba_into(&a, &b, &mut want, &mut Workspace::new());
                let (a, b) = (BigInt::from_limbs(a), BigInt::from_limbs(b));
                barrier.wait();
                assert_eq!(a.mul_ntt(&b), BigInt::from_limbs(want), "{limbs} limbs");
            });
        }
    });
}
