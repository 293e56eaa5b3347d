//! Property tests: whatever the batch bound, queue capacity, lane
//! boundary, kernel policy, or submitter concurrency, every product the
//! service returns equals schoolbook.

use ft_bigint::BigInt;
use ft_service::{BatchingConfig, KernelPolicy, MulService, ServiceConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_operand(rng: &mut StdRng, max_bits: u64) -> BigInt {
    let bits = 1 + rng.random::<u64>() % max_bits;
    BigInt::random_signed_bits(rng, bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn results_equal_schoolbook_across_policies(
        seed in any::<u64>(),
        max_batch in 1usize..24,
        queue_capacity in 8usize..64,
        schoolbook_max_bits in 256u64..4_096,
        seq_span in 4_096u64..24_576,
        toom_threshold_bits in 4_096u64..32_768,
        requests in 4usize..24,
    ) {
        let config = ServiceConfig {
            batching: BatchingConfig {
                max_batch,
                queue_capacity,
            },
            kernel_policy: KernelPolicy {
                schoolbook_max_bits,
                seq_toom_max_bits: schoolbook_max_bits + seq_span,
                // Also the lane boundary: the 1..30 kbit operands below
                // land in both lanes.
                toom_threshold_bits,
                ..KernelPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pending = Vec::new();
        for _ in 0..requests {
            let a = random_operand(&mut rng, 30_000);
            let b = random_operand(&mut rng, 30_000);
            let want = a.mul_schoolbook(&b);
            // Capacity 8+ per lane and bounded request count: submission
            // may still hit backpressure under a slow scheduler, so retry
            // rather than assert acceptance.
            let handle = loop {
                match service.submit(a.clone(), b.clone()) {
                    Ok(h) => break h,
                    Err(_) => std::thread::yield_now(),
                }
            };
            pending.push((handle, want));
        }
        for (handle, want) in pending {
            prop_assert_eq!(handle.wait().unwrap(), want);
        }
        let metrics = service.shutdown();
        prop_assert_eq!(metrics.served, requests as u64);
        prop_assert_eq!(
            metrics.per_kernel.iter().map(|&(_, n)| n).sum::<u64>(),
            requests as u64
        );
    }

    #[test]
    fn concurrent_submitters_each_get_their_own_product(
        seed in any::<u64>(),
        submitters in 2usize..6,
        per_thread in 2usize..10,
    ) {
        let config = ServiceConfig {
            kernel_policy: KernelPolicy {
                // Mixed 1..8000-bit operands straddle both thresholds.
                schoolbook_max_bits: 1_000,
                seq_toom_max_bits: 4_000,
                ..KernelPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let service = MulService::start(config);
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for t in 0..submitters {
                let service = &service;
                joins.push(scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9));
                    for _ in 0..per_thread {
                        let a = random_operand(&mut rng, 8_000);
                        let b = random_operand(&mut rng, 8_000);
                        let want = a.mul_schoolbook(&b);
                        let handle = loop {
                            match service.submit(a.clone(), b.clone()) {
                                Ok(h) => break h,
                                Err(_) => std::thread::yield_now(),
                            }
                        };
                        assert_eq!(handle.wait().unwrap(), want);
                    }
                }));
            }
            for join in joins {
                join.join().expect("submitter thread panicked");
            }
        });
        let metrics = service.shutdown();
        prop_assert_eq!(metrics.served, (submitters * per_thread) as u64);
    }
}
