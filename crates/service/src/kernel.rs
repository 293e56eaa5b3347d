//! Kernel auto-selection: size thresholds → multiplication strategy.

use crate::config::KernelPolicy;
use crate::plan_cache::PlanCache;
use ft_bigint::BigInt;
use ft_toom_core::{rayon_engine, seq};

/// The kernels the service dispatches between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Quadratic schoolbook multiplication — smallest operands.
    Schoolbook,
    /// Sequential Toom-Cook (`seq::toom_with_plan`) — mid-size operands.
    SeqToom,
    /// Fork-join parallel Toom-Cook (`rayon_engine::par_toom_with_plan`)
    /// — the band between `seq_toom_max_bits` and `ntt_min_bits`. The
    /// NTT beats it at every measured size on the 2-core host, so the
    /// default band is one bit wide; it stays the
    /// [`Kernel::DistributedToom`] fallback.
    ParToom,
    /// Two-prime CRT NTT (`ft_bigint::ntt`) — the big-operand regime past
    /// `KernelPolicy::ntt_min_bits` (1 Mbit by default), where `Θ(n log n)`
    /// with one prime per core beats every Toom split (≥1.5× over seq and
    /// parallel Toom at 2 Mbit; see BENCH_kernels.json). Each multiply
    /// runs one scoped helper thread, joined before it returns. Degrades
    /// to [`Kernel::SeqToom`] on breaker trip: a structurally distinct
    /// algorithm, with no transform, twiddle table or CRT step in common.
    Ntt,
    /// The simulated coded machine (`ft-core`'s polynomial-coded parallel
    /// Toom-Cook with heartbeat failure detection). Never picked by
    /// [`Kernel::select`]: the dispatcher promotes eligible coalesced
    /// groups to it when the distributed backend is enabled, and the
    /// supervisor routes it through `crate::distributed`. Its local
    /// methods here delegate to the parallel Toom kernel so the variant
    /// stays a sound (structural-fallback) kernel even without a backend.
    DistributedToom,
}

impl Kernel {
    /// Pick a kernel for operands by the smaller bit length, per `policy`.
    #[must_use]
    pub fn select(a: &BigInt, b: &BigInt, policy: &KernelPolicy) -> Kernel {
        let bits = a.bit_length().min(b.bit_length());
        if bits <= policy.schoolbook_max_bits {
            Kernel::Schoolbook
        } else if bits <= policy.seq_toom_max_bits {
            Kernel::SeqToom
        } else if bits <= policy.ntt_min_bits {
            Kernel::ParToom
        } else {
            Kernel::Ntt
        }
    }

    /// Run this kernel, resolving any Toom plan through `plans`.
    #[must_use]
    pub fn execute(
        self,
        a: &BigInt,
        b: &BigInt,
        policy: &KernelPolicy,
        plans: &PlanCache,
    ) -> BigInt {
        match self {
            Kernel::Schoolbook => a.mul_schoolbook(b),
            Kernel::SeqToom => {
                let plan = plans.get(policy.seq_toom_k);
                seq::toom_with_plan(a, b, &plan, policy.toom_threshold_bits)
            }
            Kernel::Ntt => a.mul_ntt(b),
            Kernel::ParToom | Kernel::DistributedToom => {
                let plan = plans.get(policy.par_toom_k);
                rayon_engine::par_toom_with_plan(
                    a,
                    b,
                    &plan,
                    policy.toom_threshold_bits,
                    policy.par_depth,
                )
            }
        }
    }

    /// Run this kernel over a coalesced batch one element at a time with
    /// one shared plan resolution, handing each product to `sink` in
    /// input order. The caller's sink runs *between* multiplications, so
    /// per-element post-processing (residue verification in the
    /// supervisor) touches each operand/product while it is still
    /// cache-hot instead of re-walking the whole batch in a second cold
    /// pass.
    pub fn execute_each<F: FnMut(usize, BigInt)>(
        self,
        pairs: &[(BigInt, BigInt)],
        policy: &KernelPolicy,
        plans: &PlanCache,
        mut sink: F,
    ) {
        match self {
            Kernel::Schoolbook => {
                for (i, (a, b)) in pairs.iter().enumerate() {
                    sink(i, a.mul_schoolbook(b));
                }
            }
            Kernel::SeqToom => {
                let plan = plans.get(policy.seq_toom_k);
                for (i, (a, b)) in pairs.iter().enumerate() {
                    sink(
                        i,
                        seq::toom_with_plan(a, b, &plan, policy.toom_threshold_bits),
                    );
                }
            }
            Kernel::Ntt => {
                for (i, (a, b)) in pairs.iter().enumerate() {
                    sink(i, a.mul_ntt(b));
                }
            }
            Kernel::ParToom | Kernel::DistributedToom => {
                let plan = plans.get(policy.par_toom_k);
                for (i, (a, b)) in pairs.iter().enumerate() {
                    sink(
                        i,
                        rayon_engine::par_toom_with_plan(
                            a,
                            b,
                            &plan,
                            policy.toom_threshold_bits,
                            policy.par_depth,
                        ),
                    );
                }
            }
        }
    }

    /// The next rung down the degradation ladder the supervisor walks
    /// when this kernel keeps failing: distributed Toom → parallel Toom →
    /// sequential Toom → schoolbook → nothing. The NTT degrades straight
    /// to sequential Toom — the structurally distinct mid-size workhorse —
    /// rather than to parallel Toom, whose fork-join layer shares failure
    /// modes with the big-operand regime's memory pressure.
    #[must_use]
    pub fn degrade(self) -> Option<Kernel> {
        match self {
            Kernel::DistributedToom => Some(Kernel::ParToom),
            Kernel::Ntt => Some(Kernel::SeqToom),
            Kernel::ParToom => Some(Kernel::SeqToom),
            Kernel::SeqToom => Some(Kernel::Schoolbook),
            Kernel::Schoolbook => None,
        }
    }

    /// Stable name used as the metrics key.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Schoolbook => "schoolbook",
            Kernel::SeqToom => "seq_toom",
            Kernel::ParToom => "par_toom",
            Kernel::Ntt => "ntt",
            Kernel::DistributedToom => "distributed_toom",
        }
    }

    /// All kernels, in selection order (the metrics/breaker index space).
    pub const ALL: [Kernel; 5] = [
        Kernel::Schoolbook,
        Kernel::SeqToom,
        Kernel::ParToom,
        Kernel::Ntt,
        Kernel::DistributedToom,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn selection_respects_thresholds() {
        let policy = KernelPolicy {
            schoolbook_max_bits: 100,
            seq_toom_max_bits: 1_000,
            ntt_min_bits: 10_000,
            ..KernelPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let small = BigInt::random_bits(&mut rng, 80);
        let mid = BigInt::random_bits(&mut rng, 500);
        let big = BigInt::random_bits(&mut rng, 5_000);
        let huge = BigInt::random_bits(&mut rng, 20_000);
        assert_eq!(Kernel::select(&small, &small, &policy), Kernel::Schoolbook);
        assert_eq!(Kernel::select(&mid, &mid, &policy), Kernel::SeqToom);
        assert_eq!(Kernel::select(&big, &big, &policy), Kernel::ParToom);
        assert_eq!(Kernel::select(&huge, &huge, &policy), Kernel::Ntt);
        // The smaller operand drives selection.
        assert_eq!(Kernel::select(&small, &big, &policy), Kernel::Schoolbook);
        assert_eq!(Kernel::select(&big, &huge, &policy), Kernel::ParToom);
    }

    #[test]
    fn degradation_ladder_bottoms_out_at_schoolbook() {
        assert_eq!(Kernel::DistributedToom.degrade(), Some(Kernel::ParToom));
        assert_eq!(Kernel::Ntt.degrade(), Some(Kernel::SeqToom));
        assert_eq!(Kernel::ParToom.degrade(), Some(Kernel::SeqToom));
        assert_eq!(Kernel::SeqToom.degrade(), Some(Kernel::Schoolbook));
        assert_eq!(Kernel::Schoolbook.degrade(), None);
    }

    #[test]
    fn select_never_picks_the_distributed_kernel() {
        // Promotion to the coded machine is the dispatcher's decision, not
        // a size-threshold outcome.
        let policy = KernelPolicy::default();
        let mut rng = StdRng::seed_from_u64(4);
        for bits in [1u64, 3_000, 5_000_000, 40_000_000] {
            let x = BigInt::random_bits(&mut rng, bits);
            assert_ne!(Kernel::select(&x, &x, &policy), Kernel::DistributedToom);
        }
    }

    #[test]
    fn execute_each_matches_schoolbook_in_input_order() {
        let policy = KernelPolicy::default();
        let plans = PlanCache::new(4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut pairs: Vec<_> = (0..6)
            .map(|i| {
                (
                    BigInt::random_signed_bits(&mut rng, 1_000 + 2_000 * i),
                    BigInt::random_signed_bits(&mut rng, 1_000 + 2_000 * i),
                )
            })
            .collect();
        pairs.push((BigInt::zero(), pairs[0].1.clone()));
        let expect: Vec<_> = pairs.iter().map(|(a, b)| a.mul_schoolbook(b)).collect();
        for kernel in Kernel::ALL {
            let mut got = Vec::new();
            kernel.execute_each(&pairs, &policy, &plans, |i, product| {
                assert_eq!(i, got.len(), "{} sinks in input order", kernel.name());
                got.push(product);
            });
            assert_eq!(got, expect, "{}", kernel.name());
        }
    }

    #[test]
    fn every_kernel_matches_schoolbook() {
        let policy = KernelPolicy::default();
        let plans = PlanCache::new(4);
        let mut rng = StdRng::seed_from_u64(2);
        let a = BigInt::random_signed_bits(&mut rng, 9_000);
        let b = BigInt::random_signed_bits(&mut rng, 9_000);
        let expect = a.mul_schoolbook(&b);
        for kernel in Kernel::ALL {
            assert_eq!(
                kernel.execute(&a, &b, &policy, &plans),
                expect,
                "{}",
                kernel.name()
            );
        }
    }
}
