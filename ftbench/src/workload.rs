//! The four workloads: their client streams, server topology, warm-up
//! sequence and fault schedule. README.md records why each was chosen.

use crate::check::Checker;
use crate::gen::{chaos_seed, derive, log_sizes, Rng, StreamPlan, MBIT};
use crate::live::{Pacing, Stream};
use crate::report::Windows;
use ft_bigint::BigInt;
use ft_http::{HttpConfig, HttpServer};
use ft_service::metrics::size_class;
use ft_service::{ChaosConfig, Kernel, KernelPolicy, ServiceConfig, ShardConfig};

/// Operand range of the small-request mix (small, faulted, mixed's
/// open-loop stream).
const SMALL_BITS: (u64, u64) = (256, 16_384);
/// Pairs per small-mix stream; each stream cycles through its own.
const SMALL_POOL: usize = 2_048;
/// Every 8th small-mix exchange is a 4-pair `/v1/mul/batch`.
const BATCH_EVERY: usize = 8;
/// big: 1–12 Mbit, one pair per log-uniform stratum, at the stratum
/// midpoints, so every seed sends the same sizes: with 70–100 exchanges
/// a run, a seed-drawn size could move a stratum across the ParToom/NTT
/// boundary (0.4 vs 0.9 s). Nine strata put p80 in the middle of one
/// size. Every body stays under ft-net's 8 MiB `max_body`.
const BIG_BITS: (u64, u64) = (MBIT, 12 * MBIT);
const BIG_STRATA: usize = 9;
/// mixed: the closed-loop bulk stream (seq Toom sizes).
const BULK_BITS: (u64, u64) = (128 * 1_024, MBIT);
const BULK_POOL: usize = 64;
/// mixed: the open-loop small stream's rate. It is well under the
/// server's capacity but not under its one connection's: the connection
/// carries one exchange at a time and most exchanges wait out a bulk
/// job, so it is busy 65–80 % of the time (README.md, "Workloads").
const MIXED_OPEN_PER_S: f64 = 200.0;
/// faulted: shards, and request-indexed chaos rates per 10 000 attempts.
const FAULTED_SHARDS: usize = 3;
const PANIC_PER_10K: u32 = 200;
const CORRUPT_PER_10K: u32 = 200;
const STRAGGLE_PER_10K: u32 = 100;
/// faulted: the shard killed, and when: after `seconds / 2` times this
/// many exchanges. At full speed the reference host runs ~3300 exchanges
/// a second, so the kill lands 30 % into the run; at 25 % steal it runs
/// ~1600, and the kill still lands inside the run.
const KILLED_SHARD: usize = 1;
const FAULTED_EXCHANGES_PER_S: f64 = 2_000.0;
/// Pairs each stream replays through the layers in a traced run.
const REPLAY_SMALL: usize = 256;
const REPLAY_BULK: usize = 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Small,
    Big,
    Mixed,
    Faulted,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Small,
        Workload::Big,
        Workload::Mixed,
        Workload::Faulted,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Small => "small",
            Workload::Big => "big",
            Workload::Mixed => "mixed",
            Workload::Faulted => "faulted",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The client streams, their operands drawn from `seed`.
    #[must_use]
    pub fn streams(self, seed: u64, checker: &Checker) -> Vec<Stream> {
        let small = |stream: u64, pacing, throughput| Stream {
            plan: StreamPlan::new(
                &mut Rng::new(derive(seed, stream)),
                checker,
                SMALL_BITS,
                SMALL_POOL,
                true,
                BATCH_EVERY,
            ),
            pacing,
            latency: true,
            throughput,
        };
        let closed = Pacing::Closed {
            whole_cycles: false,
        };
        match self {
            Workload::Small | Workload::Faulted => {
                vec![small(1, closed, true), small(2, closed, true)]
            }
            Workload::Big => vec![Stream {
                plan: StreamPlan::new(
                    &mut Rng::new(derive(seed, 3)),
                    checker,
                    BIG_BITS,
                    BIG_STRATA,
                    false,
                    0,
                ),
                pacing: Pacing::Closed { whole_cycles: true },
                latency: true,
                throughput: true,
            }],
            Workload::Mixed => vec![
                Stream {
                    plan: StreamPlan::new(
                        &mut Rng::new(derive(seed, 4)),
                        checker,
                        BULK_BITS,
                        BULK_POOL,
                        true,
                        0,
                    ),
                    pacing: Pacing::Closed { whole_cycles: true },
                    latency: false,
                    throughput: true,
                },
                small(
                    5,
                    Pacing::Open {
                        per_s: MIXED_OPEN_PER_S,
                    },
                    false,
                ),
            ],
        }
    }

    /// How many pairs of stream `i` a traced run replays.
    #[must_use]
    pub fn replay_pairs(self, stream: &Stream) -> usize {
        let n = stream.plan.pairs.len();
        match (self, stream.pacing) {
            (Workload::Big, _) => n,
            (Workload::Mixed, Pacing::Closed { .. }) => REPLAY_BULK.min(n),
            _ => REPLAY_SMALL.min(n),
        }
    }

    /// Start the server under test.
    pub fn start(self, seed: u64) -> std::io::Result<HttpServer> {
        let http = HttpConfig::default();
        match self {
            Workload::Faulted => {
                let chaos = ChaosConfig {
                    seed: chaos_seed(seed),
                    panic_per_10k: PANIC_PER_10K,
                    corrupt_per_10k: CORRUPT_PER_10K,
                    straggle_per_10k: STRAGGLE_PER_10K,
                    ..ChaosConfig::default()
                };
                HttpServer::start_sharded(
                    &http,
                    ShardConfig {
                        shards: FAULTED_SHARDS,
                        service: ServiceConfig {
                            chaos: Some(chaos),
                            ..ServiceConfig::default()
                        },
                        ..ShardConfig::default()
                    },
                )
            }
            _ => HttpServer::start(&http, ServiceConfig::default()),
        }
    }

    /// The windows the end-to-end figures are fitted over (see
    /// `crate::steal`). big's exchanges run up to a second each, so its
    /// windows are whole passes through its nine sizes.
    #[must_use]
    pub fn windows(self) -> Windows {
        match self {
            Workload::Big => Windows::Cycles,
            Workload::Small | Workload::Faulted => Windows::Time {
                seconds: 0.5,
                quiet: 0.25,
            },
            Workload::Mixed => Windows::Time {
                seconds: 1.0,
                quiet: 1.0,
            },
        }
    }

    /// The shard to kill and the workload exchange count to kill it at.
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn kill(self, seconds: f64) -> Option<(usize, u64)> {
        (self == Workload::Faulted).then(|| {
            (
                KILLED_SHARD,
                (FAULTED_EXCHANGES_PER_S * seconds / 2.0) as u64,
            )
        })
    }

    fn ranges(self) -> Vec<((u64, u64), usize)> {
        match self {
            Workload::Small | Workload::Faulted => vec![(SMALL_BITS, 64)],
            Workload::Big => vec![(BIG_BITS, BIG_STRATA)],
            Workload::Mixed => vec![(BULK_BITS, 64), (SMALL_BITS, 64)],
        }
    }

    /// The fixed warm-up: for every (kernel, size class) cell the
    /// workload's size grid reaches, the cell's largest grid size,
    /// largest first; then one 4-pair batch when the workload sends
    /// batches. It does not depend on the seed.
    #[must_use]
    pub fn warmup(self, checker: &Checker) -> StreamPlan {
        let policy = KernelPolicy::default();
        let mut cells: Vec<(usize, usize, u64)> = Vec::new();
        for ((lo, hi), n) in self.ranges() {
            for bits in log_sizes(&mut Rng::new(0), lo, hi, n, false) {
                let x = BigInt::one().shl_bits(bits - 1);
                let kernel = Kernel::select(&x, &x, &policy) as usize;
                let class = size_class(bits);
                match cells.iter_mut().find(|c| (c.0, c.1) == (kernel, class)) {
                    Some(cell) => cell.2 = cell.2.max(bits),
                    None => cells.push((kernel, class, bits)),
                }
            }
        }
        let mut sizes: Vec<u64> = cells.into_iter().map(|c| c.2).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let batch = if self == Workload::Big { 0 } else { 4 };
        StreamPlan::fixed(&sizes, checker, batch)
    }
}
