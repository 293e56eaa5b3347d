//! Thread budget of a running service: exactly its two lane threads, plus
//! the tuner when it is enabled, and no thread spawned per batch. A
//! product served by the NTT starts one scoped helper thread, which is
//! joined before the product resolves.
//!
//! Lives in its own integration-test binary, with a single test, so the
//! process's thread list — read from `/proc/self/task` — is not polluted
//! by other tests running concurrently in the same process.

use ft_bigint::BigInt;
use ft_service::{MulService, ServiceConfig, TunerConfig};
use ft_toom_core::seq;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// `(tid, name)` of every thread currently in this process.
fn threads() -> BTreeMap<u64, String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid = entry.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(entry.path().join("comm")).ok()?;
            Some((tid, name.trim_end().to_string()))
        })
        .collect()
}

/// Sorted names of the threads that appeared since `before`.
fn spawned_since(before: &BTreeMap<u64, String>) -> Vec<String> {
    let mut names: Vec<String> = threads()
        .into_iter()
        .filter(|(tid, _)| !before.contains_key(tid))
        .map(|(_, name)| name)
        .collect();
    names.sort();
    names
}

/// Poll until `done` holds for the threads spawned since `before`: a new
/// thread carries its creator's name until it names itself, and a
/// joined one may linger in `/proc` for a moment.
fn settle(before: &BTreeMap<u64, String>, done: impl Fn(&[String]) -> bool) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let spawned = spawned_since(before);
        if done(&spawned) || Instant::now() > deadline {
            return spawned;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_service_runs_two_lane_threads_and_spawns_none_per_batch() {
    // A 2 Mbit pair: past the default NTT crossover.
    let mut rng = StdRng::seed_from_u64(7);
    let big = (
        BigInt::random_signed_bits(&mut rng, 2_000_000),
        BigInt::random_signed_bits(&mut rng, 2_000_000),
    );
    let big_want = seq::toom_k(&big.0, &big.1, 3);
    for tuner in [false, true] {
        let before = threads();
        let service = MulService::start(ServiceConfig {
            tuner: TunerConfig {
                enabled: tuner,
                ..TunerConfig::default()
            },
            ..ServiceConfig::default()
        });
        let started = settle(&before, |names| {
            names.iter().all(|name| name.starts_with("ftsvc"))
        });
        let lanes: Vec<&str> = started
            .iter()
            .map(|name| name.rsplit('-').next().unwrap_or(""))
            .collect();
        let want: &[&str] = if tuner {
            &["big", "small", "tune"]
        } else {
            &["big", "small"]
        };
        assert_eq!(lanes, want, "tuner={tuner}: started {started:?}");

        // A 32-pair bulk job coalesces into one group, multiplied on the
        // big lane's own thread. Poll the thread list until it resolves:
        // a per-batch spawn would show up as a thread that was not there
        // when the service started.
        let running = threads();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs: Vec<(BigInt, BigInt)> = (0..32)
            .map(|_| {
                (
                    BigInt::random_signed_bits(&mut rng, 100_000),
                    BigInt::random_signed_bits(&mut rng, 100_000),
                )
            })
            .collect();
        let want: Vec<BigInt> = pairs.iter().map(|(a, b)| a.mul_schoolbook(b)).collect();
        let mut handle = service.submit_many(pairs).unwrap();
        let results = loop {
            let extra = spawned_since(&running);
            assert!(extra.is_empty(), "a batch spawned threads: {extra:?}");
            match handle.try_wait() {
                Ok(results) => break results,
                Err(pending) => handle = pending,
            }
        };
        for (result, want) in results.into_iter().zip(want) {
            assert_eq!(result.unwrap(), want);
        }

        // The NTT convolves its second prime on a scoped helper thread;
        // once the product resolves, that helper must be gone.
        let product = service.submit(big.0.clone(), big.1.clone()).unwrap();
        assert_eq!(product.wait().unwrap(), big_want);
        let extra = settle(&running, <[String]>::is_empty);
        assert!(extra.is_empty(), "the NTT left threads behind: {extra:?}");
        let snap = service.shutdown();
        assert_eq!(snap.batches, 2, "one coalesced group, one NTT pair");
        assert_eq!(snap.batch_size_high_water, 32);
        let left = settle(&before, <[String]>::is_empty);
        assert!(left.is_empty(), "shutdown left threads behind: {left:?}");
    }
}
