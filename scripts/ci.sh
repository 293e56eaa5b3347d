#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, and the full test suite.
# Referenced from README.md ("Quick start"); run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc -D warnings =="
# Broken or private intra-doc links and unparsable doc code blocks fail
# here rather than in a reader's browser.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test =="
cargo test --workspace -q

echo "== examples (every root example runs; a panic, non-zero exit or hang fails) =="
# The test leg above only builds the examples. Most of them check their
# products against schoolbook, and the service demos build configs from
# the public structs and print `to_json()`, so this also smoke-tests the
# config declarations. Each run is capped at 300 s (the slowest example
# takes about 30 s), so a hang fails the leg and names the example
# instead of stalling CI.
cargo build --release -q --examples
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  echo "-- $name --"
  status=0
  timeout 300 cargo run --release -q --example "$name" >/dev/null || status=$?
  if ((status == 124)); then
    echo "ci.sh: example $name did not finish within 300 s" >&2
    exit 1
  elif ((status != 0)); then
    echo "ci.sh: example $name failed with exit status $status" >&2
    exit "$status"
  fi
done

echo "== repository benchmark: build and test (ftbench/, its own workspace) =="
# ftbench/ is a separate cargo workspace, so the workspace test above
# never compiles it; this leg catches an ft-service or ft-http API change
# that would break the benchmark before the benchmark itself runs.
cargo test --release --offline --manifest-path ftbench/Cargo.toml

echo "== kernel bench smoke (--quick, counting allocator) =="
# Reduced-matrix run of the kernel baseline: catches perf/allocation cliffs
# and keeps the counting-allocator build compiling. Does not rewrite
# BENCH_kernels.json (that is the full run's job).
cargo run --release -q -p ft-bench --features count-allocs --bin kernel_baseline -- --quick

echo "== batch throughput smoke (--quick) =="
# Reduced run of the async/bulk batching bench: asserts every request is
# served and residue-verified through both the per-request and coalesced
# paths. The ≥1.3x speedup acceptance is the full run's job (it also
# rewrites BENCH_service.json).
cargo run --release -q -p ft-bench --bin batch_throughput -- --quick

echo "== HTTP e2e smoke (real sockets, ephemeral port) =="
# Boots the ft-http front door on an ephemeral loopback port and drives
# mixed traffic (singles, a streamed NDJSON batch, config/metrics
# scrapes, every documented error status) through the real socket
# client; all products are checked bit-exact.
cargo test -p ft-http --test e2e -q

echo "== HTTP connection-cap e2e (over-cap 503s, readmission) =="
# A front door capped at 4 connections: in-cap clients keep being
# served, every over-cap connect gets an unprompted 503 + close (no
# hangs), the reject counter is exact, and a freed slot re-admits.
cargo test -p ft-http --test admission -q

echo "== shard-failover e2e (3 shards, kill mid-load, zero lost) =="
# A 3-shard router behind the real front door: one shard is killed while
# open-loop requests are queued behind its busy big lane. The heartbeat
# monitor must declare the death, stranded work must fail over to the
# survivors, every in-flight request must complete bit-exact, and the
# topology/metrics endpoints must report the death and the failovers.
cargo test -p ft-http --test shard_failover -q

echo "== sharded router suite (placement, stealing, stall/rejoin) =="
# Service-level topology tests: rendezvous stability proptests, chaos
# shard kills, hot-shard work stealing, saturation-only shedding, the
# stall -> dead -> rejoin lifecycle, and the conservation proptest
# (every accepted request resolves exactly once under random kills and
# stalls).
cargo test -p ft-service --test router -q

echo "== HTTP load generator smoke (--quick, closed + open loop) =="
# Reduced loadgen runs: 2 client threads over real keep-alive
# connections, every response verified, graceful drain asserted — once
# closed-loop, once open-loop (fixed send schedule, latency includes
# queueing). The full run (no flags) is the one that rewrites
# BENCH_http.json.
cargo run --release -q -p ft-http --bin loadgen -- --quick
cargo run --release -q -p ft-http --bin loadgen -- --quick --rate 120
# Same smoke against a 3-shard topology behind the front door.
cargo run --release -q -p ft-http --bin loadgen -- --quick --shards 3

echo "== verify bench smoke (--quick) =="
# Reduced run of the product-check cost bench: asserts the check costs at
# most 5% of the multiply from 50 kbit up. The full run (no flags) adds
# the 9 Mbit NTT row and merges the verify section into
# BENCH_service.json.
cargo run --release -q -p ft-bench --bin verify_overhead -- --quick

echo "== chaos pass (deterministic seed matrix) =="
# Injected-fault tests must stay reproducible and gating: every fault
# decision derives from the seed, independent of scheduling. The matrix
# re-runs the service chaos suite (mixed-kernel AND NTT-served legs, and
# the breaker on repeat and intermittent corrupters), the machine-level
# chaos suite (including the coded-NTT machine), and the
# distributed-backend e2e (including the check of distributed products)
# under three seeds so a lucky default seed can't hide a recovery bug.
for seed in 42 1337 2024; do
  echo "-- FT_CHAOS_SEED=$seed --"
  FT_CHAOS_SEED=$seed cargo test -p ft-service --test chaos -q
  FT_CHAOS_SEED=$seed cargo test -p ft-service --test distributed -q
  FT_CHAOS_SEED=$seed cargo test -p ft-toom --test machine_chaos -q
done

echo "== chaos pass (residue-evading corruption) =="
# The same service chaos suite (mixed-kernel and NTT-served legs) with
# the injector switched to deltas that are divisible by 2^128 - 1 —
# invisible to a check modulo 2^64 +- 1 by construction. The default
# config now carries these runs: its check modulo two secret primes
# must catch every one, and the suite asserts zero corrupt responses and
# exactly one verification failure per injected corruption.
for seed in 42 1337; do
  echo "-- FT_CHAOS_SEED=$seed FT_CHAOS_CORRUPTION=residue_evading --"
  FT_CHAOS_SEED=$seed FT_CHAOS_CORRUPTION=residue_evading \
    cargo test -p ft-service --test chaos -q
done

echo "ci.sh: all checks passed"
