#!/usr/bin/env bash
# Run every ftbench workload once and print each result.
#   bash ftbench/run_all.sh [seed] [seconds] [trace]
# Exits non-zero if any run fails or reports a wrong product.
set -u
seed=${1:-1}
seconds=${2:-25}
trace=${3:-0}
cd "$(dirname "$0")/.."
status=0
for workload in small big mixed faulted; do
    echo "== $workload"
    cargo run --release --offline --quiet --manifest-path ftbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
done
exit $status
