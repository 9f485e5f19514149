#!/usr/bin/env bash
# Runs every stackbench workload, untraced then traced, from the
# repository root. Exits non-zero if any run fails a check.
#
#   stackbench/run_all.sh [SEED] [SECONDS]
set -u
seed="${1:-1}"
seconds="${2:-20}"
cd "$(dirname "$0")/.." || exit 2
status=0
for workload in scale-4096 paper-1024 faults-256; do
    for trace in 0 1; do
        cargo run --release --offline -q --manifest-path stackbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            || status=1
    done
done
exit "$status"
