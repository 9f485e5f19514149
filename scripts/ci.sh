#!/usr/bin/env bash
# Tier-1 verification plus the hygiene gates: the one entry point local
# runs, bench runs, and the roadmap's "tier-1 verify" all share.
#
# Usage: scripts/ci.sh [--with-scenarios]
#   --with-scenarios   additionally run the full declarative scenario
#                      suite (scenarios/*.scn).
#
# Always runs: rustfmt check, clippy with warnings denied (the
# documented `#[allow]` seams in-tree are the only accepted ones),
# build, tests, the byte-identity pins again at one and four worker
# lanes, and a one-scenario smoke of the composed tree-adversary +
# partition spec.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy -q --offline --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test -q =="
cargo test -q --offline

echo "== byte-identity pins at BA_PAR_THREADS=1 and 4 =="
# Outcomes are byte-identical per seed at any worker count: rerun the
# equivalence pins (batched vs unbatched envelopes, committed traces and
# scenario results, the committee kernel against its reference, the
# NetTransport calendar against its event-queue reference, the committed
# golden outcome digests) on one lane and on four.
for threads in 1 4; do
    echo "-- BA_PAR_THREADS=$threads"
    BA_PAR_THREADS=$threads cargo test -q --offline -p king-saia \
        --test net_equivalence --test golden_outcomes
    BA_PAR_THREADS=$threads cargo test -q --offline -p ba-bench \
        --test trace_pinned --test scenario_pinned
    BA_PAR_THREADS=$threads cargo test -q --offline -p ba-core --test aeba_kernel
    BA_PAR_THREADS=$threads cargo test -q --offline -p ba-net --test calendar
done

echo "== scenario smoke (composed tree adversary + partition) =="
cargo run --release --offline -p ba-bench --bin scenario -- \
    scenarios/10-composed-tree-partition.scn

echo "== trace smoke (phase attribution sums to total_bits) =="
# A traced scenario run digested by trace-report --check: fails unless
# every trial's per-phase bit attribution sums exactly to its
# total_bits (the ba-obs accounting invariant).
TRACE_TMP="$(mktemp)"
trap 'rm -f "$TRACE_TMP"' EXIT
cargo run --release --offline -p ba-bench --bin scenario -- \
    --trace "$TRACE_TMP" scenarios/03-partition-during-election.scn
cargo run --release --offline -p ba-bench --bin trace-report -- \
    --check "$TRACE_TMP"

echo "== hunt smoke (seed-pinned, budget-bounded) =="
# The adversary search must keep rediscovering the coordinator-
# equivocation break against the leader-based baselines within a small
# budget (< 60 s); --expect fails the gate the day it stops finding it.
cargo run --release --offline -p ba-bench --bin hunt -- \
    --seed 7 --budget 150 --expect equivocate

echo "== serve smoke (TCP daemon, one session, graceful shutdown) =="
# Boots the ba-serve daemon on an ephemeral loopback port, runs a few
# sessions through the load client, and requires: every session reaches
# agreement, the daemon drains cleanly on shutdown, and the whole dance
# fits in a timeout (a hung accept loop or switch deadlock fails here).
SERVE_ADDR="$(mktemp)"
SERVE_LOG="$(mktemp)"
trap 'rm -f "$TRACE_TMP" "$SERVE_ADDR" "$SERVE_LOG"' EXIT
rm -f "$SERVE_ADDR"
timeout 180 target/release/serve \
    --port-file "$SERVE_ADDR" --workers 2 --queue 4 &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -s "$SERVE_ADDR" ]] && break; sleep 0.1; done
[[ -s "$SERVE_ADDR" ]] || { echo "serve: daemon never published its port"; exit 1; }
timeout 120 target/release/load \
    --port-file "$SERVE_ADDR" --sessions 4 --concurrency 2 --shutdown \
    | tee "$SERVE_LOG"
grep -q "all_agreed = true" "$SERVE_LOG" \
    || { echo "serve: sessions completed without full agreement"; exit 1; }
wait "$SERVE_PID"

echo "== scale smoke (everywhere stack end-to-end at n = 4096) =="
# One seed of the full Algorithm 4 stack under exp_scale's scale
# profile: exercises the batched-envelope tournament, the cached
# sampler registry, and the arena share trees at a four-digit n. The
# budget is generous (the run is ~10 s release on one core); blowing
# it means a scale regression, not noise.
timeout 120 cargo run --release --offline -p ba-bench --bin exp_scale -- \
    --max-n 4096

echo "== pinned regression scenarios =="
cargo run --release --offline -p ba-bench --bin scenario -- scenarios/regressions

if [[ "${1:-}" == "--with-scenarios" ]]; then
    echo "== full scenario suite =="
    cargo run --release --offline -p ba-bench --bin scenario -- scenarios
fi

echo "ci: OK"
