#!/bin/sh
# bench_snapshot.sh — regenerate the committed benchmark snapshot.
#
# Runs every registered experiment at -quick scale and writes
# BENCH_BASELINE.json, which holds only virtual (simulated) observations, so
# reruns on unchanged code are byte-identical and `git diff` on it shows real
# behaviour drift. Wall-clock numbers are benchmarks/ps2perf's job.
#
# Usage: scripts/bench_snapshot.sh [output-dir]   (default: repo root)
set -eu

cd "$(dirname "$0")/.."
out="${1:-.}"

go run ./cmd/ps2bench -all -quick -json "$out/BENCH_BASELINE.json" >/dev/null

echo "snapshot written to $out/BENCH_BASELINE.json"
