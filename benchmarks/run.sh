#!/usr/bin/env bash
# Builds ps2perf from source and runs it from the repo root. Every file the
# Go toolchain writes (build cache, module cache, telemetry) is kept under
# .bench_build/ in the checkout, so a run touches nothing outside it.
#
#   bash benchmarks/run.sh                                  # full report
#   bash benchmarks/run.sh --workload tcp-lr-sparse --seed 3 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/benchmarks" && go build -o "$build/bin/ps2perf" ./ps2perf)
cd "$root"
exec "$build/bin/ps2perf" "$@"
