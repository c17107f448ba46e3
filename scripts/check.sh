#!/bin/sh
# Tier-1 gate: gofmt, vet, build, and the full test suite under the race detector.
# Every PR must leave this green (see ROADMAP.md).
set -eux

cd "$(dirname "$0")/.."

# Formatting: every Go file in the tree, the benchmarks/ module's included,
# is gofmt-clean.
test -z "$(gofmt -l .)"

go vet ./...
go build ./...

# Cross-build gate: linalg's huge-page advice is Linux-only behind a build
# tag (alloc_linux.go; alloc.go holds the no-op default), so build the tree
# for a non-Linux platform and vet the package for another, or the stub could
# rot unseen.
# wire moves float sections as one copy on little-endian hosts only and value
# by value elsewhere (payload.go, nativeLE), so vet it for a big-endian one
# too. All three use the local toolchain's standard library and need no
# network.
GOOS=darwin go build ./...
GOOS=windows go vet ./internal/linalg/
GOOS=linux GOARCH=s390x go vet ./internal/wire/

# benchmarks/ is a Go module of its own, so ./... above does not reach it: an
# API deletion or rename that breaks ps2perf or its helpers' unit tests would
# otherwise stay invisible until the pipeline runs the benchmark. (-o
# /dev/null: the module's one main package would otherwise be written over its
# own source directory's name; -short skips the process-spawning TestSmoke.)
(cd benchmarks && go vet ./... && go build -o /dev/null ./... && go test -short ./...)

# Static analysis beyond vet. staticcheck is not vendored and must not be
# auto-installed here (offline/sandboxed runs); CI installs a pinned
# version, so a local machine without it just skips with a notice.
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not found; skipping (CI runs it pinned)" >&2
fi

# Observability cost gate, run by name so a regression fails loudly on its
# own line: the disabled tracer must allocate nothing on the nil fast path,
# and an untraced fixed workload must match the committed virtual-cost
# baseline exactly (the deterministic stand-in for a wall-clock overhead
# benchmark — virtual seconds and event counts are exact, so a
# disabled-tracer regression, or a reordering of the PS2 training loop's
# events, trips here before any timing could show it).
go test -race -count=1 -run 'TestNilTracer|TestTracerObservesWithoutPerturbing' ./internal/obs/ .

# Convention guards, run by name so a diet regression fails on its own line
# in seconds: no exported name under internal/ that only tests reach, and no
# exported field that programs read but only tests set (surface_test.go); no
# training loop outside the listed ones (loops_test.go); no host-side shard
# access outside the listed sites, one form per operator, no panic(err) in a
# library package and no recover outside simnet and rdd's task attempt
# (internal/ps/convention_test.go). The failure contract, by name: a server
# lost mid-training comes back from every trainer as an error
# (failure_test.go), a stage retries only lost attempts, up to MaxAttempts,
# and fails on a task's error (internal/rdd), and a failed SSP worker
# releases the clock gate (internal/core).
go test -count=1 -run 'TestInternalSurfaceIsReached|TestSurfaceGuardVerdicts|TestIterationLoopsAreListed|TestServerLossFailsTrainingWithAnError' .
go test -count=1 -run 'TestHostReadsListed|TestOneFormPerOperator|TestRecoverOnlyForTaskDeath' ./internal/ps/
go test -count=1 -run 'TestStageFailsAfterMaxAttempts|TestTaskErrorFailsStageWithoutRetry|TestTaskRetriedWhenExecutorDiesInsidePSPull' ./internal/rdd/
go test -count=1 -run 'TestRunSSPFailedWorkerReleasesTheGate' ./internal/core/

# The race detector makes the bench package's per-experiment runs take
# minutes; keep headroom over go test's 10m default so slow CI runners don't
# hit the per-package timeout.
go test -race -timeout 20m ./...

# Multi-process transport gate: real ps2serve/ps2worker processes over
# loopback TCP, asserting convergence and agreement with the simulated
# trajectory (see scripts/smoke_wire.sh).
./scripts/smoke_wire.sh

# ps2bench CLI smoke gate: every experiment already ran once in the suite
# above (TestAllExperimentsRunQuick, with its shape and snapshot checks); this line runs
# one cheap traced experiment through the CLI, its JSON writer and its trace
# writer (with the .phases.txt sidecar) so those paths cannot rot.
go run ./cmd/ps2bench -exp fig1b -quick -json "$(mktemp)" -trace "$(mktemp)" >/dev/null

# Example smoke gate: every examples/<name> demo runs once to completion, so a
# runtime panic in one cannot go unseen (the suite above only builds them).
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done

# Hot-path allocation contract, re-run WITHOUT the race detector: the
# zero-alloc guards promise exact counts in the instrumentation-free build
# that production runs, and -race (above) measures the instrumented build.
# The step-run shard call's pins are of the same kind: a CallShard round trip
# allocates nothing, a fan-out nothing per shard.
go test -count=1 -run 'ZeroAlloc|NoSortAllocs|AllocatesNothing|AllocsIndependentOfShards' ./internal/wire/ ./internal/linalg/ ./internal/ml/lr/ ./internal/simnet/ ./internal/ps/

# The simulator's layer probes, by name: the kernel's host ns per event and
# hand-offs per event on its three shapes, and the sim-lr-adam job's
# events and allocations per iteration (ROADMAP item 25).
go test -run '^$' -bench 'BenchmarkKernel|BenchmarkSimLRAdamJob' -benchtime 1x ./internal/simnet/ .

# The wire server's sparse fused executor against its dense reference, on
# schedules the fuzzer generates beyond the seed corpus the suite above ran;
# bounded so the gate's run time stays fixed.
go test -run XXX -fuzz FuzzFusedProgram -fuzztime 10s ./internal/wire/

# The server's shard rows, compact and dense, against a reference that keeps
# every row dense, on op sequences the fuzzer generates: pushes, sparse and
# range pulls (some holding their lease), fused axpy/zero/scale.
go test -run XXX -fuzz FuzzRowOps -fuzztime 10s ./internal/wire/

# The fused step's three shapes, once each: serve (tcp-serve-mixed, 1 M
# wide, 10 pushes of 4096 columns a step), dense (tcp-lr-dense, 4 M wide,
# 500 columns into a 20 k weight support) and sparse (tcp-lr-sparse, 25 k
# wide, 1000 columns).
go test -run XXX -bench BenchmarkFusedStep -benchtime 1x ./internal/wire/

# The client's piecewise range-response decode, of both layouts, on raw
# response bytes beyond its seed corpus: truncated, inflated and misaligned
# frames, and sparse pairs out of order, must fail cleanly, and a frame that
# decodes must re-encode to the bytes it consumed.
go test -run XXX -fuzz FuzzPullRangeResponse -fuzztime 10s ./internal/wire/

# Benchmark smoke gate: every benchmark in the repo must still run to
# completion (one iteration each) so `make bench` cannot rot unnoticed.
# BenchmarkGenerateClassify (the three benchmark datasets) and
# BenchmarkWideRowFirstTouch (a fresh 4 M-wide shard row's page faults) show
# the two fixed costs of the dense TCP workload; BenchmarkPullRangeWide (one
# range pull of a 4 M-wide row over loopback, fresh server against warm)
# shows its final pull twice: a dense row, which the server writes from the
# lent row, and a row with a 20 617-column support, how the workload's
# weight row ends, which ships its (column, value) pairs.
go test -run XXX -bench . -benchtime 1x ./...
