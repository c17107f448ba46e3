package rdd

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// Tests for whole-executor loss: rescheduling onto survivors, lineage
// recomputation of cached partitions, mid-stage crash recovery, and the
// stability of doomed-task placement.

func TestCrashExecutorReschedulesPartitions(t *testing.T) {
	sim, ctx := testCluster(4)
	r := FromSlices(ctx, intParts(40, 8)).Cache()
	runJob(sim, func(p *simnet.Proc) {
		before := Collect(p, r, 8)
		ctx.CrashExecutor(1)
		if ctx.ExecutorAlive(1) {
			t.Error("crashed executor still schedulable")
		}
		// Partitions 1 and 5 lived on executor 1; they must now map to a
		// survivor, and results must be identical via lineage recompute.
		for _, part := range []int{1, 5} {
			if ctx.Owner(part) == ctx.Cl.Executors[1] {
				t.Errorf("partition %d still owned by the dead executor", part)
			}
		}
		after := Collect(p, r, 8)
		if len(after) != len(before) {
			t.Fatalf("collect after crash: %d rows, want %d", len(after), len(before))
		}
		for i := range after {
			if after[i] != before[i] {
				t.Fatalf("row %d = %v after crash, want %v", i, after[i], before[i])
			}
		}
		if ctx.ExecutorCrashes != 1 {
			t.Fatalf("ExecutorCrashes = %d, want 1", ctx.ExecutorCrashes)
		}
	})
}

func TestCrashExecutorMidStage(t *testing.T) {
	// The crash lands while the stage's tasks are computing: the in-flight
	// attempts on the dead machine abort and the driver reschedules them on
	// survivors, so the stage still completes with the right answer.
	sim, ctx := testCluster(4)
	parts := intParts(40, 8)
	slow := Source(ctx, len(parts), func(tc *TaskContext, part int) []int {
		tc.Charge(1e9) // long enough that the crash lands mid-task
		out := make([]int, len(parts[part]))
		for i, v := range parts[part] {
			out[i] = v * 2
		}
		return out
	})
	stop := sim.NewSignal()
	sim.StartFaultPlan(&simnet.FaultPlan{Actions: []simnet.FaultAction{
		{At: 0.05, Name: "crash-exec-2", Do: func() { ctx.CrashExecutor(2) }},
	}}, stop)
	runJob(sim, func(p *simnet.Proc) {
		sum := 0
		for _, v := range Collect(p, slow, 8) {
			sum += v
		}
		stop.Fire()
		want := 2 * (39 * 40 / 2)
		if sum != want {
			t.Fatalf("sum = %d after mid-stage crash, want %d", sum, want)
		}
		if ctx.ExecutorFailures == 0 {
			t.Error("no task attempts died with the executor — crash missed the stage")
		}
	})
}

func TestCrashExecutorInvalidatesItsCache(t *testing.T) {
	sim, ctx := testCluster(3)
	computes := make(map[int]int)
	base := Source(ctx, 6, func(tc *TaskContext, part int) []int {
		computes[part]++
		return []int{part}
	}).Cache()
	runJob(sim, func(p *simnet.Proc) {
		Collect(p, base, 8)
		ctx.CrashExecutor(0) // hosted partitions 0 and 3
		Collect(p, base, 8)
		for part := 0; part < 6; part++ {
			want := 1
			if part%3 == 0 {
				want = 2 // dropped with the machine, recomputed from lineage
			}
			if computes[part] != want {
				t.Errorf("partition %d computed %d times, want %d", part, computes[part], want)
			}
		}
	})
}

func TestAllExecutorsDeadPanics(t *testing.T) {
	_, ctx := testCluster(2)
	ctx.CrashExecutor(0)
	ctx.CrashExecutor(1)
	defer func() {
		if recover() == nil {
			t.Fatal("ownerIndex with zero live executors did not panic")
		}
	}()
	ctx.Owner(0)
}

func TestCrashExecutorIdempotent(t *testing.T) {
	_, ctx := testCluster(3)
	ctx.CrashExecutor(1)
	ctx.CrashExecutor(1)
	if ctx.ExecutorCrashes != 1 {
		t.Fatalf("ExecutorCrashes = %d after double crash, want 1", ctx.ExecutorCrashes)
	}
}

func TestDoomedDrawIsPureFunctionOfTaskIdentity(t *testing.T) {
	// Satellite: fault placement derives from (seed, dataset, partition,
	// attempt), not from a shared generator whose consumption order depends
	// on scheduling history.
	_, a := testCluster(2)
	_, b := testCluster(2)
	a.FailProb, b.FailProb = 0.3, 0.3
	for d := 1; d < 5; d++ {
		for part := 0; part < 8; part++ {
			for attempt := 1; attempt < 4; attempt++ {
				if a.doomedDraw(d, part, attempt) != b.doomedDraw(d, part, attempt) {
					t.Fatalf("draw (%d,%d,%d) differs between identical contexts", d, part, attempt)
				}
			}
		}
	}
	// Burn unrelated draws on a: placement for a given identity must not move.
	before := a.doomedDraw(3, 5, 1)
	for i := 0; i < 100; i++ {
		a.doomedDraw(7, i, 1)
	}
	if a.doomedDraw(3, 5, 1) != before {
		t.Fatal("unrelated draws shifted an existing task's fault placement")
	}
	// Different seeds must place faults differently somewhere.
	b.Seed(0xbeef)
	diff := false
	for part := 0; part < 64 && !diff; part++ {
		diff = a.doomedDraw(1, part, 1) != b.doomedDraw(1, part, 1)
	}
	if !diff {
		t.Fatal("reseeding never changed any draw")
	}
}

func TestFailureInjectionStableWhenUnrelatedStagesAdded(t *testing.T) {
	// Two runs of the same doomed stage see identical failure counts even
	// when one run executes extra unrelated stages first — the draws are keyed
	// by task identity, so earlier work cannot reshuffle them.
	countFailures := func(warmup bool) int {
		sim, ctx := testCluster(3)
		ctx.FailProb = 0.25
		extra := FromSlices(ctx, intParts(12, 3))
		target := FromSlices(ctx, intParts(30, 6)) // same dataset id both runs
		runJob(sim, func(p *simnet.Proc) {
			if warmup {
				Collect(p, extra, 8)
				Collect(p, extra, 8)
			}
			before := ctx.TaskFailures
			Collect(p, target, 8)
			ctx.TaskFailures -= before // isolate the target stage's failures
		})
		return ctx.TaskFailures
	}
	if a, b := countFailures(false), countFailures(true); a != b {
		t.Fatalf("target stage failed %d vs %d times depending on unrelated stages", a, b)
	}
}

// TestTaskRetriedWhenExecutorDiesInsidePSPull covers the path every PS2
// training stage relies on: a task body calls a parameter-server operator
// through ps.Must, its executor dies while the pull is in flight, the
// operator's ErrNodeDown error becomes a panic carrying that same error, and
// runAttempt turns it into a retry on a survivor — the stage result is what
// a fault-free run returns.
func TestTaskRetriedWhenExecutorDiesInsidePSPull(t *testing.T) {
	sim := simnet.New()
	cfg := cluster.DefaultConfig()
	cfg.Executors, cfg.Servers = 4, 2
	cl := cluster.New(sim, cfg)
	ctx := NewContext(cl)
	master := ps.NewMaster(cl)
	const dim = 1 << 16
	doomed := cl.Executors[2]
	runJob(sim, func(p *simnet.Proc) {
		mat, err := master.CreateMatrix(p, 1, dim)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, dim)
		for c := range vals {
			vals[c] = float64(c % 7)
		}
		ps.MustOK(mat.SetRow(p, cl.Driver, 0, vals))
		// How long one pull from the doomed machine takes, so the crash can
		// be timed to land halfway through the task's.
		t0 := p.Now()
		ps.Must(mat.PullRow(p, doomed, 0))
		pullSec := p.Now() - t0

		crashed := false
		r := FromSlices(ctx, intParts(40, 8))
		sums := RunPartitions(p, r, 8, func(tc *TaskContext, part int, rows []int) float64 {
			if tc.Node == doomed && !crashed {
				crashed = true
				sim.Spawn("crash-exec-2", func(cp *simnet.Proc) {
					cp.Sleep(pullSec / 2)
					ctx.CrashExecutor(2)
				})
			}
			w := ps.Must(mat.PullRow(tc.P, tc.Node, 0))
			var sum float64
			for _, i := range rows {
				sum += w[i]
			}
			tc.Commit()
			return sum
		})
		for part, rows := range intParts(40, 8) {
			var want float64
			for _, i := range rows {
				want += vals[i]
			}
			if sums[part] != want {
				t.Errorf("partition %d sum = %v after the crash, want %v", part, sums[part], want)
			}
		}
		if !crashed || ctx.ExecutorFailures == 0 {
			t.Errorf("no attempt died inside the pull (crashed=%v, executor failures=%d)", crashed, ctx.ExecutorFailures)
		}
	})
}
