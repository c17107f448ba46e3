package rdd

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

// testCluster builds a small cluster and returns the sim and context.
func testCluster(executors int) (*simnet.Sim, *Context) {
	sim := simnet.New()
	cfg := cluster.DefaultConfig()
	cfg.Executors = executors
	cfg.Servers = 0
	cl := cluster.New(sim, cfg)
	return sim, NewContext(cl)
}

// runJob runs fn as the driver process and completes the simulation.
func runJob(sim *simnet.Sim, fn func(p *simnet.Proc)) {
	sim.Spawn("driver", fn)
	sim.Run()
}

// must returns v, panicking with err, which fails the run, when it is not nil.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func intParts(n, parts int) [][]int {
	out := make([][]int, parts)
	for i := 0; i < n; i++ {
		out[i%parts] = append(out[i%parts], i)
	}
	return out
}

func TestCollectRoundTrip(t *testing.T) {
	sim, ctx := testCluster(4)
	var got []int
	runJob(sim, func(p *simnet.Proc) {
		r := FromSlices(ctx, intParts(20, 4))
		got = must(Collect(p, r, 8))
	})
	if len(got) != 20 {
		t.Fatalf("collected %d rows, want 20", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	for i := 0; i < 20; i++ {
		if !seen[i] {
			t.Fatalf("missing row %d in %v", i, got)
		}
	}
}

func TestMap(t *testing.T) {
	sim, ctx := testCluster(3)
	var got []int
	runJob(sim, func(p *simnet.Proc) {
		r := FromSlices(ctx, intParts(10, 3))
		got = must(Collect(p, Map(r, func(v int) int { return v * 2 }), 8))
	})
	sort.Ints(got)
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("mapped rows = %v, want 0,2,…,18", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("got %d rows, want 10: %v", len(got), got)
	}
}

func TestCount(t *testing.T) {
	sim, ctx := testCluster(4)
	var n int
	runJob(sim, func(p *simnet.Proc) {
		r := FromSlices(ctx, intParts(37, 4))
		n = must(Count(p, r))
	})
	if n != 37 {
		t.Fatalf("count = %d, want 37", n)
	}
}

func TestAggregate(t *testing.T) {
	sim, ctx := testCluster(4)
	var got int
	runJob(sim, func(p *simnet.Proc) {
		r := FromSlices(ctx, intParts(100, 4))
		got = must(Aggregate(p, r, AggSpec[int, int]{
			Zero:  func() int { return 0 },
			Seq:   func(_ *TaskContext, acc, row int) int { return acc + row },
			Comb:  func(a, b int) int { return a + b },
			Bytes: func(int) float64 { return 8 },
		}))
	})
	if got != 4950 {
		t.Fatalf("aggregate = %d, want 4950", got)
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	sim, ctx := testCluster(2)
	var a, b, c []int
	runJob(sim, func(p *simnet.Proc) {
		r := FromSlices(ctx, intParts(1000, 2))
		a = must(Collect(p, r.Sample(0.1, 7), 8))
		b = must(Collect(p, r.Sample(0.1, 7), 8))
		c = must(Collect(p, r.Sample(0.1, 8), 8))
	})
	if len(a) != len(b) {
		t.Fatalf("same seed gave different sample sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different samples")
		}
	}
	if len(a) == 0 || len(a) > 300 {
		t.Fatalf("sample size %d implausible for fraction 0.1 of 1000", len(a))
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical samples")
	}
}

func TestCacheAvoidsRecompute(t *testing.T) {
	sim, ctx := testCluster(2)
	computes := 0
	runJob(sim, func(p *simnet.Proc) {
		base := Source(ctx, 2, func(tc *TaskContext, part int) []int {
			computes++
			return []int{part}
		})
		cached := Map(base, func(v int) int { return v }).Cache()
		must(Count(p, cached))
		must(Count(p, cached))
	})
	if computes != 2 {
		t.Fatalf("source computed %d times, want 2 (once per partition)", computes)
	}
}

func TestNoCacheRecomputes(t *testing.T) {
	sim, ctx := testCluster(2)
	computes := 0
	runJob(sim, func(p *simnet.Proc) {
		base := Source(ctx, 2, func(tc *TaskContext, part int) []int {
			computes++
			return []int{part}
		})
		must(Count(p, base))
		must(Count(p, base))
	})
	if computes != 4 {
		t.Fatalf("source computed %d times, want 4", computes)
	}
}

func TestKillExecutorTriggersLineageRecompute(t *testing.T) {
	sim, ctx := testCluster(2)
	computes := map[int]int{}
	runJob(sim, func(p *simnet.Proc) {
		base := Source(ctx, 2, func(tc *TaskContext, part int) []int {
			computes[part]++
			return []int{part * 10}
		}).Cache()
		if got := must(Count(p, base)); got != 2 {
			t.Errorf("count = %d, want 2", got)
		}
		ctx.KillExecutor(0) // partition 0 lives on executor 0
		got := must(Collect(p, base, 8))
		if len(got) != 2 {
			t.Errorf("collect after kill = %v", got)
		}
	})
	if computes[0] != 2 {
		t.Fatalf("partition 0 computed %d times, want 2 (recomputed after executor loss)", computes[0])
	}
	if computes[1] != 1 {
		t.Fatalf("partition 1 computed %d times, want 1 (unaffected)", computes[1])
	}
}

func TestTaskFailureRetriesAndConvergesToSameResult(t *testing.T) {
	sum := func(failProb float64, seed uint64) (int, int) {
		sim, ctx := testCluster(4)
		ctx.FailProb = failProb
		ctx.MaxAttempts = 100
		ctx.Seed(seed)
		var got int
		runJob(sim, func(p *simnet.Proc) {
			r := FromSlices(ctx, intParts(50, 4))
			got = must(Aggregate(p, r, AggSpec[int, int]{
				Zero:  func() int { return 0 },
				Seq:   func(_ *TaskContext, acc, row int) int { return acc + row },
				Comb:  func(a, b int) int { return a + b },
				Bytes: func(int) float64 { return 8 },
			}))
		})
		return got, ctx.TaskFailures
	}
	clean, cleanFailures := sum(0, 1)
	faulty, faultyFailures := sum(0.4, 1)
	if clean != faulty {
		t.Fatalf("failure injection changed the result: %d vs %d", clean, faulty)
	}
	if cleanFailures != 0 {
		t.Fatalf("clean run recorded %d failures", cleanFailures)
	}
	if faultyFailures == 0 {
		t.Fatal("faulty run recorded no failures at p=0.4")
	}
}

// TestStageFailsAfterMaxAttempts checks the end of the retry rule: when every
// attempt hits the injected failure, each task runs exactly MaxAttempts
// attempts and the stage returns ErrTaskAttempts instead of a result.
func TestStageFailsAfterMaxAttempts(t *testing.T) {
	sim, ctx := testCluster(3)
	ctx.FailProb = 1
	const parts = 6
	var rows []int
	var err error
	runJob(sim, func(p *simnet.Proc) {
		rows, err = Collect(p, FromSlices(ctx, intParts(30, parts)), 8)
	})
	if !errors.Is(err, ErrTaskAttempts) {
		t.Fatalf("Collect under FailProb 1 returned %v, want ErrTaskAttempts", err)
	}
	if rows != nil {
		t.Errorf("a failed stage returned rows %v", rows)
	}
	if want := parts * ctx.MaxAttempts; ctx.TasksLaunched != want || ctx.TaskFailures != want {
		t.Errorf("launched %d attempts, %d failed; want %d (%d parts × %d attempts)",
			ctx.TasksLaunched, ctx.TaskFailures, want, parts, ctx.MaxAttempts)
	}
}

// TestTaskErrorFailsStageWithoutRetry checks the other half of the rule: an
// error a body returns on a live executor is not retried, every other task
// still runs to its end, and the stage returns the lowest partition's error.
func TestTaskErrorFailsStageWithoutRetry(t *testing.T) {
	sim, ctx := testCluster(2)
	errs := []error{errors.New("part 1"), errors.New("part 3")}
	finished := 0
	var err error
	runJob(sim, func(p *simnet.Proc) {
		_, err = RunPartitions(p, FromSlices(ctx, intParts(8, 4)), 8, func(tc *TaskContext, part int, rows []int) (int, error) {
			tc.Charge(float64(4-part) * 1e6) // the later partitions fail first
			tc.Commit()
			finished++
			switch part {
			case 1:
				return 0, errs[0]
			case 3:
				return 0, errs[1]
			}
			return len(rows), nil
		})
	})
	if !errors.Is(err, errs[0]) || errors.Is(err, errs[1]) {
		t.Errorf("stage returned %v, want partition 1's error", err)
	}
	if finished != 4 || ctx.TasksLaunched != 4 {
		t.Errorf("%d bodies finished in %d attempts, want 4 in 4", finished, ctx.TasksLaunched)
	}
}

func TestTaskFailureCostsTime(t *testing.T) {
	elapsed := func(failProb float64) float64 {
		sim, ctx := testCluster(4)
		ctx.FailProb = failProb
		ctx.MaxAttempts = 1000
		var end float64
		runJob(sim, func(p *simnet.Proc) {
			r := FromSlices(ctx, intParts(40, 4))
			for i := 0; i < 20; i++ {
				must(RunPartitions(p, r, 0, func(tc *TaskContext, part int, rows []int) (struct{}, error) {
					tc.Charge(1e6)
					tc.Commit()
					return struct{}{}, nil
				}))
			}
			end = p.Now()
		})
		return end
	}
	clean := elapsed(0)
	faulty := elapsed(0.3)
	if faulty <= clean {
		t.Fatalf("failures did not slow the job: clean=%v faulty=%v", clean, faulty)
	}
}

func TestAggregateInCastSlowerThanForeach(t *testing.T) {
	// Shipping a large partial from every task to the driver must cost more
	// time than a side-effect-only stage — the heart of the MLlib bottleneck.
	timeFor := func(partialBytes float64) float64 {
		sim, ctx := testCluster(8)
		var end float64
		runJob(sim, func(p *simnet.Proc) {
			r := FromSlices(ctx, intParts(8, 8))
			must(Aggregate(p, r, AggSpec[int, int]{
				Zero:  func() int { return 0 },
				Seq:   func(_ *TaskContext, acc, row int) int { return acc + row },
				Comb:  func(a, b int) int { return a + b },
				Bytes: func(int) float64 { return partialBytes },
			}))
			end = p.Now()
		})
		return end
	}
	small := timeFor(8)
	big := timeFor(64e6)
	if big < small*10 {
		t.Fatalf("64MB partials (%vs) not much slower than 8B partials (%vs)", big, small)
	}
}

func TestBroadcastSerializesOnDriverEgress(t *testing.T) {
	sim, ctx := testCluster(10)
	var end float64
	runJob(sim, func(p *simnet.Proc) {
		ctx.Broadcast(p, 12.5e6) // 0.1s per executor at 1.25e8 B/s
		end = p.Now()
	})
	// 10 executors × 0.1s egress serialization, plus one ingress leg.
	if end < 1.0 || end > 1.3 {
		t.Fatalf("broadcast took %v, want ~1.1s", end)
	}
}

func TestSourceChargesOwner(t *testing.T) {
	sim, ctx := testCluster(2)
	runJob(sim, func(p *simnet.Proc) {
		parts := intParts(4, 2)
		work := Source(ctx, len(parts), func(tc *TaskContext, part int) []int {
			tc.Charge(1e8) // 1 core-second
			return parts[part]
		})
		must(Count(p, work))
	})
	if ctx.Cl.Executors[0].WorkDone == 0 || ctx.Cl.Executors[1].WorkDone == 0 {
		t.Fatal("work was not charged to executors")
	}
	if ctx.Cl.Driver.WorkDone != 0 {
		t.Fatal("partition work leaked onto the driver")
	}
}

// Property: Aggregate over integer addition equals the serial sum, for any
// partitioning and failure probability.
func TestAggregateSumProperty(t *testing.T) {
	f := func(rows []int16, partsRaw, failRaw uint8) bool {
		parts := int(partsRaw%6) + 1
		failProb := float64(failRaw%50) / 100.0
		sim, ctx := testCluster(3)
		ctx.FailProb = failProb
		ctx.MaxAttempts = 200
		data := make([][]int, parts)
		want := 0
		for i, v := range rows {
			data[i%parts] = append(data[i%parts], int(v))
			want += int(v)
		}
		var got int
		runJob(sim, func(p *simnet.Proc) {
			r := FromSlices(ctx, data)
			got = must(Aggregate(p, r, AggSpec[int, int]{
				Zero:  func() int { return 0 },
				Seq:   func(_ *TaskContext, acc, row int) int { return acc + row },
				Comb:  func(a, b int) int { return a + b },
				Bytes: func(int) float64 { return 8 },
			}))
		})
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFractionOneIsIdentity(t *testing.T) {
	sim, ctx := testCluster(2)
	var n int
	runJob(sim, func(p *simnet.Proc) {
		r := FromSlices(ctx, intParts(10, 2))
		n = must(Count(p, r.Sample(1.0, 3)))
	})
	if n != 10 {
		t.Fatalf("sample(1.0) count = %d, want 10", n)
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() float64 {
		sim, ctx := testCluster(4)
		var end float64
		runJob(sim, func(p *simnet.Proc) {
			r := FromSlices(ctx, intParts(40, 4))
			for i := 0; i < 5; i++ {
				must(Aggregate(p, r, AggSpec[int, []float64]{
					Zero: func() []float64 { return make([]float64, 100) },
					Seq: func(tc *TaskContext, acc []float64, row int) []float64 {
						tc.Charge(1000)
						acc[row%100]++
						return acc
					},
					Comb: func(a, b []float64) []float64 {
						for i := range a {
							a[i] += b[i]
						}
						return a
					},
					Bytes:    func([]float64) float64 { return 800 },
					CombWork: 200,
				}))
			}
			end = p.Now()
		})
		return end
	}
	a, b := run(), run()
	if math.Abs(a-b) != 0 {
		t.Fatalf("two identical runs ended at different times: %v vs %v", a, b)
	}
}
