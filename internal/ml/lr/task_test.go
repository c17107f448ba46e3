package lr

import (
	"hash/fnv"
	"math"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// TestWarmTaskAllocsIndependentOfShards pins what one warm PS2 LR task
// allocates: Build, the sparse pull into the partition's weight buffer, the
// gradient, Charge, Commit and the gradient push, on a simulated cluster of
// 2 servers and of 20. The index, weights and gradient are the partition's
// scratch; what is left is the pull's and the push's split and call records,
// none of it per server.
func TestWarmTaskAllocsIndependentOfShards(t *testing.T) {
	if raceBuild() {
		t.Skip("under -race sync.Pool drops a random share of Puts, so Build's pooled scratch is reallocated now and then; scripts/check.sh runs this gate without -race")
	}
	const want = 10
	ds := smallDataset(t, 400, 4000)
	rows := ds.Instances[:100]
	measure := func(servers int) float64 {
		e := newEngine(2, servers)
		var allocs float64
		e.Run(func(p *simnet.Proc) {
			s := &ps2{opt: NewAdam()}
			if err := s.Setup(p, e, nil, ds.Config.Dim, DefaultConfig()); err != nil {
				t.Error(err)
				return
			}
			tc := &rdd.TaskContext{Ctx: e.RDD, P: p, Node: e.Cluster.Executors[0]}
			pull, push := s.pull, s.push
			task := func() {
				if _, err := gradientTask(tc, rows, Logistic, &s.scratch, 0, pull, push); err != nil {
					t.Fatal(err)
				}
			}
			task()
			allocs = testing.AllocsPerRun(50, task)
		})
		return allocs
	}
	two, twenty := measure(2), measure(20)
	if two != twenty || twenty != want {
		t.Fatalf("a warm gradient task allocates %v times on 2 servers and %v on 20, want %d on both", two, twenty, want)
	}
}

// probedPS2 is the PS2 strategy with its task's pull and push wrapped: every
// attempt's weight and gradient slices are kept, and the first push from
// executor doomed in iteration crashAt kills that executor halfway through,
// timed by the longest push seen from it before.
type probedPS2 struct {
	*ps2
	doomed, crashAt int

	pushSec float64
	crashed bool
	seen    map[attemptKey]attemptMem
}

type attemptKey struct{ it, part, attempt int }

type attemptMem struct {
	w, g    []float64
	died    bool  // the executor was killed during this attempt's push
	pushErr error // what that push returned
}

func (s *probedPS2) Round(p *simnet.Proc, batch *rdd.RDD[data.Instance], it int) ([]core.Summary, error) {
	key := func(tc *rdd.TaskContext) attemptKey { return attemptKey{it, tc.Part, tc.Attempt} }
	return GradientStage(p, batch, s.cfg.Objective, &s.scratch,
		func(tc *rdd.TaskContext, indices []int, out []float64) ([]float64, error) {
			w, err := s.pull(tc, indices, out)
			s.seen[key(tc)] = attemptMem{w: w}
			return w, err
		},
		func(tc *rdd.TaskContext, rows []data.Instance, grad *linalg.SparseVector) error {
			m := s.seen[key(tc)]
			m.g = grad.Values
			doomed := s.e.Cluster.Executors[s.doomed]
			if tc.Node == doomed && it == s.crashAt && !s.crashed {
				s.crashed, m.died = true, true
				p.Sim().Spawn("crash-executor", func(cp *simnet.Proc) {
					cp.Sleep(s.pushSec / 2)
					s.e.RDD.CrashExecutor(s.doomed)
				})
			}
			s.seen[key(tc)] = m
			start := tc.P.Now()
			err := s.push(tc, rows, grad)
			if tc.Node == doomed && !s.crashed {
				s.pushSec = math.Max(s.pushSec, tc.P.Now()-start)
			}
			if m.died {
				m.pushErr = err
				s.seen[key(tc)] = m
			}
			return err
		})
}

// TestRetriedTaskGetsFreshScratch kills an executor while its gradient push
// is in flight. The retried attempt must not compute in the dead attempt's
// weight or gradient memory, which an unfinished call of the dead attempt
// may still read, and the run must end where it ended before tasks kept
// scratch across iterations: the same weights, bit for bit, and the same
// final loss.
func TestRetriedTaskGetsFreshScratch(t *testing.T) {
	ds := smallDataset(t, 800, 2000)
	e := newEngine(4, 2)
	cfg := DefaultConfig()
	cfg.Iterations, cfg.BatchFraction = 8, 0.5
	s := &probedPS2{ps2: &ps2{opt: NewSGD()}, doomed: 1, crashAt: 5, seen: map[attemptKey]attemptMem{}}
	var weights []float64
	e.Run(func(p *simnet.Proc) {
		if _, err := Run(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, s); err != nil {
			t.Error(err)
			return
		}
		weights = s.weight.Pull(p, e.Driver())
	})
	if weights == nil {
		t.FailNow()
	}
	if !s.crashed || e.RDD.ExecutorFailures == 0 {
		t.Fatalf("no attempt died in its push (crashed=%v, executor failures=%d)", s.crashed, e.RDD.ExecutorFailures)
	}
	retries := 0
	for k, dead := range s.seen {
		if !dead.died {
			continue
		}
		if dead.pushErr == nil {
			t.Errorf("iteration %d partition %d: the push the crash cut returned no error", k.it, k.part)
		}
		for k2, retry := range s.seen {
			if k2.it != k.it || k2.part != k.part || k2.attempt <= k.attempt {
				continue
			}
			retries++
			for _, pair := range [][2][]float64{{retry.w, dead.w}, {retry.g, dead.g}, {retry.w, dead.g}, {retry.g, dead.w}} {
				if overlaps(pair[0], pair[1]) {
					t.Errorf("iteration %d partition %d: attempt %d computes in memory attempt %d held when it died",
						k.it, k.part, k2.attempt, k.attempt)
				}
			}
		}
	}
	if retries == 0 {
		t.Fatal("the dead attempt was never retried")
	}
	h := fnv.New64a()
	for _, w := range weights {
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&w)), 8))
	}
	loss := EvalLoss(Logistic, ds.Instances, weights)
	const wantHash, wantLoss = 0x570f1085f08e52b8, 0.6062353070256465
	if h.Sum64() != wantHash || loss != wantLoss {
		t.Fatalf("weights hash %#x, loss %v; want %#x, %v", h.Sum64(), loss, uint64(wantHash), wantLoss)
	}
}

// overlaps reports whether a and b share any memory.
func overlaps(a, b []float64) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+8*uintptr(cap(b)) && pb < pa+8*uintptr(cap(a))
}
