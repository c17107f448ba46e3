package core

import (
	"errors"
	"slices"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

var errBarrier = errors.New("barrier failed")

// stub is a strategy over an RDD of ints whose model is a one-row matrix read
// through a worker cache. Its tasks only count their rows. Every round
// checks what the epilogue has done so far: the model clock counts the
// recorded iterations, and the first executor's cached pull is a hit unless
// the cache ticked since the previous round. Before each checkpoint it
// brings the second executor's entry up to date and spawns an observer that
// looks while the checkpoint is in flight.
type stub struct {
	t      *testing.T
	e      *Engine
	mat    *ps.Matrix
	cache  *ps.CachedClient
	every  int
	failAt int // the first barrier at or after this iteration fails; -1 for none

	rounds    int
	recorded  int  // barriers that returned nil: trace points
	ticked    bool // whether the previous round's iteration was recorded
	observers int  // checkpoints observed in flight
}

// pullHit pulls the matrix's one row through the cache from executor x and
// reports whether the cache served it without a round trip.
func (s *stub) pullHit(p *simnet.Proc, x int) bool {
	hits := s.e.PS.Cache.Hits
	if _, err := s.cache.PullRowIndices(p, s.e.Cluster.Executors[x], 0, []int{0, 1}); err != nil {
		s.t.Error(err)
	}
	return s.e.PS.Cache.Hits > hits
}

func (s *stub) Round(p *simnet.Proc, batch *rdd.RDD[int], it int) ([]Summary, error) {
	if got := s.mat.Clock(); got != int64(s.recorded) {
		s.t.Errorf("iteration %d: model clock %d after %d recorded iterations", it, got, s.recorded)
	}
	if hit := s.pullHit(p, 0); hit == s.ticked {
		s.t.Errorf("iteration %d: cached pull hit=%v, but the previous iteration recorded=%v", it, hit, s.ticked)
	}
	s.ticked = false
	s.rounds++
	return rdd.RunPartitions(p, batch, SummaryBytes, func(tc *rdd.TaskContext, part int, rows []int) (Summary, error) {
		tc.Commit()
		return Summary{Sum: float64(len(rows)), Weight: len(rows)}, nil
	})
}

func (s *stub) Barrier(p *simnet.Proc, it, count int) error {
	if s.failAt >= 0 && it >= s.failAt {
		return errBarrier
	}
	s.recorded++
	s.ticked = true
	if (it+1)%s.every == 0 {
		s.pullHit(p, 1) // the second executor's entry is current until the cache ticks
		written := s.e.PS.Recovery.CheckpointBytesFull
		p.Sim().Spawn("observer", func(op *simnet.Proc) {
			op.Sleep(1e-9)
			if s.e.PS.Recovery.CheckpointBytesFull != written {
				s.t.Errorf("iteration %d: checkpoint finished before the observer looked", it)
			}
			if got := s.mat.Clock(); got != int64(s.recorded) {
				s.t.Errorf("iteration %d: checkpoint ran at model clock %d, before the tick to %d", it, got, s.recorded)
			}
			if s.pullHit(op, 1) {
				s.t.Errorf("iteration %d: checkpoint ran before the cache tick", it)
			}
			s.observers++
		})
	}
	return nil
}

func (s *stub) Epilogue() (*ps.Matrix, *ps.CachedClient, int) { return s.mat, s.cache, s.every }

// TestRunClosesLoopSpans runs the loop traced through empty batches and a
// failing barrier. Every iteration and phase span it opened is closed, the
// round and barrier are each iteration's only phases, and the driver's trace
// context is restored when Run returns. The epilogue (model clock tick, cache
// tick, checkpoint every k) runs after each recorded trace point, in that
// order, and never after an empty batch or a failed barrier.
func TestRunClosesLoopSpans(t *testing.T) {
	const iterations, fraction, every = 12, 0.1, 2
	parts := [][]int{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}} // about one row a batch: some batches are empty
	for _, failing := range []bool{false, true} {
		opt := DefaultOptions()
		opt.Executors, opt.Servers, opt.Trace = 2, 1, true
		e := NewEngine(opt)
		s := &stub{t: t, e: e, every: every, failAt: -1}
		if failing {
			s.failAt = iterations / 2
		}
		var trace *Trace
		e.Run(func(p *simnet.Proc) {
			var err error
			if s.mat, err = e.PS.CreateMatrix(p, 1, 2); err != nil {
				t.Error(err)
				return
			}
			s.cache = ps.NewCachedClient(s.mat, ps.CacheConfig{})
			s.pullHit(p, 0) // warm both executors' entries at clock 0
			s.pullHit(p, 1)
			trace, err = Run(p, e, rdd.FromSlices(e.RDD, parts), fraction, 3, iterations, s)
			if failing != errors.Is(err, errBarrier) {
				t.Errorf("failing=%v: Run returned %v", failing, err)
			}
			if p.TraceParent().OK() {
				t.Errorf("failing=%v: Run left the driver inside span %d", failing, p.TraceParent().ID())
			}
			if got := s.mat.Clock(); got != int64(s.recorded) {
				t.Errorf("failing=%v: model clock %d after %d recorded iterations", failing, got, s.recorded)
			}
		})
		if !failing && (s.rounds != iterations || trace.Len() != s.recorded) {
			t.Errorf("%d rounds and %d trace points for %d iterations, %d recorded", s.rounds, trace.Len(), iterations, s.recorded)
		}
		if s.observers == 0 {
			t.Errorf("failing=%v: no checkpoint was observed", failing)
		}
		events := e.Tracer().Events()
		iters, empty, full := 0, 0, 0
		for _, ev := range events {
			if ev.Kind != obs.KIteration && ev.Kind != obs.KLoopPhase {
				continue
			}
			if ev.End < ev.Start {
				t.Fatalf("failing=%v: %s %q left open", failing, ev.Kind, ev.Name)
			}
			if ev.Kind == obs.KIteration {
				iters++
				var phases []string
				for _, c := range events {
					if c.Parent == ev.ID && c.Kind == obs.KLoopPhase {
						phases = append(phases, c.Name)
					}
				}
				switch len(phases) {
				case 1:
					empty++
				case 2:
					full++
				default:
					t.Fatalf("failing=%v: %s has phases %v", failing, ev.Name, phases)
				}
				if phases[0] != "round" || len(phases) == 2 && phases[1] != "barrier" {
					t.Fatalf("failing=%v: %s has phases %v, want round then barrier", failing, ev.Name, phases)
				}
			}
		}
		if iters != s.rounds || empty == 0 || full == 0 {
			t.Fatalf("failing=%v: %d iterations, %d empty, %d with a barrier; want %d with some of each",
				failing, iters, empty, full, s.rounds)
		}
	}
}

// TestRunSSPHoldsTheClockBound runs the SSP gate traced, with one executor
// slowed, at staleness 0 and 2, and reads the bound off the loop's own spans:
// every worker records exactly one loop.iter span per iteration on its
// executor's lane, and no worker's span for iteration it begins before every
// other worker's span for it−s−1 has ended (Dai et al.'s clock bound). At
// staleness 2 the fast workers do run ahead of the straggler.
func TestRunSSPHoldsTheClockBound(t *testing.T) {
	const workers, iterations = 3, 10
	for _, staleness := range []int{0, 2} {
		opt := DefaultOptions()
		opt.Executors, opt.Servers, opt.Trace = workers, 1, true
		e := NewEngine(opt)
		e.Cluster.Executors[0].SlowDown(5)
		var run *SSP
		e.Run(func(p *simnet.Proc) {
			run = RunSSP(p, e, workers, staleness, iterations, func(tc *rdd.TaskContext, w, it int) (Summary, error) {
				tc.Charge(e.Cluster.Cost.GradWork(1000))
				return Summary{Sum: float64(w), Weight: 1}, nil
			})
			if err := run.Wait(p); err != nil {
				t.Error(err)
			}
		})
		for w := 0; w < workers; w++ {
			if got := run.Clock.Clock(w); got != iterations {
				t.Fatalf("staleness %d: worker %d ended at clock %d, want %d", staleness, w, got, iterations)
			}
		}
		if run.Trace.Len() != iterations || run.Trace.Final() != 1 {
			t.Fatalf("staleness %d: trace %v, want %d points of mean worker index 1", staleness, run.Trace, iterations)
		}
		// spans[w][it] is worker w's span for iteration it.
		lanes := e.Tracer().Lanes()
		spans := make([][]obs.Event, workers)
		for _, ev := range e.Tracer().Events() {
			if ev.Kind != obs.KIteration {
				continue
			}
			w := -1
			for x, n := range e.Cluster.Executors {
				if lanes[ev.Lane].Node == n.ID {
					w = x
				}
			}
			if w < 0 {
				t.Fatalf("staleness %d: %s on lane %s, not an executor's", staleness, ev.Name, lanes[ev.Lane].Name)
			}
			if want := "iter " + strconv.Itoa(len(spans[w])); ev.Name != want {
				t.Fatalf("staleness %d: worker %d's span %q, want %q", staleness, w, ev.Name, want)
			}
			spans[w] = append(spans[w], ev)
		}
		ahead := false
		for w := range spans {
			if len(spans[w]) != iterations {
				t.Fatalf("staleness %d: worker %d recorded %d iterations, want %d", staleness, w, len(spans[w]), iterations)
			}
			for it := staleness + 1; it < iterations; it++ {
				for v := range spans {
					if begin, end := spans[w][it].Start, spans[v][it-staleness-1].End; begin < end {
						t.Errorf("staleness %d: worker %d began iteration %d at %v, before worker %d ended iteration %d at %v",
							staleness, w, it, begin, v, it-staleness-1, end)
					}
				}
			}
			for it := 1; it < iterations; it++ {
				ahead = ahead || spans[w][it].Start < spans[0][it-1].End
			}
		}
		if ahead != (staleness > 0) {
			t.Errorf("staleness %d: a worker ran ahead of the straggler = %v, want %v", staleness, ahead, staleness > 0)
		}
	}
}

// TestRunSSPFailedWorkerReleasesTheGate checks an SSP run's failure path
// under BSP lockstep: a worker whose task fails stops, its clock runs out so
// the others still finish every iteration, and Wait returns once all have
// ended, with the error of the lowest-numbered failed worker.
func TestRunSSPFailedWorkerReleasesTheGate(t *testing.T) {
	const workers, iterations = 3, 8
	opt := DefaultOptions()
	opt.Executors, opt.Servers = workers, 1
	e := NewEngine(opt)
	failAt := map[int]int{1: 5, 2: 2} // worker → the iteration whose task fails
	errs := map[int]error{1: errors.New("worker 1 failed"), 2: errors.New("worker 2 failed")}
	ran := make([]int, workers)
	var err error
	returned := false
	e.Run(func(p *simnet.Proc) {
		run := RunSSP(p, e, workers, 0, iterations, func(tc *rdd.TaskContext, w, it int) (Summary, error) {
			tc.Charge(e.Cluster.Cost.GradWork(1000))
			if at, ok := failAt[w]; ok && it == at {
				return Summary{}, errs[w]
			}
			ran[w]++
			return Summary{Sum: 1, Weight: 1}, nil
		})
		err = run.Wait(p)
		returned = true
	})
	if !returned {
		t.Fatal("Wait never returned: a failed worker held the clock gate")
	}
	if !errors.Is(err, errs[1]) || errors.Is(err, errs[2]) {
		t.Errorf("Wait returned %v, want worker 1's error", err)
	}
	if want := []int{iterations, 5, 2}; !slices.Equal(ran, want) {
		t.Errorf("iterations run per worker = %v, want %v", ran, want)
	}
}
