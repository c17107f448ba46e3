package bench

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/ml/lr"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// iterationSpans returns a traced run's loop.iter spans in order.
func iterationSpans(t *obs.Tracer) []obs.Event {
	var out []obs.Event
	for _, ev := range t.Events() {
		if ev.Kind == obs.KIteration {
			out = append(out, ev)
		}
	}
	return out
}

// TestMLlibStepsTileIterations checks Figure 1(b)'s rule at one small sweep
// point: per iteration the four steps sum to the iteration span, and tracing
// leaves the run's loss trace exactly as it is untraced.
func TestMLlibStepsTileIterations(t *testing.T) {
	ds := sweepData(Opts{Quick: true}, 4_000)
	untraced, _ := fig1Run(ds, false)
	traced, e := fig1Run(ds, true)
	if !reflect.DeepEqual(traced.Times, untraced.Times) || !reflect.DeepEqual(traced.Values, untraced.Values) {
		t.Fatalf("tracing moved the run:\ntraced   %v %v\nuntraced %v %v",
			traced.Times, traced.Values, untraced.Times, untraced.Values)
	}
	steps, iters := mllibSteps(e.Tracer()), iterationSpans(e.Tracer())
	if len(iters) != 2 || len(steps) != len(iters) {
		t.Fatalf("%d iteration spans, %d step rows; want 2 each", len(iters), len(steps))
	}
	for i, st := range steps {
		for k, v := range st {
			if !(v > 0) {
				t.Errorf("iteration %d step %d = %v, want > 0", i, k, v)
			}
		}
		if sum := st[0] + st[1] + st[2] + st[3]; math.Abs(sum-iters[i].Dur()) > 1e-12 {
			t.Errorf("iteration %d: steps sum to %.15g, iteration span is %.15g", i, sum, iters[i].Dur())
		}
	}
}

// TestPS2PhasesTileIterations checks that lr.Run's round and barrier tile each
// iteration of a PS2 run without checkpoints.
func TestPS2PhasesTileIterations(t *testing.T) {
	ds := sweepData(Opts{Quick: true}, 4_000)
	e := tracedEngine(Opts{Trace: true}, 4, 4)
	cfg := lr.DefaultConfig()
	cfg.Iterations = 3
	cfg.BatchFraction = 0.1
	e.Run(func(p *simnet.Proc) {
		if _, err := lr.Train(p, e, instancesRDD(e, ds), ds.Config.Dim, cfg, lr.NewSGD()); err != nil {
			t.Error(err)
		}
	})
	iters := iterationSpans(e.Tracer())
	if len(iters) != cfg.Iterations {
		t.Fatalf("%d iteration spans, want %d", len(iters), cfg.Iterations)
	}
	events := e.Tracer().Events()
	phases, names := map[uint64]float64{}, map[uint64]string{}
	for _, ev := range events {
		switch {
		case ev.Kind == obs.KLoopPhase:
			phases[ev.Parent] += ev.Dur()
			names[ev.Parent] += ev.Name + " "
		case ev.Kind == obs.KStage && (ev.Parent == 0 || events[ev.Parent-1].Name != "round"):
			t.Errorf("stage %q is not nested under a round", ev.Name)
		}
	}
	for i, it := range iters {
		if names[it.ID] != "round barrier " {
			t.Errorf("iteration %d has phases %q, want round then barrier", i, names[it.ID])
		}
		if got := phases[it.ID]; math.Abs(got-it.Dur()) > 1e-12 {
			t.Errorf("iteration %d: round + barrier = %.15g, iteration span is %.15g", i, got, it.Dur())
		}
	}
}
