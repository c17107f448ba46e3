package lr

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// failAt is the PS2 strategy with a barrier that fails at one iteration.
type failAt struct {
	Strategy
	it int
}

var errBarrier = errors.New("barrier failed")

func (f failAt) Barrier(p *simnet.Proc, it, count int) error {
	if it == f.it {
		return errBarrier
	}
	return f.Strategy.Barrier(p, it, count)
}

// TestRunClosesLoopSpans runs the loop traced through empty batches and a
// failing barrier: every iteration and phase span it opened is closed, the
// round and barrier are each iteration's only phases, and the driver's trace
// context is restored when Run returns.
func TestRunClosesLoopSpans(t *testing.T) {
	ds := smallDataset(t, 200, 50)
	cfg := DefaultConfig()
	cfg.Iterations = 8
	cfg.BatchFraction = 0.005 // about one row a batch: some batches are empty
	for _, failing := range []bool{false, true} {
		opt := core.DefaultOptions()
		opt.Executors, opt.Servers, opt.Trace = 2, 2, true
		e := core.NewEngine(opt)
		e.Run(func(p *simnet.Proc) {
			var s Strategy = &ps2{opt: NewSGD()}
			if failing {
				s = failAt{s, cfg.Iterations - 1}
			}
			_, err := Run(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, s)
			if failing != errors.Is(err, errBarrier) {
				t.Errorf("failing=%v: Run returned %v", failing, err)
			}
			if p.TraceParent().OK() {
				t.Errorf("failing=%v: Run left the driver inside span %d", failing, p.TraceParent().ID())
			}
		})
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
		if iters != cfg.Iterations || empty == 0 || full == 0 {
			t.Fatalf("failing=%v: %d iterations, %d empty, %d with a barrier; want %d with some of each",
				failing, iters, empty, full, cfg.Iterations)
		}
	}
}
