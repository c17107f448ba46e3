package core

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Summary is one task's share of an iteration's trace value, Sum over Weight:
// LR's batch loss over its examples, LDA's log-likelihood over its tokens.
type Summary struct {
	Sum    float64
	Weight int
}

// SummaryBytes is what a Summary costs on the wire back to the driver.
const SummaryBytes = 24

// Strategy is what one system brings to the training loop (Run): how a task
// reads the model and returns its update, and the driver's work at the stage
// barrier. The paper credits every speedup between systems to these choices.
type Strategy[Row any] interface {
	// Round runs iteration it over its mini-batch; one summary per task.
	Round(p *simnet.Proc, batch *rdd.RDD[Row], it int) []Summary
	// Barrier is the driver's work after a round whose summaries weigh
	// weight in all (examples, tokens); Run skips it for an empty batch.
	Barrier(p *simnet.Proc, it, weight int) error
}

// Epilogue is a strategy whose rounds change a parameter-server matrix. After
// each trace point Run ticks the matrix's model clock (ps/serve.go), then the
// worker cache's clocks, and checkpoints the matrix every checkpointEvery
// iterations, so an iteration's recorded time leaves its checkpoint out.
type Epilogue interface {
	Epilogue() (mat *ps.Matrix, cache *ps.CachedClient, checkpointEvery int)
}

// Run is the one mini-batch training loop. Iteration it trains on
// dataset.Sample(fraction, seed+it), so systems compared from one seed see the
// same rows; Run sums the tasks' summaries, skips the barrier of an empty
// batch, and records Sum over Weight after the barrier.
//
// A traced run records each iteration, up to its trace point, as a
// driver-lane loop.iter span tiled by a "round" and a "barrier" loop.phase
// span; each phase is the driver's trace context while it runs, so the stages
// and tasks it starts nest under it.
func Run[Row any](p *simnet.Proc, e *Engine, dataset *rdd.RDD[Row], fraction float64, seed uint64, iterations int, s Strategy[Row]) (*Trace, error) {
	trace := &Trace{}
	spans := loopSpans{t: p.Sim().Tracer(), driver: e.Driver()}
	epilogue, _ := s.(Epilogue)
	for it := 0; it < iterations; it++ {
		spans.begin(p, it)
		spans.phase(p, "round")
		sum, weight := 0.0, 0
		for _, st := range s.Round(p, dataset.Sample(fraction, seed+uint64(it)), it) {
			sum += st.Sum
			weight += st.Weight
		}
		if weight == 0 {
			spans.end(p)
			continue
		}
		spans.phase(p, "barrier")
		if err := s.Barrier(p, it, weight); err != nil {
			spans.end(p)
			return nil, err
		}
		trace.Add(p.Now(), sum/float64(weight))
		spans.end(p)
		if epilogue != nil {
			mat, cache, every := epilogue.Epilogue()
			mat.TickClock()
			if cache != nil {
				cache.Tick()
			}
			if every > 0 && (it+1)%every == 0 {
				e.PS.Checkpoint(p, mat)
			}
		}
	}
	return trace, nil
}

// loopSpans opens Run's spans on the driver's lane. With the tracer off every
// method is one nil check.
type loopSpans struct {
	t      *obs.Tracer
	driver *simnet.Node
	iter   obs.Span
	cur    obs.Span // the open phase
	prev   obs.Span // the driver's trace context before the iteration
}

func (l *loopSpans) begin(p *simnet.Proc, it int) {
	if l.t == nil {
		return
	}
	l.iter = l.t.Begin(l.driver.ID, l.driver.Name, obs.KIteration, "iter "+strconv.Itoa(it), p.TraceParent())
	l.prev = p.SetTraceParent(l.iter)
}

// phase ends the open phase and opens the named one as p's trace context.
func (l *loopSpans) phase(p *simnet.Proc, name string) {
	if l.t == nil {
		return
	}
	l.cur.End()
	l.cur = l.t.Begin(l.driver.ID, l.driver.Name, obs.KLoopPhase, name, l.iter)
	p.SetTraceParent(l.cur)
}

// end closes the open phase and the iteration and restores p's trace context.
func (l *loopSpans) end(p *simnet.Proc) {
	if l.t == nil {
		return
	}
	l.cur.End()
	l.iter.End()
	p.SetTraceParent(l.prev)
}
