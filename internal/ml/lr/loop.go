package lr

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Summary is one task's share of an iteration's mean batch loss.
type Summary struct {
	Loss  float64
	Count int
}

// SummaryBytes is what a Summary costs on the wire back to the driver.
const SummaryBytes = 24

// Strategy is what one system brings to the training loop (Run): where the
// model lives, how a task reads weights and returns its gradient, and what
// the driver does at the stage barrier. PS2 (Train) and the LR baselines are
// strategies; the paper credits every speedup between them to these choices.
type Strategy interface {
	// Setup places the model before the first iteration.
	Setup(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg Config) error
	// Round runs iteration it over its mini-batch; one summary per task.
	Round(p *simnet.Proc, batch *rdd.RDD[data.Instance], it int) []Summary
	// Barrier is the driver's work after a round whose batch held count
	// examples; Run skips it for an empty batch.
	Barrier(p *simnet.Proc, it, count int) error
}

// checkpointer is a strategy with work after the trace point: PS2's.
type checkpointer interface {
	checkpoint(p *simnet.Proc, it int)
}

// Run is the one LR training loop. Every strategy draws iteration it's
// mini-batch from the same seed, so systems compared from one seed see the
// same rows, and records the same mean batch loss after its barrier.
//
// A traced run records each iteration, up to its trace point, as a
// driver-lane loop.iter span tiled by a "round" and a "barrier" loop.phase
// span; each phase is the driver's trace context while it runs, so the stages
// and tasks it starts nest under it.
func Run(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg Config, s Strategy) (*core.Trace, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("lr: iterations must be positive")
	}
	if err := s.Setup(p, e, dataset, dim, cfg); err != nil {
		return nil, err
	}
	trace := &core.Trace{}
	spans := loopSpans{t: p.Sim().Tracer(), driver: e.Driver()}
	for it := 0; it < cfg.Iterations; it++ {
		spans.begin(p, it)
		spans.phase(p, "round")
		loss, count := 0.0, 0
		for _, st := range s.Round(p, dataset.Sample(cfg.BatchFraction, cfg.Seed+uint64(it)), it) {
			loss += st.Loss
			count += st.Count
		}
		if count == 0 {
			spans.end(p)
			continue
		}
		spans.phase(p, "barrier")
		if err := s.Barrier(p, it, count); err != nil {
			spans.end(p)
			return nil, err
		}
		trace.Add(p.Now(), loss/float64(count))
		spans.end(p)
		if c, ok := s.(checkpointer); ok {
			c.checkpoint(p, it)
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

// GradientStage is the stage every parameter-server strategy runs: each task
// indexes its rows, reads the weights of the index's features (weights
// returns them aligned with indices), computes the batch gradient, pays for
// it, commits and ships it. ship owns grad.
func GradientStage(p *simnet.Proc, e *core.Engine, batch *rdd.RDD[data.Instance], obj Objective,
	weights func(tc *rdd.TaskContext, indices []int) []float64,
	ship func(tc *rdd.TaskContext, rows []data.Instance, grad *linalg.SparseVector)) []Summary {
	cost := e.Cluster.Cost
	return rdd.RunPartitions(p, batch, SummaryBytes, func(tc *rdd.TaskContext, part int, rows []data.Instance) Summary {
		if len(rows) == 0 {
			return Summary{}
		}
		var b BatchIndex
		b.Build(rows)
		g := make([]float64, len(b.Indices))
		loss := b.Gradient(obj, rows, weights(tc, b.Indices), g)
		tc.Charge(cost.GradWork(TotalNnz(rows)))
		tc.Commit()
		idx, vals := b.Sparse(g)
		ship(tc, rows, &linalg.SparseVector{Indices: idx, Values: vals})
		return Summary{Loss: loss, Count: len(rows)}
	})
}
