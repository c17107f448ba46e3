package core

import (
	"fmt"
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
	// Round runs iteration it over its mini-batch; one summary per task, or
	// the error of a failed stage, which ends the run.
	Round(p *simnet.Proc, batch *rdd.RDD[Row], it int) ([]Summary, error)
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
// batch, and records Sum over Weight after the barrier. The first error of a
// round or a barrier ends the run and is returned.
//
// A traced run records each iteration, up to its trace point, as a
// driver-lane loop.iter span tiled by a "round" and a "barrier" loop.phase
// span; each phase is the driver's trace context while it runs, so the stages
// and tasks it starts nest under it.
func Run[Row any](p *simnet.Proc, e *Engine, dataset *rdd.RDD[Row], fraction float64, seed uint64, iterations int, s Strategy[Row]) (*Trace, error) {
	trace := &Trace{}
	spans := loopSpans{t: p.Sim().Tracer(), lane: e.Driver()}
	epilogue, _ := s.(Epilogue)
	for it := 0; it < iterations; it++ {
		spans.begin(p, it)
		spans.phase(p, "round")
		sums, err := s.Round(p, dataset.Sample(fraction, seed+uint64(it)), it)
		sum, weight := 0.0, 0
		for _, st := range sums {
			sum += st.Sum
			weight += st.Weight
		}
		if err == nil && weight > 0 {
			spans.phase(p, "barrier")
			if err = s.Barrier(p, it, weight); err == nil {
				trace.Add(p.Now(), sum/float64(weight))
			}
		}
		spans.end(p)
		if err != nil {
			return nil, err
		}
		if weight == 0 {
			continue
		}
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

// SSP is a run of RunSSP: the workers' clocks, and the trace of the mean
// summary per clock, filled once every worker has run its iterations.
type SSP struct {
	Clock *ps.SSPClock
	Trace *Trace

	group *simnet.Group
	errs  []error // by worker
}

// Wait blocks until every worker has run its iterations or failed, and
// returns the error of the lowest-numbered worker that failed.
func (s *SSP) Wait(p *simnet.Proc) error {
	s.group.Wait(p)
	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunSSP is the loop's second gate: the Stale Synchronous Parallel clock in
// place of Run's stage barrier. Worker w, a process on executor w, runs
// iteration it once no worker is more than staleness clocks behind it (0 is
// BSP lockstep); it then runs task as one attempt on its executor
// (rdd.RunTask) and ticks its clock. RunSSP returns at once, while the
// workers run; the trace's point at clock it is the summed Sum over Weight of
// every worker's task at it, recorded after the last worker finishes.
//
// A task's error ends its worker, as does the loss of its executor, which
// comes back as an error wrapping simnet.ErrNodeDown: the worker's clock runs
// out to iterations at once, so no other worker waits on it, and Wait returns
// the error.
//
// A traced run records each worker's iterations, from admission to the end
// of the task, as loop.iter spans on its executor's lane.
func RunSSP(p *simnet.Proc, e *Engine, workers, staleness, iterations int, task func(tc *rdd.TaskContext, w, it int) (Summary, error)) *SSP {
	s := &SSP{Clock: ps.NewSSPClock(p.Sim(), workers, staleness), Trace: &Trace{},
		group: p.Sim().NewGroup(), errs: make([]error, workers)}
	var byClock []Summary
	for w := 0; w < workers; w++ {
		node := e.Cluster.Executors[w]
		s.group.Go("ssp-worker-"+strconv.Itoa(w), func(wp *simnet.Proc) {
			spans := loopSpans{t: wp.Sim().Tracer(), lane: node}
			for it := 0; it < iterations; it++ {
				s.Clock.Wait(wp, it)
				spans.begin(wp, it)
				st, err := rdd.RunTask(wp, e.RDD, node, w, func(tc *rdd.TaskContext) (Summary, error) {
					return task(tc, w, it)
				})
				spans.end(wp)
				if err != nil {
					s.errs[w] = fmt.Errorf("core: SSP worker %d at clock %d: %w", w, it, err)
					for ; it < iterations; it++ {
						s.Clock.Tick(w)
					}
					return
				}
				if it == len(byClock) {
					byClock = append(byClock, Summary{})
				}
				byClock[it].Sum += st.Sum
				byClock[it].Weight += st.Weight
				s.Clock.Tick(w)
			}
		})
	}
	p.Sim().Spawn("ssp-trace", func(tp *simnet.Proc) {
		s.group.Wait(tp)
		for it, st := range byClock {
			if st.Weight > 0 {
				s.Trace.Add(float64(it), st.Sum/float64(st.Weight))
			}
		}
	})
	return s
}

// loopSpans opens the loop's spans on one machine's lane: the driver's for
// Run, an executor's for an SSP worker. With the tracer off every method is
// one nil check.
type loopSpans struct {
	t    *obs.Tracer
	lane *simnet.Node
	iter obs.Span
	cur  obs.Span // the open phase
	prev obs.Span // the process's trace context before the iteration
}

func (l *loopSpans) begin(p *simnet.Proc, it int) {
	if l.t == nil {
		return
	}
	l.iter = l.t.Begin(l.lane.ID, l.lane.Name, obs.KIteration, "iter "+strconv.Itoa(it), p.TraceParent())
	l.prev = p.SetTraceParent(l.iter)
}

// phase ends the open phase and opens the named one as p's trace context.
func (l *loopSpans) phase(p *simnet.Proc, name string) {
	if l.t == nil {
		return
	}
	l.cur.End()
	l.cur = l.t.Begin(l.lane.ID, l.lane.Name, obs.KLoopPhase, name, l.iter)
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
