package lr

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// AsyncConfig configures SSP training (the extension beyond the paper's BSP
// execution; see internal/ps.SSPClock).
type AsyncConfig struct {
	Config
	// Staleness bounds how many clocks apart the fastest and slowest worker
	// may drift: 0 is BSP lockstep, large values approach fully async. It is
	// SSP training's one freshness knob: every weight read goes to the
	// servers, so no cache policy adds a second bound.
	Staleness int
}

// AsyncModel is the result of SSP training. TrainAsync returns it as soon as
// the workers are spawned; call Wait to block until every worker finishes its
// iteration budget, or stop the simulation early (simnet.RunUntil) and read
// the model state wherever training got to — the pattern the ext-ssp
// experiment uses to measure progress at a fixed wall-clock budget.
type AsyncModel struct {
	Weights *ps.Matrix
	Clock   *ps.SSPClock
	Trace   *core.Trace // mean batch loss indexed by global clock

	run *core.SSP
}

// Wait blocks until every worker has finished its iterations or failed, and
// returns the error of the lowest-numbered worker that failed.
func (m *AsyncModel) Wait(p *simnet.Proc) error { return m.run.Wait(p) }

// UpdatesApplied returns the total number of worker iterations completed so
// far (the sum of all SSP clocks).
func (m *AsyncModel) UpdatesApplied() int {
	total := 0
	for w := 0; w < m.Clock.Workers(); w++ {
		total += m.Clock.Clock(w)
	}
	return total
}

// TrainAsync trains LR under the Stale Synchronous Parallel model: the
// gradient task of every parameter-server strategy, run by one worker per
// partition under the SSP gate (core.RunSSP) instead of a stage barrier.
// Worker w Bernoulli-samples its own partition each iteration and pushes its
// gradient, scaled by LearningRate/√(it+1), straight into the weight row.
// With a straggling executor, bounded staleness lets fast workers run ahead
// instead of idling at a barrier.
func TrainAsync(p *simnet.Proc, e *core.Engine, parts [][]data.Instance, dim int, cfg AsyncConfig) (*AsyncModel, error) {
	switch {
	case cfg.Iterations <= 0:
		return nil, errors.New("lr: iterations must be positive")
	case len(parts) == 0 || len(parts) > len(e.Cluster.Executors):
		return nil, fmt.Errorf("lr: need 1..%d partitions, got %d", len(e.Cluster.Executors), len(parts))
	case cfg.CheckpointEvery != 0:
		return nil, errors.New("lr: SSP training does not checkpoint; unset Config.CheckpointEvery")
	case cfg.NoFusion:
		return nil, errors.New("lr: SSP training has no optimizer step to fuse; unset Config.NoFusion")
	case cfg.Replicas != nil:
		return nil, errors.New("lr: SSP training does not replicate hot columns; unset Config.Replicas")
	case cfg.Cache != nil:
		return nil, errors.New("lr: SSP training reads its weights from the servers under the SSP bound; unset Config.Cache")
	}
	mat, err := e.PS.CreateMatrix(p, 1, dim)
	if err != nil {
		return nil, err
	}
	weights := func(tc *rdd.TaskContext, indices []int) ([]float64, error) {
		return mat.PullRowIndices(tc.P, tc.Node, 0, indices)
	}
	rngs := make([]*linalg.RNG, len(parts))
	for w := range parts {
		rngs[w] = linalg.NewRNG(cfg.Seed*13 + uint64(w))
	}
	run := core.RunSSP(p, e, len(parts), cfg.Staleness, cfg.Iterations, func(tc *rdd.TaskContext, w, it int) (core.Summary, error) {
		push := func(tc *rdd.TaskContext, rows []data.Instance, grad *linalg.SparseVector) error {
			eta := cfg.LearningRate / math.Sqrt(float64(it+1)) / float64(len(rows)) / float64(len(parts))
			linalg.Scale(-eta, grad.Values)
			return mat.PushAdd(tc.P, tc.Node, 0, grad)
		}
		return gradientTask(tc, rdd.Bernoulli(parts[w], cfg.BatchFraction, rngs[w]), cfg.Objective, weights, push)
	})
	run.Trace.Name = fmt.Sprintf("SSP-%d", cfg.Staleness)
	return &AsyncModel{Weights: mat, Clock: run.Clock, Trace: run.Trace, run: run}, nil
}

// FinalWeights pulls the trained async model to the caller.
func (m *AsyncModel) FinalWeights(p *simnet.Proc, from *simnet.Node) ([]float64, error) {
	return m.Weights.PullRow(p, from, 0)
}
