package baselines

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// TrainLRDistML trains LR on a DistML-style parameter server: the model is
// column-partitioned like PS2's, but the client offers only coarse pull/push
// — every worker pulls the full dense model each iteration — and updates are
// applied asynchronously without a barrier, so each worker's gradient is
// computed against a model that may be one iteration stale and the learning
// rate is not decayed. The paper observes DistML is "not robust": on KDDB it
// fails to converge despite hyperparameter tuning (Figure 10(a)). The
// staleness plus a constant aggressive step reproduces that behaviour: on
// well-conditioned data it converges, on ill-conditioned skewed data it
// oscillates.
func TrainLRDistML(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg lr.Config) (*core.Trace, []float64, error) {
	if cfg.Iterations <= 0 {
		return nil, nil, fmt.Errorf("baselines: iterations must be positive")
	}
	master := e.PS
	mat, err := master.CreateMatrix(p, 1, dim)
	if err != nil {
		return nil, nil, err
	}
	trace := &core.Trace{Name: "DistML"}
	cost := e.Cluster.Cost

	type stat struct {
		Loss float64
		N    int
	}
	// staleView is the model snapshot gradients are computed against; it
	// lags the server state by one iteration (asynchronous execution).
	staleView := make([]float64, dim)
	for it := 0; it < cfg.Iterations; it++ {
		batch := dataset.Sample(cfg.BatchFraction, cfg.Seed+uint64(it))
		stats := rdd.RunPartitions(p, batch, 16, func(tc *rdd.TaskContext, part int, rows []data.Instance) stat {
			if len(rows) == 0 {
				return stat{}
			}
			// Full dense pull (no sparse support in DistML's interface)...
			ps.Must(mat.PullRow(tc.P, tc.Node, 0))
			// ...but the gradient is computed against the stale snapshot:
			// other workers' pushes from this round land before this pull in
			// wall-clock order, yet DistML's async client gives no
			// consistency guarantee, which we model as one round of
			// staleness.
			g, lossSum := lr.BatchGradient(cfg.Objective, rows, func(i int) float64 { return staleView[i] })
			tc.Charge(cost.GradWork(lr.TotalNnz(rows)))
			tc.Commit()
			// Apply the update directly with a constant step (no decay) —
			// scaled by the batch, pushed sparse.
			eta := cfg.LearningRate / float64(len(rows))
			ps.MustOK(mat.PushAdd(tc.P, tc.Node, 0, linalg.SparseFromMap(g, -eta)))
			return stat{Loss: lossSum, N: len(rows)}
		})
		var lossSum float64
		var count int
		for _, st := range stats {
			lossSum += st.Loss
			count += st.N
		}
		if count > 0 {
			trace.Add(p.Now(), lossSum/float64(count))
		}
		// The stale view catches up after the round.
		copy(staleView, hostRow(mat))
	}
	return trace, staleView, nil
}

// hostRow assembles the matrix's single row from shard memory (host-side
// helper; the simulation already charged the pulls).
func hostRow(mat *ps.Matrix) []float64 {
	out := make([]float64, mat.Dim)
	for s := 0; s < mat.Part.NumServers(); s++ {
		sh := mat.ShardOf(s)
		sh.Scatter(sh.Rows[0], out)
	}
	return out
}
