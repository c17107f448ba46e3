package baselines

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

type distML struct {
	e       *core.Engine
	cfg     lr.Config
	mat     *ps.Matrix
	view    []float64 // the model tasks compute against, one round behind
	scratch lr.Scratch
}

// DistML returns the DistML strategy: the model is column-partitioned like
// PS2's, but the client offers only coarse pull/push — every worker pulls
// the full dense model each iteration — and updates are applied
// asynchronously without a barrier, so each worker's gradient is computed
// against a model that may be one iteration stale and the learning rate is
// not decayed. The paper observes DistML is "not robust": on KDDB it fails
// to converge despite hyperparameter tuning (Figure 10(a)). The staleness
// plus a constant aggressive step reproduces that behaviour: on
// well-conditioned data it converges, on ill-conditioned skewed data it
// oscillates.
func DistML() lr.Strategy { return &distML{} }

func (s *distML) Setup(p *simnet.Proc, e *core.Engine, _ *rdd.RDD[data.Instance], dim int, cfg lr.Config) error {
	var err error
	s.mat, err = e.PS.CreateMatrix(p, 1, dim)
	s.e, s.cfg, s.view = e, cfg, make([]float64, dim)
	return err
}

// Round pulls the full model but computes against the stale view: other
// workers' pushes land before the pull, yet DistML's async client gives no
// consistency guarantee, which we model as one round of staleness.
func (s *distML) Round(p *simnet.Proc, batch *rdd.RDD[data.Instance], it int) ([]core.Summary, error) {
	return lr.GradientStage(p, batch, s.cfg.Objective, &s.scratch,
		func(tc *rdd.TaskContext, indices []int, out []float64) ([]float64, error) {
			_, err := s.mat.PullRow(tc.P, tc.Node, 0)
			return gather(s.view, indices, out), err
		},
		func(tc *rdd.TaskContext, rows []data.Instance, g *linalg.SparseVector) error {
			linalg.Scale(-s.cfg.LearningRate/float64(len(rows)), g.Values)
			return s.mat.PushAdd(tc.P, tc.Node, 0, g)
		})
}

// gather sets out to full's values at indices, aligned with them, and
// returns it.
func gather(full []float64, indices []int, out []float64) []float64 {
	for k, i := range indices {
		out[k] = full[i]
	}
	return out
}

// Barrier lets the stale view catch up after the round.
func (s *distML) Barrier(*simnet.Proc, int, int) error {
	copy(s.view, hostRow(s.mat))
	return nil
}

// hostRow assembles the matrix's single row from shard memory (host-side
// helper; the simulation already charged the pulls).
func hostRow(mat *ps.Matrix) []float64 {
	out := make([]float64, mat.Dim)
	for s := 0; s < mat.Part.NumServers(); s++ {
		sh := mat.HostShard(s)
		sh.Scatter(sh.Rows[0], out)
	}
	return out
}
