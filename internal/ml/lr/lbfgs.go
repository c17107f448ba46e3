package lr

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dcv"
	"repro/internal/linalg"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// LBFGSConfig configures the L-BFGS trainer (paper Section 5.2.4 lists
// L-BFGS among the implemented optimizers). Unlike the SGD family it uses
// full-batch gradients and keeps a curvature history of m (s, y) pairs, all
// stored as co-located DCVs so the two-loop recursion runs as a sequence of
// server-side dot/axpy operators with only scalars on the wire.
type LBFGSConfig struct {
	Iterations int
	History    int     // m, the number of curvature pairs
	StepSize   float64 // fixed step along the search direction
	Seed       uint64
}

// DefaultLBFGSConfig returns a standard configuration.
func DefaultLBFGSConfig() LBFGSConfig {
	return LBFGSConfig{Iterations: 20, History: 5, StepSize: 0.5, Seed: 42}
}

// TrainLBFGS minimizes the logistic loss with L-BFGS on PS2, as a strategy of
// the shared loop run at fraction 1 (every iteration's batch is the dataset).
func TrainLBFGS(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg LBFGSConfig) (*Model, error) {
	if cfg.Iterations <= 0 || cfg.History <= 0 {
		return nil, fmt.Errorf("lr: invalid L-BFGS config %+v", cfg)
	}
	m := cfg.History
	// Rows: w, grad, prevW, prevG, q, m×s, m×y.
	w, err := e.DCV.Dense(p, dim, 5+2*m)
	if err != nil {
		return nil, err
	}
	s := &lbfgs{e: e, cfg: cfg, w: w, grad: w.MustDerive(), prevW: w.MustDerive(), prevG: w.MustDerive(), q: w.MustDerive(),
		sHist: make([]*dcv.Vector, m), yHist: make([]*dcv.Vector, m), rho: make([]float64, m), alpha: make([]float64, m)}
	// All 4+2m working vectors are co-located with w, so one fused request per
	// server zeroes the lot instead of a fan-out per vector.
	init := dcv.NewBatch(w).Zero(s.grad).Zero(s.prevW).Zero(s.prevG).Zero(s.q)
	for i := 0; i < m; i++ {
		s.sHist[i] = w.MustDerive()
		s.yHist[i] = w.MustDerive()
		init.Zero(s.sHist[i]).Zero(s.yHist[i])
	}
	if err := init.Run(p, e.Driver()); err != nil {
		return nil, err
	}
	trace, err := core.Run(p, e, dataset, 1, cfg.Seed, cfg.Iterations, s)
	if err != nil {
		return nil, err
	}
	trace.Name = "PS2-LBFGS"
	return &Model{Weights: w, Trace: trace}, nil
}

// lbfgs is L-BFGS's strategy: a round is the full-gradient pass, and the
// barrier runs the two-loop recursion over co-located DCVs and steps.
type lbfgs struct {
	e                        *core.Engine
	cfg                      LBFGSConfig
	w, grad, prevW, prevG, q *dcv.Vector
	sHist, yHist             []*dcv.Vector
	rho, alpha               []float64
	pairs, next              int // valid history pairs, ring-buffer position
	scratch                  Scratch
}

// Round sums the batch gradient into grad, which the previous barrier left
// zero.
func (s *lbfgs) Round(p *simnet.Proc, batch *rdd.RDD[data.Instance], it int) ([]core.Summary, error) {
	return GradientStage(p, batch, Logistic, &s.scratch, func(tc *rdd.TaskContext, indices []int, out []float64) ([]float64, error) {
		return s.w.PullIndices(tc.P, tc.Node, indices, out)
	}, func(tc *rdd.TaskContext, _ []data.Instance, g *linalg.SparseVector) error {
		return s.grad.Add(tc.P, tc.Node, g)
	})
}

func (s *lbfgs) Barrier(p *simnet.Proc, it, count int) error {
	driver := s.e.Driver()
	m := s.cfg.History
	if err := s.grad.Scale(p, driver, 1/float64(count)); err != nil {
		return err
	}
	// The whole bookkeeping block — curvature pair s = w − prevW,
	// y = grad − prevG, the <s, y> reduction, the prevW/prevG/q snapshots and
	// the gradient reset for the next round — touches only co-located
	// vectors, so it fuses into one request per server. Ops execute in
	// recorded order on each shard, which keeps the snapshot copies after the
	// subtractions they feed and the reset after the copies.
	b := dcv.NewBatch(s.w)
	var sy *dcv.Scalar
	slot := s.next
	if it > 0 {
		s.next = (s.next + 1) % m
		if s.pairs < m {
			s.pairs++
		}
		b.CopyFrom(s.sHist[slot], s.w).SubVec(s.sHist[slot], s.prevW)
		b.CopyFrom(s.yHist[slot], s.grad).SubVec(s.yHist[slot], s.prevG)
		sy = b.Dot(s.sHist[slot], s.yHist[slot])
	}
	b.CopyFrom(s.prevW, s.w).CopyFrom(s.prevG, s.grad)
	// Two-loop recursion over co-located DCVs; q starts at the gradient.
	b.CopyFrom(s.q, s.grad).Zero(s.grad)
	if err := b.Run(p, driver); err != nil {
		return err
	}
	if it > 0 {
		if sy.Value() <= 1e-12 {
			// Skip non-curvature pairs (can happen with fixed steps).
			s.pairs--
			s.next = slot
		} else {
			s.rho[slot] = 1 / sy.Value()
		}
	}
	for k := 0; k < s.pairs; k++ {
		i := (s.next - 1 - k + 2*m) % m
		sq, err := s.sHist[i].Dot(p, driver, s.q)
		if err != nil {
			return err
		}
		s.alpha[i] = s.rho[i] * sq
		if err := s.q.Axpy(p, driver, -s.alpha[i], s.yHist[i]); err != nil {
			return err
		}
	}
	if s.pairs > 0 {
		newest := (s.next - 1 + m) % m
		yy, err := s.yHist[newest].Dot(p, driver, s.yHist[newest])
		if err != nil {
			return err
		}
		if yy > 1e-12 {
			if err := s.q.Scale(p, driver, 1/(s.rho[newest]*yy)); err != nil {
				return err
			}
		}
	}
	for k := s.pairs - 1; k >= 0; k-- {
		i := (s.next - 1 - k + 2*m) % m
		yq, err := s.yHist[i].Dot(p, driver, s.q)
		if err != nil {
			return err
		}
		beta := s.rho[i] * yq
		if err := s.q.Axpy(p, driver, s.alpha[i]-beta, s.sHist[i]); err != nil {
			return err
		}
	}
	// Descend along -q with a fixed step.
	return s.w.Axpy(p, driver, -s.cfg.StepSize, s.q)
}
