package lr

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dcv"
	"repro/internal/linalg"
	"repro/internal/ps"
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

// TrainLBFGS minimizes the logistic loss with L-BFGS on PS2.
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
	driver := e.Driver()
	grad := w.MustDerive()
	prevW := w.MustDerive()
	prevG := w.MustDerive()
	q := w.MustDerive()
	sHist := make([]*dcv.Vector, m)
	yHist := make([]*dcv.Vector, m)
	// All 4+2m working vectors are co-located with w, so one fused request per
	// server zeroes the lot instead of a fan-out per vector.
	init := dcv.NewBatch(w).Zero(grad).Zero(prevW).Zero(prevG).Zero(q)
	for i := 0; i < m; i++ {
		sHist[i] = w.MustDerive()
		yHist[i] = w.MustDerive()
		init.Zero(sHist[i]).Zero(yHist[i])
	}
	if err := init.Run(p, driver); err != nil {
		return nil, err
	}
	rho := make([]float64, m)
	alpha := make([]float64, m)
	pairs := 0 // number of valid history pairs
	next := 0  // ring-buffer position

	trace := &core.Trace{Name: "PS2-LBFGS"}
	total := 0

	fullGradient := func() (float64, error) {
		if err := grad.Zero(p, driver); err != nil {
			return 0, err
		}
		stats := GradientStage(p, e, dataset, Logistic, func(tc *rdd.TaskContext, indices []int) []float64 {
			return ps.Must(w.PullIndices(tc.P, tc.Node, indices))
		}, func(tc *rdd.TaskContext, _ []data.Instance, g *linalg.SparseVector) {
			ps.MustOK(grad.Add(tc.P, tc.Node, g))
		})
		var lossSum float64
		total = 0
		for _, st := range stats {
			lossSum += st.Loss
			total += st.Count
		}
		if total == 0 {
			return 0, nil
		}
		return lossSum / float64(total), grad.Scale(p, driver, 1/float64(total))
	}

	for it := 0; it < cfg.Iterations; it++ {
		loss, err := fullGradient()
		if err != nil {
			return nil, err
		}
		trace.Add(p.Now(), loss)
		// The whole bookkeeping block — curvature pair s = w − prevW,
		// y = grad − prevG, the <s, y> reduction, and the prevW/prevG/q
		// snapshots — touches only co-located vectors, so it fuses into one
		// request per server. Ops execute in recorded order on each shard,
		// which keeps the snapshot copies after the subtractions they feed.
		b := dcv.NewBatch(w)
		var sy *dcv.Scalar
		slot := next
		if it > 0 {
			next = (next + 1) % m
			if pairs < m {
				pairs++
			}
			b.CopyFrom(sHist[slot], w).SubVec(sHist[slot], prevW)
			b.CopyFrom(yHist[slot], grad).SubVec(yHist[slot], prevG)
			sy = b.Dot(sHist[slot], yHist[slot])
		}
		b.CopyFrom(prevW, w).CopyFrom(prevG, grad)
		// Two-loop recursion over co-located DCVs; q starts at the gradient.
		b.CopyFrom(q, grad)
		if err := b.Run(p, driver); err != nil {
			return nil, err
		}
		if it > 0 {
			if sy.Value() <= 1e-12 {
				// Skip non-curvature pairs (can happen with fixed steps).
				pairs--
				next = slot
			} else {
				rho[slot] = 1 / sy.Value()
			}
		}
		for k := 0; k < pairs; k++ {
			i := (next - 1 - k + 2*m) % m
			sq, err := sHist[i].Dot(p, driver, q)
			if err != nil {
				return nil, err
			}
			alpha[i] = rho[i] * sq
			if err := q.Axpy(p, driver, -alpha[i], yHist[i]); err != nil {
				return nil, err
			}
		}
		if pairs > 0 {
			newest := (next - 1 + m) % m
			yy, err := yHist[newest].Dot(p, driver, yHist[newest])
			if err != nil {
				return nil, err
			}
			if yy > 1e-12 {
				if err := q.Scale(p, driver, 1/(rho[newest]*yy)); err != nil {
					return nil, err
				}
			}
		}
		for k := pairs - 1; k >= 0; k-- {
			i := (next - 1 - k + 2*m) % m
			yq, err := yHist[i].Dot(p, driver, q)
			if err != nil {
				return nil, err
			}
			beta := rho[i] * yq
			if err := q.Axpy(p, driver, alpha[i]-beta, sHist[i]); err != nil {
				return nil, err
			}
		}
		// Descend along -q with a fixed step.
		if err := w.Axpy(p, driver, -cfg.StepSize, q); err != nil {
			return nil, err
		}
	}
	return &Model{Weights: w, Trace: trace}, nil
}
