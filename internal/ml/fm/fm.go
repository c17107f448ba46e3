// Package fm implements a second-order Factorization Machine on PS2. The
// paper's introduction names FM alongside LR as the classification models
// Tencent runs over 200M-feature user profiles; like Adam-for-LR it is a
// "multiple vectors as the model" workload: one first-order weight vector
// plus K factor vectors, all dimension co-located DCVs, with sparse pulls of
// each batch's features and server-side axpy updates.
//
// The model is
//
//	y(x) = Σ_i w_i x_i + ½ Σ_f [ (Σ_i v_{i,f} x_i)² − Σ_i v_{i,f}² x_i² ]
//
// trained on logistic loss with mini-batch SGD.
package fm

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dcv"
	"repro/internal/linalg"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Config holds the FM hyperparameters.
type Config struct {
	Factors       int // K, the latent dimension
	LearningRate  float64
	BatchFraction float64
	Iterations    int
	InitScale     float64 // stddev of the factor initialization
	Seed          uint64
}

// DefaultConfig returns a standard small-factor configuration.
func DefaultConfig() Config {
	return Config{Factors: 8, LearningRate: 0.1, BatchFraction: 0.2, Iterations: 40, InitScale: 0.1, Seed: 77}
}

// Model is the trained output: the first-order weights and the K factor
// vectors, all rows of one co-located raw matrix.
type Model struct {
	Weights *dcv.Vector
	Factors []*dcv.Vector
	Trace   *core.Trace
}

// Train fits the FM on PS2, as a strategy of the shared loop.
func Train(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg Config) (*Model, error) {
	if cfg.Factors < 1 || cfg.Iterations <= 0 || dim <= 0 {
		return nil, fmt.Errorf("fm: invalid config K=%d iters=%d dim=%d", cfg.Factors, cfg.Iterations, dim)
	}
	// Rows: w, grad_w, then (v_f, grad_v_f) per factor — all co-located.
	k := cfg.Factors
	w, err := e.DCV.Dense(p, dim, 2+2*k)
	if err != nil {
		return nil, err
	}
	m := &fm{e: e, cfg: cfg, w: w, gradW: w.MustDerive(), factors: make([]*dcv.Vector, k), gradV: make([]*dcv.Vector, k)}
	driver := e.Driver()
	if err := m.gradW.Zero(p, driver); err != nil {
		return nil, err
	}
	for f := 0; f < k; f++ {
		m.factors[f] = w.MustDerive()
		m.gradV[f] = w.MustDerive()
		if err := m.gradV[f].Zero(p, driver); err != nil {
			return nil, err
		}
	}
	if err := initFactors(p, e, m.factors, cfg); err != nil {
		return nil, err
	}
	trace, err := core.Run(p, e, dataset, cfg.BatchFraction, cfg.Seed, cfg.Iterations, m)
	if err != nil {
		return nil, err
	}
	trace.Name = "PS2-FM"
	return &Model{Weights: w, Factors: m.factors, Trace: trace}, nil
}

// fm is the FM's strategy: a task sparse-pulls its batch's features from
// every model row and pushes their gradients with DCV adds; the driver steps
// every row server-side at the barrier.
type fm struct {
	e              *core.Engine
	cfg            Config
	w, gradW       *dcv.Vector
	factors, gradV []*dcv.Vector
}

func (m *fm) Round(p *simnet.Proc, batch *rdd.RDD[data.Instance], it int) ([]core.Summary, error) {
	cost := m.e.Cluster.Cost
	k := m.cfg.Factors
	return rdd.RunPartitions(p, batch, core.SummaryBytes, func(tc *rdd.TaskContext, part int, rows []data.Instance) (core.Summary, error) {
		if len(rows) == 0 {
			return core.Summary{}, nil
		}
		idx := lr.DistinctIndices(rows)
		pos := make(map[int]int, len(idx))
		for i, ix := range idx {
			pos[ix] = i
		}
		// Sparse pulls: weights plus every factor row at the batch's
		// feature indices.
		wv, err := m.w.PullIndices(tc.P, tc.Node, idx, nil)
		if err != nil {
			return core.Summary{}, err
		}
		vv := make([][]float64, k)
		for f := 0; f < k; f++ {
			if vv[f], err = m.factors[f].PullIndices(tc.P, tc.Node, idx, nil); err != nil {
				return core.Summary{}, err
			}
		}
		dw := make([]float64, len(idx))
		dv := make([][]float64, k)
		for f := range dv {
			dv[f] = make([]float64, len(idx))
		}
		var lossSum float64
		sums := make([]float64, k)
		for _, inst := range rows {
			fv := inst.Features
			// Margin.
			var z float64
			for t, ix := range fv.Indices {
				z += wv[pos[ix]] * fv.Values[t]
			}
			for f := 0; f < k; f++ {
				var s, s2 float64
				for t, ix := range fv.Indices {
					vx := vv[f][pos[ix]] * fv.Values[t]
					s += vx
					s2 += vx * vx
				}
				sums[f] = s
				z += 0.5 * (s*s - s2)
			}
			g := linalg.Sigmoid(z) - inst.Label
			lossSum += linalg.LogLoss(z, inst.Label)
			// Gradients.
			for t, ix := range fv.Indices {
				i := pos[ix]
				x := fv.Values[t]
				dw[i] += g * x
				for f := 0; f < k; f++ {
					dv[f][i] += g * x * (sums[f] - vv[f][i]*x)
				}
			}
		}
		tc.Charge(cost.GradWork(lr.TotalNnz(rows) * (k + 1)))
		tc.Commit()
		// Push gradients with DCV add; idx is sorted, and so are its nonzeros.
		push := func(target *dcv.Vector, vals []float64) error {
			gi := make([]int, 0, len(idx))
			gv := make([]float64, 0, len(idx))
			for i, ix := range idx {
				if vals[i] != 0 {
					gi = append(gi, ix)
					gv = append(gv, vals[i])
				}
			}
			if len(gi) == 0 {
				return nil
			}
			return target.Add(tc.P, tc.Node, &linalg.SparseVector{Indices: gi, Values: gv})
		}
		err = push(m.gradW, dw)
		for f := 0; f < k && err == nil; f++ {
			err = push(m.gradV[f], dv[f])
		}
		return core.Summary{Sum: lossSum, Weight: len(rows)}, err
	})
}

// Barrier is a server-side SGD step on every model vector, then clears the
// gradients.
func (m *fm) Barrier(p *simnet.Proc, it, count int) error {
	driver := m.e.Driver()
	eta := m.cfg.LearningRate / math.Sqrt(float64(it+1)) / float64(count)
	if err := m.w.Axpy(p, driver, -eta, m.gradW); err != nil {
		return err
	}
	if err := m.gradW.Zero(p, driver); err != nil {
		return err
	}
	for f := range m.factors {
		if err := m.factors[f].Axpy(p, driver, -eta, m.gradV[f]); err != nil {
			return err
		}
		if err := m.gradV[f].Zero(p, driver); err != nil {
			return err
		}
	}
	return nil
}

// initFactors gives the factor rows small random values, server-side: one
// seeded command per server, which fills its part of every factor row.
func initFactors(p *simnet.Proc, e *core.Engine, factors []*dcv.Vector, cfg Config) error {
	cost := e.Cluster.Cost
	rows := make([]int, len(factors))
	for f, v := range factors {
		rows[f] = v.Row()
	}
	_, err := factors[0].Matrix().Invoke(p, e.Driver(), ps.InvokeOp{
		Work:      func(width int) float64 { return cost.ElemWork(len(rows) * width) },
		Mutates:   true,
		DirtyRows: rows,
		Fn: func(s int, sh *ps.Shard) float64 {
			rng := linalg.NewRNG(cfg.Seed*131 + uint64(s))
			for _, r := range rows {
				row := sh.Dense(r)
				for i := range row {
					row[i] = rng.NormFloat64() * cfg.InitScale
				}
			}
			return 0
		},
	})
	return err
}

// Predict computes the FM margin for one instance against pulled model
// slices (host-side evaluation helper).
func Predict(inst data.Instance, w []float64, factors [][]float64) float64 {
	fv := inst.Features
	var z float64
	for t, ix := range fv.Indices {
		z += w[ix] * fv.Values[t]
	}
	for f := range factors {
		var s, s2 float64
		for t, ix := range fv.Indices {
			vx := factors[f][ix] * fv.Values[t]
			s += vx
			s2 += vx * vx
		}
		z += 0.5 * (s*s - s2)
	}
	return z
}

// EvalLoss computes mean logistic loss over instances.
func EvalLoss(instances []data.Instance, w []float64, factors [][]float64) float64 {
	if len(instances) == 0 {
		return math.NaN()
	}
	var total float64
	for _, inst := range instances {
		total += linalg.LogLoss(Predict(inst, w, factors), inst.Label)
	}
	return total / float64(len(instances))
}

// Accuracy computes classification accuracy over instances.
func Accuracy(instances []data.Instance, w []float64, factors [][]float64) float64 {
	if len(instances) == 0 {
		return math.NaN()
	}
	correct := 0
	for _, inst := range instances {
		pred := 0.0
		if Predict(inst, w, factors) > 0 {
			pred = 1
		}
		if pred == inst.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(instances))
}
