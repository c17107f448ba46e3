package baselines

import (
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

type mllibStar struct {
	localSteps int
	e          *core.Engine
	cfg        lr.Config
	models     [][]float64
}

// MLlibStar reproduces MLlib* (Zhang et al., ICDE'19 — the paper's
// reference [34]): every executor keeps a local model replica, runs
// localSteps mini-batch SGD steps over its partition each round, and the
// replicas are averaged with a ring AllReduce — no parameter servers and no
// driver in the data path at all. It trades statistical efficiency (model
// averaging) for communication locality.
func MLlibStar(localSteps int) lr.Strategy { return &mllibStar{localSteps: max(localSteps, 1)} }

func (m *mllibStar) Setup(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg lr.Config) error {
	m.e, m.cfg = e, cfg
	m.models = make([][]float64, dataset.Partitions())
	for i := range m.models {
		m.models[i] = make([]float64, dim)
	}
	return nil
}

func (m *mllibStar) Round(p *simnet.Proc, batch *rdd.RDD[data.Instance], it int) ([]core.Summary, error) {
	eta := m.cfg.LearningRate / math.Sqrt(float64(it+1))
	cost := m.e.Cluster.Cost
	return rdd.RunPartitions(p, batch, core.SummaryBytes, func(tc *rdd.TaskContext, part int, rows []data.Instance) (core.Summary, error) {
		tc.Commit()
		if len(rows) == 0 {
			return core.Summary{}, nil
		}
		local := m.models[part]
		var lossSum float64
		per := (len(rows) + m.localSteps - 1) / m.localSteps
		for lo := 0; lo < len(rows); lo += per {
			hi := min(len(rows), lo+per)
			g, loss := lr.BatchGradient(m.cfg.Objective, rows[lo:hi], func(i int) float64 { return local[i] })
			lossSum += loss
			step := eta / float64(hi-lo)
			for i, v := range g {
				local[i] -= step * v
			}
		}
		tc.Charge(cost.GradWork(lr.TotalNnz(rows)))
		return core.Summary{Sum: lossSum, Weight: len(rows)}, nil
	})
}

// Barrier averages the replicas; an empty batch (no Barrier) pays no ring.
func (m *mllibStar) Barrier(p *simnet.Proc, it, count int) error {
	// Ring AllReduce of the dense model replicas: each executor sends
	// 2(W-1) chunks of dim/W values.
	cost := m.e.Cluster.Cost
	execs := m.e.Cluster.Executors
	w, dim := len(execs), len(m.models[0])
	if w > 1 {
		chunk := cost.DenseBytes(dim) / float64(w)
		for step := 0; step < 2*(w-1); step++ {
			g := p.Sim().NewGroup()
			for i := 0; i < w; i++ {
				src, dst := execs[i], execs[(i+1)%w]
				g.Go("mllibstar-ring", func(cp *simnet.Proc) {
					src.Send(cp, dst, chunk)
					dst.Compute(cp, cost.RequestHandleWork+cost.ElemWork(dim/w))
				})
			}
			g.Wait(p)
		}
	}
	// Host-side averaging (the simulation charged the ring above).
	avg := make([]float64, dim)
	for _, model := range m.models {
		linalg.Axpy(1, model, avg)
	}
	linalg.Scale(1/float64(len(m.models)), avg)
	for _, model := range m.models {
		copy(model, avg)
	}
	return nil
}
