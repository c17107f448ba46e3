package baselines

import (
	"repro/internal/core"
	"repro/internal/ml/gbdt"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// XGBoostGBDT returns XGBoost's strategy for gbdt.Run: a ring AllReduce gives
// every worker the summed histograms, and every worker scans them for the
// node's split, redundantly.
func XGBoostGBDT() gbdt.Strategy { return &xgboost{} }

type xgboost struct {
	e    *core.Engine
	dim  int
	g, h [][]float64 // per partition; [0] holds the sums after Aggregate
}

func (s *xgboost) Setup(_ *simnet.Proc, e *core.Engine, parts, dim int) error {
	s.e, s.dim = e, dim
	s.g, s.h = make([][]float64, parts), make([][]float64, parts)
	return nil
}

// Aggregate runs the stage, keeping each partition's histograms on its
// worker, then the ring AllReduce: every worker exchanges 2(W-1) chunks of
// size S/W with its ring neighbour (reduce-scatter followed by all-gather)
// and then holds the full sums. The sums themselves are computed once
// host-side; the simulation charges the communication and the per-chunk
// reduction compute.
func (s *xgboost) Aggregate(p *simnet.Proc, stage func(gbdt.Ship) error) error {
	err := stage(func(_ *rdd.TaskContext, part int, g, h []float64) error {
		s.g[part], s.h[part] = g, h
		return nil
	})
	if err != nil {
		return err
	}
	execs := s.e.Cluster.Executors
	w := len(execs)
	chunk := float64(s.dim) * 8 * 2 / float64(w) // grad + hess
	cost := s.e.Cluster.Cost
	for step := 0; step < 2*(w-1); step++ {
		g := p.Sim().NewGroup()
		for i := 0; i < w; i++ {
			src, dst := execs[i], execs[(i+1)%w]
			g.Go("allreduce-step", func(cp *simnet.Proc) {
				src.Send(cp, dst, chunk)
				if step < w-1 {
					dst.Compute(cp, cost.ElemWork(s.dim*2/w))
				}
			})
		}
		g.Wait(p)
	}
	for part := 1; part < len(s.g); part++ {
		for i := range s.g[0] {
			s.g[0][i] += s.g[part][i]
			s.h[0][i] += s.h[part][i]
		}
	}
	return nil
}

// Split charges the full scan on every executor in parallel, then scans.
func (s *xgboost) Split(p *simnet.Proc, n gbdt.Node) (gbdt.Split, error) {
	g := p.Sim().NewGroup()
	for _, exec := range s.e.Cluster.Executors {
		g.Go("scan", func(cp *simnet.Proc) { exec.Compute(cp, s.e.Cluster.Cost.ElemWork(s.dim)) })
	}
	g.Wait(p)
	return n.Scan(gbdt.NoSplit(), 0, s.g[0], s.h[0]), nil
}
