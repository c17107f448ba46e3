package gbdt

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/dcv"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// PS2 returns PS2's strategy (Train): the histograms are two co-located DCVs
// (paper Figure 8 lines 2-3), tasks push their local histograms with the DCV
// add operator, and split finding runs on the servers.
func PS2() Strategy { return &ps2{} }

type ps2 struct {
	e          *core.Engine
	grad, hess *dcv.Vector
}

func (s *ps2) Setup(p *simnet.Proc, e *core.Engine, _, dim int) error {
	// val gradHist = DCV.dense(dim, 2); val hessHist = derive(gradHist).
	var err error
	if s.grad, err = e.DCV.Dense(p, dim, 2); err != nil {
		return err
	}
	if err := s.grad.Fill(p, e.Driver(), 0); err != nil {
		return err
	}
	if s.hess, err = s.grad.Derive(); err != nil {
		return err
	}
	s.e = e
	return s.hess.Fill(p, e.Driver(), 0)
}

func (s *ps2) Aggregate(p *simnet.Proc, stage func(Ship)) error {
	if err := s.grad.Zero(p, s.e.Driver()); err != nil {
		return err
	}
	if err := s.hess.Zero(p, s.e.Driver()); err != nil {
		return err
	}
	stage(func(tc *rdd.TaskContext, _ int, g, h []float64) {
		// Paper Figure 8: gradHist.add(localGrad); hessHist.add(localHess).
		ps.MustOK(s.grad.AddDense(tc.P, tc.Node, g))
		ps.MustOK(s.hess.AddDense(tc.P, tc.Node, h))
	})
	return nil
}

// boundaryPiece carries a server's partial bins of a feature that straddles
// its range boundary back to the driver for exact merging.
type boundaryPiece struct {
	Feature int
	Offset  int // first bin index covered
	G, H    []float64
}

// serverSplit is one server's split-finding result.
type serverSplit struct {
	Best     Split
	Boundary []boundaryPiece
}

// Split runs the split scan server-side over the two co-located histogram
// DCVs (the paper's max operator, footnote 5): each server scans the
// features wholly in its range and returns its best split plus the raw
// partial bins of (at most two) features that straddle its range, which the
// driver merges, in feature order, and scans.
func (s *ps2) Split(p *simnet.Proc, n Node) (Split, error) {
	bins := n.cfg.Bins
	results, err := dcv.ZipReduce(p, s.e.Driver(), s.grad, s.e.Cluster.Cost.FlopsPerElem, 64,
		func(sp dcv.ShardSpan) serverSplit {
			if !sp.Contiguous() {
				// The prefix-sum scan and boundary-piece protocol assume each
				// server owns a dense bin range; create the histogram matrices
				// with the default range placement.
				panic("gbdt: split finding requires a contiguous placement")
			}
			res := serverSplit{Best: NoSplit()}
			for f := sp.Lo / bins; f*bins < sp.Hi; f++ {
				lo, hi := max(f*bins, sp.Lo), min((f+1)*bins, sp.Hi)
				g, h := sp.Rows[0][lo-sp.Lo:hi-sp.Lo], sp.Rows[1][lo-sp.Lo:hi-sp.Lo]
				if hi-lo == bins {
					res.Best = n.Scan(res.Best, f, g, h)
				} else {
					res.Boundary = append(res.Boundary, boundaryPiece{Feature: f, Offset: lo - f*bins,
						G: slices.Clone(g), H: slices.Clone(h)})
				}
			}
			return res
		}, s.hess)
	if err != nil {
		return Split{}, err
	}
	best := NoSplit()
	merged := map[int]*boundaryPiece{}
	for _, r := range results {
		if r.Best.better(best) {
			best = r.Best
		}
		for _, piece := range r.Boundary {
			m, ok := merged[piece.Feature]
			if !ok {
				m = &boundaryPiece{Feature: piece.Feature, G: make([]float64, bins), H: make([]float64, bins)}
				merged[piece.Feature] = m
			}
			for i := range piece.G {
				m.G[piece.Offset+i] += piece.G[i]
				m.H[piece.Offset+i] += piece.H[i]
			}
		}
	}
	features := make([]int, 0, len(merged))
	for f := range merged {
		features = append(features, f)
	}
	sort.Ints(features)
	for _, f := range features {
		best = n.Scan(best, f, merged[f].G, merged[f].H)
	}
	return best, nil
}
