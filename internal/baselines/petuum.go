package baselines

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/lda"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

type petuum struct {
	e        *core.Engine
	cfg      lr.Config
	mat      *ps.Matrix
	expected float64 // the expected global batch
}

// Petuum returns the strategy of a Petuum-style parameter server. The weight
// vector is chunked over the servers as a Petuum table, but the client
// interface has no sparse pull: every worker fetches the entire dense model
// each iteration (paper Section 6.3.1: "Petuum has to pull all of the
// model", against PS2's pull of only the batch's features). Updates are
// sparse increments applied server-side, the same synchronous SGD step the
// PS2 trainer computes.
func Petuum() lr.Strategy { return &petuum{} }

func (s *petuum) Setup(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg lr.Config) error {
	if len(e.Cluster.Servers) == 0 {
		return fmt.Errorf("baselines: Petuum needs at least one server")
	}
	var err error
	if s.mat, err = e.PS.CreateMatrix(p, 1, dim); err != nil {
		return err
	}
	s.e, s.cfg = e, cfg
	// Synchronous SGD with server-side increments needs the batch size up
	// front; the expected global batch is fraction × |dataset|.
	n, err := rdd.Count(p, dataset)
	s.expected = float64(n) * min(cfg.BatchFraction, 1)
	return err
}

// Round pulls the full model and pushes sparse increments, applied at the
// servers.
func (s *petuum) Round(p *simnet.Proc, batch *rdd.RDD[data.Instance], it int) ([]core.Summary, error) {
	eta := s.cfg.LearningRate / math.Sqrt(float64(it+1)) / s.expected
	return lr.GradientStage(p, batch, s.cfg.Objective,
		func(tc *rdd.TaskContext, indices []int) ([]float64, error) {
			w, err := s.mat.PullRow(tc.P, tc.Node, 0)
			if err != nil {
				return nil, err
			}
			return gather(w, indices), nil
		},
		func(tc *rdd.TaskContext, _ []data.Instance, g *linalg.SparseVector) error {
			linalg.Scale(-eta, g.Values)
			return s.mat.PushAdd(tc.P, tc.Node, 0, g)
		})
}

// Barrier has nothing to do: the servers applied every increment.
func (s *petuum) Barrier(*simnet.Proc, int, int) error { return nil }

// PetuumLDA returns the strategy of the collapsed-Gibbs LDA of
// internal/ml/lda with Petuum's communication: the K×V count matrix is
// row-partitioned (each topic row whole on one server), every worker pulls
// the full matrix each iteration — no sparse pull, no compression — and the
// servers apply a task's deltas as it pushes them.
func PetuumLDA() lda.Strategy { return &petuumLDA{} }

type petuumLDA struct {
	nwt      *wordTopic // the servers' memory
	hosts    []*simnet.Node
	rowBytes float64
	states   []*lda.State
}

func (s *petuumLDA) Setup(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab int, cfg lda.Config) error {
	if len(e.Cluster.Servers) == 0 {
		return fmt.Errorf("baselines: Petuum needs servers")
	}
	cost := e.Cluster.Cost
	s.nwt, s.hosts, s.rowBytes = newWordTopic(cfg.Topics, vocab), e.Cluster.Servers, cost.DenseBytes(vocab)
	var err error
	s.states, _, err = lda.InitStage(p, docs, vocab, cfg, 8, func(tc *rdd.TaskContext, _ []data.Document, init lda.Pass) error {
		s.nwt.add(init)
		for k := range cfg.Topics {
			tc.Node.Send(tc.P, s.hostOf(k), cost.SparseBytes(init.Tokens/cfg.Topics))
		}
		return nil
	})
	return err
}

// hostOf is the server holding topic row k.
func (s *petuumLDA) hostOf(k int) *simnet.Node { return s.hosts[k%len(s.hosts)] }

// Round samples against a full pulled snapshot (the same approximate
// distributed-LDA consistency PS2 uses) and pushes the deltas sparse but
// uncompressed (8-byte values): a removal and an insertion per token.
func (s *petuumLDA) Round(p *simnet.Proc, docs *rdd.RDD[data.Document], it int) ([]core.Summary, error) {
	topics := len(s.nwt.n)
	return lda.Summaries(lda.SweepStage(p, docs, s.states, it, 16,
		func(tc *rdd.TaskContext, words []int) (map[int][]float64, []float64, error) {
			g := tc.P.Sim().NewGroup()
			for k := range topics {
				g.Go("petuum-pull", func(cp *simnet.Proc) {
					tc.Node.Send(cp, s.hostOf(k), tc.Ctx.Cl.Cost.RequestOverheadB)
					s.hostOf(k).Send(cp, tc.Node, s.rowBytes)
				})
			}
			g.Wait(tc.P)
			return s.nwt.read(tc, words)
		},
		func(tc *rdd.TaskContext, _ []int, pass lda.Pass) error {
			s.nwt.add(pass)
			for k := range topics {
				tc.Node.Send(tc.P, s.hostOf(k), tc.Ctx.Cl.Cost.RequestOverheadB+float64(2*pass.Tokens/topics)*(8+8))
			}
			return nil
		}))
}

// Barrier has nothing to do: the servers applied every delta.
func (s *petuumLDA) Barrier(*simnet.Proc, int, int) error { return nil }
