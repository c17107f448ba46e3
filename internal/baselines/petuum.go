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
	s.expected = float64(rdd.Count(p, dataset)) * min(cfg.BatchFraction, 1)
	return nil
}

// Round pulls the full model and pushes sparse increments, applied at the
// servers.
func (s *petuum) Round(p *simnet.Proc, batch *rdd.RDD[data.Instance], it int) []core.Summary {
	eta := s.cfg.LearningRate / math.Sqrt(float64(it+1)) / s.expected
	return lr.GradientStage(p, s.e, batch, s.cfg.Objective,
		func(tc *rdd.TaskContext, indices []int) []float64 {
			return gather(ps.Must(s.mat.PullRow(tc.P, tc.Node, 0)), indices)
		},
		func(tc *rdd.TaskContext, _ []data.Instance, g *linalg.SparseVector) {
			linalg.Scale(-eta, g.Values)
			ps.MustOK(s.mat.PushAdd(tc.P, tc.Node, 0, g))
		})
}

// Barrier has nothing to do: the servers applied every increment.
func (s *petuum) Barrier(*simnet.Proc, int, int) error { return nil }

// TrainLDAPetuum runs the collapsed-Gibbs LDA of internal/ml/lda with
// Petuum's communication: the K×V count matrix is row-partitioned (each
// topic row whole on one server) and every worker pulls the full matrix each
// iteration — no sparse pull, no compression.
func TrainLDAPetuum(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab, topics, iterations int, alpha, beta float64, seed uint64) (*core.Trace, error) {
	if topics < 2 || vocab <= 0 || iterations <= 0 {
		return nil, fmt.Errorf("baselines: invalid LDA config")
	}
	servers := e.Cluster.Servers
	if len(servers) == 0 {
		return nil, fmt.Errorf("baselines: Petuum needs servers")
	}
	trace := &core.Trace{Name: "Petuum-LDA"}
	cost := e.Cluster.Cost
	cfg := lda.Config{Topics: topics, Alpha: alpha, Beta: beta, Seed: seed}
	nwt := newWordTopic(topics, vocab)
	hostOf := func(k int) *simnet.Node { return servers[k%len(servers)] }
	states := map[int]*lda.State{}
	rowBytes := cost.DenseBytes(vocab)

	rdd.RunPartitions(p, docs, 8, func(tc *rdd.TaskContext, part int, rows []data.Document) struct{} {
		tc.Commit()
		st, init := lda.NewState(rows, cfg, vocab, part)
		states[part] = st
		nwt.add(init)
		for k := 0; k < topics; k++ {
			tc.Node.Send(tc.P, hostOf(k), cost.SparseBytes(init.Tokens/topics))
		}
		return struct{}{}
	})

	for it := 0; it < iterations; it++ {
		passes := rdd.RunPartitions(p, docs, 16, func(tc *rdd.TaskContext, part int, rows []data.Document) lda.Pass {
			// Full-matrix pull: each topic row whole from its hosting server.
			g := tc.P.Sim().NewGroup()
			for k := 0; k < topics; k++ {
				k := k
				g.Go("petuum-pull", func(cp *simnet.Proc) {
					tc.Node.Send(cp, hostOf(k), cost.RequestOverheadB)
					hostOf(k).Send(cp, tc.Node, rowBytes)
				})
			}
			g.Wait(tc.P)
			tc.Commit()

			// Sample against the pulled snapshot (the same approximate
			// distributed-LDA consistency PS2 uses); deltas apply at push.
			pass := states[part].Sweep(rows, tc.Attempt, it, nwt.columns(rows), nwt.totals)
			tc.Charge(cost.ElemWork(pass.Work))
			// Sparse delta push, uncompressed (8B values), applied at the
			// hosting servers: a removal and an insertion per token.
			nwt.add(pass)
			for k := 0; k < topics; k++ {
				tc.Node.Send(tc.P, hostOf(k), cost.RequestOverheadB+float64(2*pass.Tokens/topics)*(8+8))
			}
			return pass
		})
		lda.RecordLogLik(trace, p.Now(), passes)
	}
	return trace, nil
}
