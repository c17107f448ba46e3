package baselines

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml/lda"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// GlintLDA returns the strategy of LDA on a Glint-style asynchronous
// parameter server (Jagerman et al., SIGIR'17): the topic-word matrix is
// column-partitioned like PS2's, but the client interface is plain pull/push
// at per-word granularity with no message compression and no batching across
// words — every word's topic vector is its own request with full RPC
// overhead, and every delta push likewise; the servers apply a task's deltas
// as it pushes them. The paper attributes PS2's 9× advantage to its "sparse
// communication implementation and message compression technique"; per-word
// framing plus 8-byte counts is what a pull/push-only client without those
// optimizations costs.
func GlintLDA() lda.Strategy { return &glintLDA{} }

type glintLDA struct {
	mat    *ps.Matrix
	totals []float64
	states []*lda.State
}

func (s *glintLDA) Setup(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab int, cfg lda.Config) error {
	var err error
	if s.mat, err = e.PS.CreateMatrix(p, cfg.Topics, vocab); err != nil {
		return err
	}
	s.totals = make([]float64, cfg.Topics)
	// Initialization pushes each partition's counts through a round's push,
	// which Glint prices per pulled word; an initialization pulled none.
	s.states, _, err = lda.InitStage(p, docs, vocab, cfg, 8, func(tc *rdd.TaskContext, _ []data.Document, init lda.Pass) error {
		return s.push(tc, nil, init)
	})
	return err
}

func (s *glintLDA) Round(p *simnet.Proc, docs *rdd.RDD[data.Document], it int) ([]core.Summary, error) {
	return lda.Summaries(lda.SweepStage(p, docs, s.states, it, 16, s.pull, s.push))
}

// Barrier has nothing to do: the servers applied every delta.
func (s *glintLDA) Barrier(*simnet.Proc, int, int) error { return nil }

// pull is one RPC per word, uncompressed K counts back. The per-word requests
// to one server are charged as one stream whose size includes every
// request's framing overhead (the transfers serialize on the NICs either
// way).
func (s *glintLDA) pull(tc *rdd.TaskContext, words []int) (map[int][]float64, []float64, error) {
	cost, k := tc.Ctx.Cl.Cost, s.mat.Rows
	counts, err := lda.PullWordCounts(tc, s.mat, words, func(n int) (req, work, resp float64) {
		f := float64(n)
		return f * cost.RequestOverheadB,
			f*cost.RequestHandleWork + cost.ElemWork(n*k),
			f * (cost.RequestOverheadB + float64(k)*8)
	})
	return counts, s.totals, err
}

// push sends per-word delta pushes, uncompressed, charged like the pulls,
// which the servers apply. Every pulled word had its tokens resampled, so
// every one is pushed.
func (s *glintLDA) push(tc *rdd.TaskContext, words []int, pass lda.Pass) error {
	s.addTotals(pass)
	cost, k := tc.Ctx.Cl.Cost, s.mat.Rows
	return lda.PushDeltas(tc, s.mat, words, pass, func(n, _ int) (req, work, resp float64) {
		f := float64(n)
		return f * (cost.RequestOverheadB + float64(k)*8),
			f*cost.RequestHandleWork + cost.ElemWork(n*k),
			f * cost.RequestOverheadB
	})
}

// addTotals folds one partition's topic-total changes into the totals.
func (s *glintLDA) addTotals(pass lda.Pass) {
	for k, v := range pass.Totals {
		s.totals[k] += v
	}
}
