package baselines

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml/lda"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// TrainLDAGlint trains LDA on a Glint-style asynchronous parameter server
// (Jagerman et al., SIGIR'17): the topic-word matrix is column-partitioned
// like PS2's, but the client interface is plain pull/push at per-word
// granularity with no message compression and no batching across words —
// every word's topic vector is its own request with full RPC overhead, and
// every delta push likewise. The paper attributes PS2's 9× advantage to its
// "sparse communication implementation and message compression technique";
// per-word framing plus 8-byte counts is what a pull/push-only client
// without those optimizations costs.
func TrainLDAGlint(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab, topics, iterations int, alpha, beta float64, seed uint64) (*core.Trace, error) {
	if topics < 2 || vocab <= 0 || iterations <= 0 {
		return nil, fmt.Errorf("baselines: invalid LDA config")
	}
	mat, err := e.PS.CreateMatrix(p, topics, vocab)
	if err != nil {
		return nil, err
	}
	trace := &core.Trace{Name: "Glint"}
	cost := e.Cluster.Cost
	cfg := lda.Config{Topics: topics, Alpha: alpha, Beta: beta, Seed: seed}
	totals := make([]float64, topics)
	states := map[int]*lda.State{}

	// Initialization with batched pushes (one-time setup is not the
	// bottleneck in any system).
	rdd.RunPartitions(p, docs, 8, func(tc *rdd.TaskContext, part int, rows []data.Document) struct{} {
		tc.Commit()
		st, init := lda.NewState(rows, cfg, vocab, part)
		states[part] = st
		addToShards(mat, totals, init)
		tc.Node.Send(tc.P, e.Cluster.Servers[0], cost.SparseBytes(init.Tokens))
		return struct{}{}
	})

	for it := 0; it < iterations; it++ {
		passes := rdd.RunPartitions(p, docs, 16, func(tc *rdd.TaskContext, part int, rows []data.Document) lda.Pass {
			// Per-word pulls: one RPC per word, uncompressed K counts back.
			// The per-word requests to one server are charged as one stream
			// whose size includes every request's framing overhead (the
			// transfers serialize on the NICs either way).
			counts := map[int][]float64{}
			split := mat.Part.SplitIndices(lda.DistinctWords(rows))
			g := tc.P.Sim().NewGroup()
			for s := range split {
				if len(split[s]) == 0 {
					continue
				}
				s := s
				g.Go("glint-pull", func(cp *simnet.Proc) {
					idx := split[s]
					srv := mat.ServerNode(s)
					sh := mat.ShardOf(s)
					n := float64(len(idx))
					tc.Node.Send(cp, srv, n*cost.RequestOverheadB)
					srv.Compute(cp, n*cost.RequestHandleWork+cost.ElemWork(len(idx)*mat.Rows))
					srv.Send(cp, tc.Node, n*(cost.RequestOverheadB+float64(mat.Rows)*8))
					for _, w := range idx {
						vec := make([]float64, mat.Rows)
						for k := 0; k < mat.Rows; k++ {
							vec[k] = sh.Rows[k][sh.Local(w)]
						}
						counts[w] = vec
					}
				})
			}
			g.Wait(tc.P)
			tc.Commit()

			pass := states[part].Sweep(rows, tc.Attempt, it, counts, totals)
			tc.Charge(cost.ElemWork(pass.Work))
			addToShards(mat, totals, pass)
			// Per-word delta pushes, uncompressed, charged the same way. Every
			// pulled word had its tokens resampled, so every one is pushed.
			g2 := tc.P.Sim().NewGroup()
			for s := range split {
				if len(split[s]) == 0 {
					continue
				}
				s := s
				g2.Go("glint-push", func(cp *simnet.Proc) {
					n := float64(len(split[s]))
					srv := mat.ServerNode(s)
					tc.Node.Send(cp, srv, n*(cost.RequestOverheadB+float64(topics)*8))
					srv.Compute(cp, n*cost.RequestHandleWork+cost.ElemWork(len(split[s])*topics))
					srv.Send(cp, tc.Node, n*cost.RequestOverheadB)
				})
			}
			g2.Wait(tc.P)
			return pass
		})
		lda.RecordLogLik(trace, p.Now(), passes)
	}
	return trace, nil
}

// addToShards applies one partition's count changes to shard memory and the
// topic totals (the wire cost is charged by the surrounding pushes).
func addToShards(mat *ps.Matrix, totals []float64, pass lda.Pass) {
	for k, words := range pass.Deltas {
		for w, v := range words {
			sh := mat.ShardOf(mat.Part.ServerOf(w))
			sh.Rows[k][sh.Local(w)] += v
		}
	}
	for k, v := range pass.Totals {
		totals[k] += v
	}
}
