// Package lda implements Latent Dirichlet Allocation trained with collapsed
// Gibbs sampling on PS2 (the paper evaluates LDA on PubMED and Tencent's APP
// corpus, Section 6.3.3). The topic-word count matrix lives on the parameter
// servers as a K-row, V-column matrix — K co-located DCVs, column-partitioned
// over the vocabulary — plus a tiny topic-totals vector. Document-topic
// counts and topic assignments stay on the workers.
//
// Per iteration every worker batch-pulls the topic counts of exactly the
// words its partition contains (sparse pull), resamples its tokens against
// the local copy (the standard approximate-distributed-LDA scheme), and
// pushes count deltas back. PS2's message compression is modelled by
// shipping counts as 4-byte integers instead of 8-byte floats.
package lda

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Sampler selects the Gibbs sampling arithmetic.
type Sampler int

const (
	// SamplerStandard computes the full K-dimensional conditional per token.
	SamplerStandard Sampler = iota
	// SamplerSparse uses the SparseLDA three-bucket decomposition (the
	// technique behind the authors' LDA*): same distribution, O(nonzero)
	// work per token instead of O(K).
	SamplerSparse
)

// Config holds the LDA hyperparameters; α and β follow the paper's Table 4.
type Config struct {
	Topics     int
	Alpha      float64
	Beta       float64
	Iterations int
	Sampler    Sampler
	Seed       uint64
}

// countBytes is the wire size of one count value: PS2 compresses counts to
// 4-byte integers, where the baselines ship 8-byte floats.
const countBytes = 4

// DefaultConfig returns Table 4 values with a scaled topic count.
func DefaultConfig() Config {
	return Config{Topics: 50, Alpha: 0.5, Beta: 0.01, Iterations: 15, Seed: 23}
}

// Model is the trained topic model.
type Model struct {
	WordTopic *ps.Matrix // Topics rows × Vocab columns of counts
	Totals    []float64  // per-topic token totals (driver copy)
	Vocab     int
	Topics    int
	Trace     *core.Trace // mean per-token log-likelihood (rising)

	states []*State // worker-local sampler state, kept for Theta
	alpha  float64
}

// Train runs collapsed Gibbs sampling over the document RDD.
func Train(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab int, cfg Config) (*Model, error) {
	if cfg.Topics < 2 || vocab <= 0 || cfg.Iterations <= 0 {
		return nil, fmt.Errorf("lda: invalid config K=%d V=%d iters=%d", cfg.Topics, vocab, cfg.Iterations)
	}
	mat, err := e.PS.CreateMatrix(p, cfg.Topics, vocab)
	if err != nil {
		return nil, err
	}
	model := &Model{WordTopic: mat, Vocab: vocab, Topics: cfg.Topics,
		Totals: make([]float64, cfg.Topics), Trace: &core.Trace{Name: "PS2-LDA"},
		states: make([]*State, docs.Partitions()), alpha: cfg.Alpha}

	// Initialization: assign random topics and push the initial counts.
	inits := rdd.RunPartitions(p, docs, 8*float64(cfg.Topics),
		func(tc *rdd.TaskContext, part int, rows []data.Document) Pass {
			st, init := NewState(rows, cfg, vocab, part)
			model.states[part] = st
			tc.Charge(e.Cluster.Cost.ElemWork(len(rows)))
			tc.Commit()
			pushDeltas(tc, mat, init.Deltas)
			return init
		})
	addTotals(model.Totals, inits)

	for it := 0; it < cfg.Iterations; it++ {
		// Broadcast the topic totals (tiny).
		e.RDD.Broadcast(p, float64(cfg.Topics)*countBytes)
		passes := rdd.RunPartitions(p, docs, 8*float64(cfg.Topics)+16,
			func(tc *rdd.TaskContext, part int, rows []data.Document) Pass {
				counts := pullWordCounts(tc, mat, DistinctWords(rows))
				// Commit before mutating the worker-local sampler state: a doomed
				// retry re-pulls but must not double-apply assignment changes.
				tc.Commit()
				pass := model.states[part].Sweep(rows, tc.Attempt, it, counts, model.Totals)
				tc.Charge(e.Cluster.Cost.ElemWork(pass.Work))
				pushDeltas(tc, mat, pass.Deltas)
				return pass
			})
		addTotals(model.Totals, passes)
		RecordLogLik(model.Trace, p.Now(), passes)
	}
	return model, nil
}

// addTotals folds every partition's topic-total changes into totals.
func addTotals(totals []float64, passes []Pass) {
	for _, pass := range passes {
		for k, v := range pass.Totals {
			totals[k] += v
		}
	}
}

// pushDeltas ships topic->word count deltas to the servers: one batched
// request per server carrying compressed (topic, word, delta) triplets.
func pushDeltas(tc *rdd.TaskContext, mat *ps.Matrix, delta map[int]map[int]float64) {
	cost := tc.Ctx.Cl.Cost
	// Group triplets by owning server.
	type triplet struct {
		k, w int
		v    float64
	}
	byServer := make([][]triplet, mat.Part.NumServers())
	for k, words := range delta {
		for w, v := range words {
			s := mat.Part.ServerOf(w)
			byServer[s] = append(byServer[s], triplet{k, w, v})
		}
	}
	g := tc.P.Sim().NewGroup()
	for s := range byServer {
		if len(byServer[s]) == 0 {
			continue
		}
		s := s
		g.Go("lda-push", func(cp *simnet.Proc) {
			trips := byServer[s]
			// Deterministic application order.
			sort.Slice(trips, func(a, b int) bool {
				if trips[a].k != trips[b].k {
					return trips[a].k < trips[b].k
				}
				return trips[a].w < trips[b].w
			})
			sh := mat.ShardOf(s)
			srv := mat.ServerNode(s)
			bytes := cost.RequestOverheadB + float64(len(trips))*(8+countBytes)
			tc.Node.Send(cp, srv, bytes)
			srv.Compute(cp, cost.RequestHandleWork+cost.ElemWork(len(trips)))
			for _, tr := range trips {
				sh.Rows[tr.k][sh.Local(tr.w)] += tr.v
			}
			srv.Send(cp, tc.Node, cost.RequestOverheadB)
		})
	}
	g.Wait(tc.P)
}

// pullWordCounts batch-pulls the K-dimensional topic vectors of the given
// sorted distinct words: one request per server, compressed values back.
func pullWordCounts(tc *rdd.TaskContext, mat *ps.Matrix, words []int) map[int][]float64 {
	cost := tc.Ctx.Cl.Cost
	out := make(map[int][]float64, len(words))
	split := mat.Part.SplitIndices(words)
	g := tc.P.Sim().NewGroup()
	for s := range split {
		if len(split[s]) == 0 {
			continue
		}
		s := s
		g.Go("lda-pull", func(cp *simnet.Proc) {
			idx := split[s]
			sh := mat.ShardOf(s)
			srv := mat.ServerNode(s)
			tc.Node.Send(cp, srv, cost.RequestOverheadB+4*float64(len(idx)))
			srv.Compute(cp, cost.RequestHandleWork+cost.ElemWork(len(idx)*mat.Rows))
			srv.Send(cp, tc.Node, cost.RequestOverheadB+float64(len(idx)*mat.Rows)*countBytes)
			for _, w := range idx {
				vec := make([]float64, mat.Rows)
				for k := 0; k < mat.Rows; k++ {
					vec[k] = sh.Rows[k][sh.Local(w)]
				}
				out[w] = vec
			}
		})
	}
	g.Wait(tc.P)
	return out
}

// TopWords returns the n highest-count words of one topic (pulled from the
// servers), for qualitative inspection.
func TopWords(p *simnet.Proc, from *simnet.Node, m *Model, topic, n int) []int {
	row := ps.Must(m.WordTopic.PullRow(p, from, topic))
	type wc struct {
		w int
		c float64
	}
	all := make([]wc, len(row))
	for w, c := range row {
		all[w] = wc{w, c}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].c > all[b].c })
	out := make([]int, 0, n)
	for i := 0; i < n && i < len(all); i++ {
		out = append(out, all[i].w)
	}
	return out
}
