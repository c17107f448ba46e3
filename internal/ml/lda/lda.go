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
	"math"
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

// Strategy is what one LDA system brings to the training loop (Run): Setup
// places the topic-word counts and runs InitStage, and the core.Strategy
// methods run each iteration, Round over SweepStage. PS2 (Train) and the LDA
// baselines are strategies: they run one sampler and differ only in where the
// counts live, what moving them costs and when a change becomes visible.
type Strategy interface {
	core.Strategy[data.Document]
	// Setup places the counts before the first iteration.
	Setup(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab int, cfg Config) error
}

// Run trains LDA with strategy s through the shared loop (core.Run). Every
// iteration sweeps every document (fraction 1), and the trace is the mean
// per-token log-likelihood.
func Run(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab int, cfg Config, s Strategy) (*core.Trace, error) {
	if cfg.Topics < 2 || vocab <= 0 || cfg.Iterations <= 0 {
		return nil, fmt.Errorf("lda: invalid config K=%d V=%d iters=%d", cfg.Topics, vocab, cfg.Iterations)
	}
	if !positive(cfg.Alpha) || !positive(cfg.Beta) {
		return nil, fmt.Errorf("lda: priors must be positive and finite, got alpha=%v beta=%v", cfg.Alpha, cfg.Beta)
	}
	if err := s.Setup(p, e, docs, vocab, cfg); err != nil {
		return nil, err
	}
	return core.Run(p, e, docs, 1, cfg.Seed, cfg.Iterations, s)
}

func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// InitStage is the stage every strategy's Setup runs: each task gives its
// rows random topics (newState), commits, and place applies and pays for the
// counts it assigned. It returns the sampler states and passes by partition.
func InitStage(p *simnet.Proc, docs *rdd.RDD[data.Document], vocab int, cfg Config, resultBytes float64,
	place func(tc *rdd.TaskContext, rows []data.Document, init Pass) error) ([]*State, []Pass, error) {
	states := make([]*State, docs.Partitions())
	inits, err := rdd.RunPartitions(p, docs, resultBytes, func(tc *rdd.TaskContext, part int, rows []data.Document) (Pass, error) {
		st, init := newState(rows, cfg, vocab, part)
		tc.Commit()
		states[part] = st
		return init, place(tc, rows, init)
	})
	return states, inits, err
}

// SweepStage is the stage every strategy's Round runs: each task reads the
// counts of its rows' sorted distinct words (read returns a private copy of
// them and the topic totals they were taken with), commits, resamples every
// token once, pays for the sampling, and ship, unless nil, moves the pass's
// count changes. It returns one pass per partition.
func SweepStage(p *simnet.Proc, docs *rdd.RDD[data.Document], states []*State, it int, resultBytes float64,
	read func(tc *rdd.TaskContext, words []int) (counts map[int][]float64, totals []float64, err error),
	ship func(tc *rdd.TaskContext, words []int, pass Pass) error) ([]Pass, error) {
	return rdd.RunPartitions(p, docs, resultBytes, func(tc *rdd.TaskContext, part int, rows []data.Document) (Pass, error) {
		words := distinctWords(rows)
		counts, totals, err := read(tc, words)
		if err != nil {
			return Pass{}, err
		}
		// Commit before mutating the worker-local sampler state: a doomed
		// retry re-reads but must not double-apply assignment changes.
		tc.Commit()
		pass := states[part].sweep(rows, tc.Attempt, it, counts, totals)
		tc.Charge(tc.Ctx.Cl.Cost.ElemWork(pass.Work))
		if ship != nil {
			err = ship(tc, words, pass)
		}
		return pass, err
	})
}

// Summaries turns a sweep's passes into the loop's summaries: log-likelihood
// over tokens. It passes a failed sweep's error through.
func Summaries(passes []Pass, err error) ([]core.Summary, error) {
	out := make([]core.Summary, len(passes))
	for i, pass := range passes {
		out[i] = core.Summary{Sum: pass.LogLik, Weight: pass.Tokens}
	}
	return out, err
}

// Train runs collapsed Gibbs sampling over the document RDD on PS2.
func Train(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab int, cfg Config) (*Model, error) {
	s := &ps2{}
	trace, err := Run(p, e, docs, vocab, cfg, s)
	if err != nil {
		return nil, err
	}
	trace.Name = "PS2-LDA"
	return &Model{WordTopic: s.mat, Totals: s.totals, Vocab: vocab, Topics: cfg.Topics,
		Trace: trace, states: s.states, alpha: cfg.Alpha}, nil
}

// PS2 returns PS2's strategy (Train): the counts are a K×V matrix on the
// servers, column-partitioned like every DCV. A task sparse-pulls its words'
// counts and pushes its compressed deltas as its sweep ends; the driver folds
// the topic totals in at the barrier and broadcasts them each iteration.
func PS2() Strategy { return &ps2{} }

type ps2 struct {
	e      *core.Engine
	mat    *ps.Matrix
	totals []float64 // the driver's copy
	states []*State
	passes []Pass // the round's, whose totals the barrier adds
}

func (s *ps2) Setup(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab int, cfg Config) error {
	var err error
	if s.mat, err = e.PS.CreateMatrix(p, cfg.Topics, vocab); err != nil {
		return err
	}
	s.e, s.totals = e, make([]float64, cfg.Topics)
	var inits []Pass
	s.states, inits, err = InitStage(p, docs, vocab, cfg, 8*float64(cfg.Topics),
		func(tc *rdd.TaskContext, rows []data.Document, init Pass) error {
			tc.Charge(e.Cluster.Cost.ElemWork(len(rows)))
			return s.push(tc, nil, init)
		})
	addTotals(s.totals, inits)
	return err
}

func (s *ps2) Round(p *simnet.Proc, docs *rdd.RDD[data.Document], it int) ([]core.Summary, error) {
	// Broadcast the topic totals (tiny).
	s.e.RDD.Broadcast(p, float64(len(s.totals))*countBytes)
	var err error
	s.passes, err = SweepStage(p, docs, s.states, it, 8*float64(len(s.totals))+16, s.pull, s.push)
	return Summaries(s.passes, err)
}

func (s *ps2) Barrier(*simnet.Proc, int, int) error {
	addTotals(s.totals, s.passes)
	return nil
}

// pull batch-pulls the words' topic counts: one request per server carrying
// 4-byte word ids, compressed counts back.
func (s *ps2) pull(tc *rdd.TaskContext, words []int) (map[int][]float64, []float64, error) {
	cost, k := tc.Ctx.Cl.Cost, s.mat.Rows
	counts, err := PullWordCounts(tc, s.mat, words, func(n int) (req, work, resp float64) {
		return cost.RequestOverheadB + 4*float64(n),
			cost.RequestHandleWork + cost.ElemWork(n*k),
			cost.RequestOverheadB + float64(n*k)*countBytes
	})
	return counts, s.totals, err
}

// addTotals folds every partition's topic-total changes into totals.
func addTotals(totals []float64, passes []Pass) {
	for _, pass := range passes {
		for k, v := range pass.Totals {
			totals[k] += v
		}
	}
}

// push ships the pass's topic->word count deltas to the servers, which apply
// them at once: one batched request per server carrying compressed (topic,
// word, delta) triplets.
func (s *ps2) push(tc *rdd.TaskContext, words []int, pass Pass) error {
	cost := tc.Ctx.Cl.Cost
	return PushDeltas(tc, s.mat, words, pass, func(_, n int) (req, work, resp float64) {
		return cost.RequestOverheadB + float64(n)*(8+countBytes),
			cost.RequestHandleWork + cost.ElemWork(n),
			cost.RequestOverheadB
	})
}

// PullWordCounts reads the topic counts of the sorted distinct words from
// mat: one request to each server that owns any of them, priced by price for
// its n words, whose handler copies their counts into the reply.
func PullWordCounts(tc *rdd.TaskContext, mat *ps.Matrix, words []int, price func(n int) (req, work, resp float64)) (map[int][]float64, error) {
	out := make(map[int][]float64, len(words))
	split := mat.Part.SplitIndices(words)
	err := mat.CallShards(tc.P, tc.Node, ps.CallSpec{Name: "lda-pull"}, func(s int, c *ps.CallSpec) bool {
		idx := split[s]
		if len(idx) == 0 {
			return false
		}
		req, work, resp := price(len(idx))
		c.ReqBytes, c.RespBytes = req, resp
		c.Work = func(int, int) float64 { return work }
		c.Fn = func(_ int, sh *ps.Shard) error {
			for _, w := range idx {
				vec := make([]float64, mat.Rows)
				for k := range vec {
					vec[k] = sh.Dense(k)[sh.Local(w)]
				}
				out[w] = vec
			}
			return nil
		}
		return true
	})
	return out, err
}

// PushDeltas applies the pass's count changes at mat's servers: one request
// to each server that owns any changed word, carrying its (topic, word,
// delta) triplets and priced by price for its pulled words (of words, the
// sorted distinct words the pass resampled, nil for an initialisation) and
// its triplets. The request declares the pass's topics as the rows it
// writes.
func PushDeltas(tc *rdd.TaskContext, mat *ps.Matrix, words []int, pass Pass, price func(words, triplets int) (req, work, resp float64)) error {
	type triplet struct {
		k, w int
		v    float64
	}
	byServer := make([][]triplet, mat.Part.NumServers())
	topics := make([]int, 0, len(pass.Deltas))
	for k, changed := range pass.Deltas {
		topics = append(topics, k)
		for w, v := range changed {
			i := mat.Part.ServerOf(w)
			byServer[i] = append(byServer[i], triplet{k, w, v})
		}
	}
	split := mat.Part.SplitIndices(words)
	spec := ps.CallSpec{Name: "lda-push", Mutates: true, Touched: topics}
	return mat.CallShards(tc.P, tc.Node, spec, func(s int, c *ps.CallSpec) bool {
		trips := byServer[s]
		if len(trips) == 0 {
			return false
		}
		req, work, resp := price(len(split[s]), len(trips))
		c.ReqBytes, c.RespBytes = req, resp
		c.Work = func(int, int) float64 { return work }
		c.Fn = func(_ int, sh *ps.Shard) error {
			for _, tr := range trips {
				sh.Dense(tr.k)[sh.Local(tr.w)] += tr.v
			}
			return nil
		}
		return true
	})
}

// TopWords returns the n highest-count words of one topic (pulled from the
// servers), for qualitative inspection.
func TopWords(p *simnet.Proc, from *simnet.Node, m *Model, topic, n int) ([]int, error) {
	row, err := m.WordTopic.PullRow(p, from, topic)
	if err != nil {
		return nil, err
	}
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
	return out, nil
}
