// Package baselines re-implements the communication strategies of the five
// systems the paper compares against (Table 3): Spark MLlib's single-driver
// aggregation, Petuum's row-partitioned full-pull parameter server, DistML's
// and Glint's pull/push-only parameter servers, and XGBoost's AllReduce. All
// baselines run on the same simulator, optimize the same objectives with the
// same hyperparameters, and differ only in how bytes move — which is exactly
// the variable the paper's end-to-end experiments isolate.
package baselines

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml/lda"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// ErrOOM emulates a driver out-of-memory failure: Spark MLlib materializes
// whole models (and per-partition copies of them) on one JVM heap, which is
// why the paper reports MLlib failing on the Gender dataset and being capped
// at 100 LDA topics.
var ErrOOM = errors.New("baselines: driver out of memory (model too large for single-node aggregation)")

// MLlibMaxModelBytes is the scaled stand-in for the driver heap limit. The
// paper's cluster has 256 GB machines; with our 10× data scale-down and the
// JVM's multiple-copies-per-aggregation behaviour, 64 MB of raw model floats
// is the calibrated cutoff.
const MLlibMaxModelBytes = 64e6

// mllibAgg is one partition's contribution to the driver aggregation.
type mllibAgg struct {
	Grad []float64
	Loss float64
	N    int
}

// TrainLRMLlib trains LR the Spark MLlib way ("Spark-" in Figure 9): per
// iteration the driver broadcasts the full dense model, workers compute
// gradients, the driver collects one full dense gradient per partition and
// updates locally. useAdam selects the Adam update (Spark-Adam) over plain
// SGD.
func TrainLRMLlib(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg lr.Config, useAdam bool) (*core.Trace, []float64, error) {
	if cfg.Iterations <= 0 {
		return nil, nil, fmt.Errorf("baselines: iterations must be positive")
	}
	modelVectors := 1
	if useAdam {
		modelVectors = 3
	}
	if float64(dim*8*(modelVectors+1)) > MLlibMaxModelBytes {
		return nil, nil, ErrOOM
	}
	name := "Spark-SGD"
	if useAdam {
		name = "Spark-Adam"
	}
	trace := &core.Trace{Name: name}
	cost := e.Cluster.Cost

	w := make([]float64, dim)
	s := make([]float64, dim)
	v := make([]float64, dim)

	for it := 0; it < cfg.Iterations; it++ {
		// (1) Model broadcast: full dense model from the one driver to every
		// executor, serializing on the driver's egress NIC.
		e.RDD.Broadcast(p, cost.DenseBytes(dim))
		batch := dataset.Sample(cfg.BatchFraction, cfg.Seed+uint64(it))
		// (2)+(3) Gradient calculation and aggregation: every partition's
		// full dense gradient travels to the driver.
		agg := rdd.Aggregate(p, batch, gradAggSpec(e, dim, cfg, w))
		if agg.N == 0 {
			continue
		}
		// (4) Model update on the driver.
		e.Driver().Compute(p, cost.ElemWork(dim*modelVectors))
		scale := 1.0 / float64(agg.N)
		if useAdam {
			adamStep(w, s, v, agg.Grad, scale, it+1, cfg)
		} else {
			eta := cfg.LearningRate / math.Sqrt(float64(it+1))
			for i := range w {
				w[i] -= eta * scale * agg.Grad[i]
			}
		}
		trace.Add(p.Now(), agg.Loss/float64(agg.N))
	}
	return trace, w, nil
}

func adamStep(w, s, v, grad []float64, scale float64, iter int, cfg lr.Config) {
	b1, b2, eps := cfg.Beta1, cfg.Beta2, cfg.Epsilon
	if b1 == 0 {
		b1 = 0.9
	}
	if b2 == 0 {
		b2 = 0.999
	}
	if eps == 0 {
		eps = 1e-8
	}
	corr1 := 1 - math.Pow(b1, float64(iter))
	corr2 := 1 - math.Pow(b2, float64(iter))
	for i := range w {
		gi := grad[i] * scale
		s[i] = b1*s[i] + (1-b1)*gi*gi
		v[i] = b2*v[i] + (1-b2)*gi
		w[i] -= cfg.LearningRate * (v[i] / corr2) / (math.Sqrt(s[i]/corr1) + eps)
	}
}

// TrainLDAMLlib trains the same collapsed-Gibbs LDA as internal/ml/lda but
// with MLlib's communication pattern: the driver broadcasts the full K×V
// count matrix every iteration and every partition ships a full dense K×V
// delta back to the driver. Fails with ErrOOM beyond the driver heap limit —
// the reason the paper caps MLlib at 100 topics.
func TrainLDAMLlib(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab, topics, iterations int, alpha, beta float64, seed uint64) (*core.Trace, error) {
	if topics < 2 || vocab <= 0 || iterations <= 0 {
		return nil, fmt.Errorf("baselines: invalid LDA config K=%d V=%d", topics, vocab)
	}
	modelBytes := float64(topics*vocab) * 8
	if modelBytes*2 > MLlibMaxModelBytes {
		return nil, ErrOOM
	}
	cost := e.Cluster.Cost
	trace := &core.Trace{Name: "MLlib-LDA"}
	cfg := lda.Config{Topics: topics, Alpha: alpha, Beta: beta, Seed: seed}
	nwt := newWordTopic(topics, vocab) // driver-held
	states := map[int]*lda.State{}

	// Init: random assignments, aggregated at the driver.
	rdd.RunPartitions(p, docs, 8, func(tc *rdd.TaskContext, part int, rows []data.Document) struct{} {
		tc.Commit() // before mutating shared counts: retries must not double-add
		st, init := lda.NewState(rows, cfg, vocab, part)
		states[part] = st
		nwt.add(init)
		tc.Node.Send(tc.P, e.Cluster.Driver, cost.DenseBytes(topics*vocab))
		return struct{}{}
	})

	for it := 0; it < iterations; it++ {
		// Broadcast the full model.
		e.RDD.Broadcast(p, modelBytes)
		passes := rdd.RunPartitions(p, docs, cost.DenseBytes(topics*vocab),
			func(tc *rdd.TaskContext, part int, rows []data.Document) lda.Pass {
				tc.Commit()
				pass := states[part].Sweep(rows, tc.Attempt, it, nwt.columns(rows), nwt.totals)
				tc.Charge(cost.ElemWork(pass.Work))
				return pass
			})
		for _, pass := range passes {
			// Apply deltas at the driver.
			e.Driver().Compute(p, cost.ElemWork(topics*vocab/8))
			nwt.add(pass)
		}
		lda.RecordLogLik(trace, p.Now(), passes)
	}
	return trace, nil
}

// wordTopic is a whole K×V topic-word count table and its topic totals in
// one place: MLlib's driver, or the memory of Petuum's servers.
type wordTopic struct {
	n      [][]float64
	totals []float64
}

func newWordTopic(topics, vocab int) *wordTopic {
	t := &wordTopic{n: make([][]float64, topics), totals: make([]float64, topics)}
	for k := range t.n {
		t.n[k] = make([]float64, vocab)
	}
	return t
}

// add applies one partition's count changes.
func (t *wordTopic) add(pass lda.Pass) {
	for k, words := range pass.Deltas {
		for w, v := range words {
			t.n[k][w] += v
		}
	}
	for k, v := range pass.Totals {
		t.totals[k] += v
	}
}

// columns copies out the topic counts of every word in rows: a sampler's
// private snapshot.
func (t *wordTopic) columns(rows []data.Document) map[int][]float64 {
	words := lda.DistinctWords(rows)
	out := make(map[int][]float64, len(words))
	for _, w := range words {
		col := make([]float64, len(t.n))
		for k := range t.n {
			col[k] = t.n[k][w]
		}
		out[w] = col
	}
	return out
}
