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

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
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

type mllib struct {
	aggregate func(*simnet.Proc, *rdd.RDD[data.Instance], rdd.AggSpec[data.Instance, *mllibAgg]) *mllibAgg
	opt       lr.Optimizer

	e    *core.Engine
	spec rdd.AggSpec[data.Instance, *mllibAgg]
	// rows are the driver's model (weights, then the optimizer's auxiliary
	// vectors) and, last, the round's aggregated gradient.
	rows [][]float64
}

// MLlib returns Spark MLlib's strategy ("Spark-" in Figure 9): per
// iteration the driver broadcasts the full dense model, aggregate brings one
// dense gradient per partition back to it, and it runs opt's update on its
// own copy of the model.
func MLlib(opt lr.Optimizer) lr.Strategy {
	return &mllib{aggregate: rdd.Aggregate[data.Instance, *mllibAgg], opt: opt}
}

// MLlibTree returns Spark MLlib's SGD with treeAggregate: gradients combine
// pairwise across executors in ~log2(P) rounds before one partial reaches
// the driver, but the broadcast still serializes on it. ext-treeagg measures
// how much of the paper's "single-node bottleneck" this alone removes.
func MLlibTree() lr.Strategy {
	return &mllib{aggregate: rdd.TreeAggregate[data.Instance, *mllibAgg], opt: lr.NewSGD()}
}

func (m *mllib) Setup(p *simnet.Proc, e *core.Engine, _ *rdd.RDD[data.Instance], dim int, cfg lr.Config) error {
	// The heap limit counts the model the driver keeps, not the round's
	// aggregated gradient.
	if float64(dim*8*(1+m.opt.AuxVectors())) > MLlibMaxModelBytes {
		return ErrOOM
	}
	m.rows = make([][]float64, 2+m.opt.AuxVectors())
	for i := range m.rows[:len(m.rows)-1] {
		m.rows[i] = make([]float64, dim)
	}
	m.e, m.spec = e, gradAggSpec(e, dim, cfg.Objective, m.rows[0])
	return nil
}

func (m *mllib) Round(p *simnet.Proc, batch *rdd.RDD[data.Instance], it int) []core.Summary {
	// (1) Model broadcast: full dense model from the one driver to every
	// executor, serializing on the driver's egress NIC.
	m.e.RDD.Broadcast(p, m.e.Cluster.Cost.DenseBytes(len(m.rows[0])))
	// (2)+(3) Gradient calculation and aggregation: every partition's
	// full dense gradient travels to the driver.
	agg := m.aggregate(p, batch, m.spec)
	m.rows[len(m.rows)-1] = agg.Grad
	return []core.Summary{{Loss: agg.Loss, Count: agg.N}}
}

// Barrier is step (4), the model update on the driver.
func (m *mllib) Barrier(p *simnet.Proc, it, count int) error {
	m.e.Driver().Compute(p, m.e.Cluster.Cost.ElemWork(len(m.rows[0])*(len(m.rows)-1)))
	m.opt.Update(it+1, count)(0, m.rows)
	return nil
}

// gradAggSpec builds the gradient aggregation against the driver's model w.
// The per-row charge stays inside Seq: it is Spark's fold.
func gradAggSpec(e *core.Engine, dim int, obj lr.Objective, w []float64) rdd.AggSpec[data.Instance, *mllibAgg] {
	cost := e.Cluster.Cost
	return rdd.AggSpec[data.Instance, *mllibAgg]{
		Zero: func() *mllibAgg { return &mllibAgg{Grad: make([]float64, dim)} },
		Seq: func(tc *rdd.TaskContext, acc *mllibAgg, inst data.Instance) *mllibAgg {
			loss, dz, _ := obj.Loss(inst.Features.DotDense(w), inst.Label)
			acc.Loss += loss
			if dz != 0 {
				inst.Features.AddToDense(acc.Grad, dz)
			}
			tc.Charge(cost.GradWork(inst.Features.Nnz()))
			acc.N++
			return acc
		},
		Comb: func(a, b *mllibAgg) *mllibAgg {
			if a.N == 0 {
				return b
			}
			if b.N == 0 {
				return a
			}
			linalg.Axpy(1, b.Grad, a.Grad)
			a.Loss += b.Loss
			a.N += b.N
			return a
		},
		Bytes:    func(*mllibAgg) float64 { return cost.DenseBytes(dim) },
		CombWork: cost.ElemWork(dim),
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
