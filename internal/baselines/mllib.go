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
	aggregate func(*simnet.Proc, *rdd.RDD[data.Instance], rdd.AggSpec[data.Instance, *mllibAgg]) (*mllibAgg, error)
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

func (m *mllib) Round(p *simnet.Proc, batch *rdd.RDD[data.Instance], it int) ([]core.Summary, error) {
	// (1) Model broadcast: full dense model from the one driver to every
	// executor, serializing on the driver's egress NIC.
	m.e.RDD.Broadcast(p, m.e.Cluster.Cost.DenseBytes(len(m.rows[0])))
	// (2)+(3) Gradient calculation and aggregation: every partition's
	// full dense gradient travels to the driver.
	agg, err := m.aggregate(p, batch, m.spec)
	if err != nil {
		return nil, err
	}
	m.rows[len(m.rows)-1] = agg.Grad
	return []core.Summary{{Sum: agg.Loss, Weight: agg.N}}, nil
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

// MLlibLDA returns the strategy of the collapsed-Gibbs LDA of
// internal/ml/lda with MLlib's communication pattern: the driver broadcasts
// the full K×V count matrix every iteration, every partition ships a full
// dense K×V delta back to it, and it applies them at the barrier. Setup fails
// with ErrOOM beyond the driver heap limit — the reason the paper caps MLlib
// at 100 topics.
func MLlibLDA() lda.Strategy { return &mllibLDA{} }

type mllibLDA struct {
	e      *core.Engine
	nwt    *wordTopic // driver-held
	size   int        // K×V
	states []*lda.State
	passes []lda.Pass // the round's, applied at the barrier
}

func (m *mllibLDA) Setup(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document], vocab int, cfg lda.Config) error {
	m.size = cfg.Topics * vocab
	if float64(m.size)*8*2 > MLlibMaxModelBytes {
		return ErrOOM
	}
	m.e, m.nwt = e, newWordTopic(cfg.Topics, vocab)
	// Init: random assignments, aggregated at the driver.
	var err error
	m.states, _, err = lda.InitStage(p, docs, vocab, cfg, 8, func(tc *rdd.TaskContext, _ []data.Document, init lda.Pass) error {
		m.nwt.add(init)
		tc.Node.Send(tc.P, e.Cluster.Driver, e.Cluster.Cost.DenseBytes(m.size))
		return nil
	})
	return err
}

func (m *mllibLDA) Round(p *simnet.Proc, docs *rdd.RDD[data.Document], it int) ([]core.Summary, error) {
	m.e.RDD.Broadcast(p, float64(m.size)*8)
	var err error
	m.passes, err = lda.SweepStage(p, docs, m.states, it, m.e.Cluster.Cost.DenseBytes(m.size), m.nwt.read, nil)
	return lda.Summaries(m.passes, err)
}

func (m *mllibLDA) Barrier(p *simnet.Proc, _, _ int) error {
	for _, pass := range m.passes {
		m.e.Driver().Compute(p, m.e.Cluster.Cost.ElemWork(m.size/8))
		m.nwt.add(pass)
	}
	return nil
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

// read copies out the topic counts of the words, a sampler's private
// snapshot, and returns them with the totals; it cannot fail.
func (t *wordTopic) read(_ *rdd.TaskContext, words []int) (map[int][]float64, []float64, error) {
	out := make(map[int][]float64, len(words))
	for _, w := range words {
		col := make([]float64, len(t.n))
		for k := range t.n {
			col[k] = t.n[k][w]
		}
		out[w] = col
	}
	return out, t.totals, nil
}
