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
	"repro/internal/linalg"
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

	nwt := make([][]float64, topics) // driver-held topic-word counts
	for k := range nwt {
		nwt[k] = make([]float64, vocab)
	}
	totals := make([]float64, topics)

	type st struct {
		z   [][]int32
		ndk [][]int32
	}
	states := map[int]*st{}

	// Init: random assignments, aggregated at the driver.
	rdd.RunPartitions(p, docs, 8, func(tc *rdd.TaskContext, part int, rows []data.Document) struct{} {
		tc.Commit() // before mutating shared counts: retries must not double-add
		state := &st{z: make([][]int32, len(rows)), ndk: make([][]int32, len(rows))}
		states[part] = state
		rng := linalg.NewRNG(seed*31 + uint64(part))
		for d, doc := range rows {
			state.z[d] = make([]int32, len(doc.Words))
			state.ndk[d] = make([]int32, topics)
			for t, w := range doc.Words {
				k := rng.Intn(topics)
				state.z[d][t] = int32(k)
				state.ndk[d][k]++
				nwt[k][w]++
				totals[k]++
			}
		}
		tc.Node.Send(tc.P, e.Cluster.Driver, cost.DenseBytes(topics*vocab))
		return struct{}{}
	})

	vb := float64(vocab) * beta
	alphaSum := alpha * float64(topics)
	for it := 0; it < iterations; it++ {
		// Broadcast the full model.
		e.RDD.Broadcast(p, modelBytes)
		type res struct {
			logLik float64
			tokens int
			delta  map[int]map[int]float64
			tdelta []float64
		}
		results := rdd.RunPartitions(p, docs, cost.DenseBytes(topics*vocab),
			func(tc *rdd.TaskContext, part int, rows []data.Document) res {
				tc.Commit()
				state := states[part]
				rng := linalg.NewRNG(seed*101 + uint64(part)*13 + uint64(tc.Attempt) + uint64(it)*7)
				// Local snapshot of word counts for the partition's words.
				local := map[int][]float64{}
				snapshot := func(w int) []float64 {
					vec, ok := local[w]
					if !ok {
						vec = append([]float64(nil), nwtColumn(nwt, w)...)
						local[w] = vec
					}
					return vec
				}
				ltot := append([]float64(nil), totals...)
				r := res{delta: map[int]map[int]float64{}, tdelta: make([]float64, topics)}
				probs := make([]float64, topics)
				for d, doc := range rows {
					docLen := float64(len(doc.Words))
					for t, w := range doc.Words {
						wc := snapshot(int(w))
						old := int(state.z[d][t])
						state.ndk[d][old]--
						wc[old]--
						ltot[old]--
						addTo(r.delta, old, int(w), -1)
						var sum float64
						for k := 0; k < topics; k++ {
							pk := (float64(state.ndk[d][k]) + alpha) * (wc[k] + beta) / (ltot[k] + vb)
							if pk < 0 {
								pk = 0
							}
							probs[k] = pk
							sum += pk
						}
						u := rng.Float64() * sum
						newK := topics - 1
						acc := 0.0
						for k := 0; k < topics; k++ {
							acc += probs[k]
							if u <= acc {
								newK = k
								break
							}
						}
						r.logLik += math.Log(sum / (docLen - 1 + alphaSum))
						state.z[d][t] = int32(newK)
						state.ndk[d][newK]++
						wc[newK]++
						ltot[newK]++
						addTo(r.delta, newK, int(w), +1)
						r.tokens++
					}
				}
				tc.Charge(cost.ElemWork(r.tokens * topics))
				for k := 0; k < topics; k++ {
					r.tdelta[k] = ltot[k] - totals[k]
				}
				return r
			})
		var logLik float64
		var tokens int
		for _, r := range results {
			logLik += r.logLik
			tokens += r.tokens
			// Apply deltas at the driver.
			e.Driver().Compute(p, cost.ElemWork(topics*vocab/8))
			for k, words := range r.delta {
				for w, v := range words {
					nwt[k][w] += v
				}
			}
			for k := 0; k < topics; k++ {
				totals[k] += r.tdelta[k]
			}
		}
		if tokens > 0 {
			trace.Add(p.Now(), logLik/float64(tokens))
		}
	}
	return trace, nil
}

func nwtColumn(nwt [][]float64, w int) []float64 {
	col := make([]float64, len(nwt))
	for k := range nwt {
		col[k] = nwt[k][w]
	}
	return col
}

func addTo(delta map[int]map[int]float64, k, w int, v float64) {
	m, ok := delta[k]
	if !ok {
		m = map[int]float64{}
		delta[k] = m
	}
	m[w] += v
}
