package baselines

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml/lda"
	"repro/internal/ml/lr"
	"repro/internal/obs"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func newEngine(executors, servers int) *core.Engine {
	opt := core.DefaultOptions()
	opt.Executors = executors
	opt.Servers = servers
	return core.NewEngine(opt)
}

func classifyDataset(t *testing.T) *data.ClassifyDataset {
	t.Helper()
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 2000, Dim: 500, NnzPerRow: 8, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 100, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func loadRDD(e *core.Engine, ds *data.ClassifyDataset) *rdd.RDD[data.Instance] {
	return rdd.FromSlices(e.RDD, data.Partition(ds.Instances, e.RDD.NumExecutors())).Cache()
}

// trainLR runs the shared LR loop with strategy s on e and returns the trace
// and the virtual finishing time.
func trainLR(t *testing.T, e *core.Engine, ds *data.ClassifyDataset, cfg lr.Config, s lr.Strategy) (*core.Trace, float64) {
	t.Helper()
	var trace *core.Trace
	end := e.Run(func(p *simnet.Proc) {
		var err error
		if trace, err = lr.Run(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, s); err != nil {
			t.Error(err)
		}
	})
	if trace == nil {
		t.FailNow()
	}
	return trace, end
}

// modelOf reads a baseline strategy's trained weights host-side.
func modelOf(t *testing.T, s lr.Strategy) []float64 {
	t.Helper()
	switch s := s.(type) {
	case *mllib:
		return s.rows[0]
	case *mllibStar:
		return s.models[0]
	case *petuum:
		return hostRow(s.mat)
	case *distML:
		return s.view
	}
	t.Fatalf("no model reader for %T", s)
	return nil
}

func TestMLlibLRConverges(t *testing.T) {
	ds := classifyDataset(t)
	cfg := lr.DefaultConfig()
	cfg.Iterations = 60
	cfg.BatchFraction = 0.3
	s := MLlib(lr.NewSGD())
	trace, _ := trainLR(t, newEngine(4, 0), ds, cfg, s)
	if trace.Final() >= math.Ln2 {
		t.Fatalf("MLlib LR did not improve: %v", trace.Final())
	}
	if acc := lr.Accuracy(ds.Instances, modelOf(t, s)); acc < 0.7 {
		t.Fatalf("MLlib accuracy %v", acc)
	}
}

func TestMLlibLROOM(t *testing.T) {
	e := newEngine(4, 0)
	cfg := lr.DefaultConfig()
	e.Run(func(p *simnet.Proc) {
		dsRDD := rdd.FromSlices(e.RDD, [][]data.Instance{{}})
		_, err := lr.Run(p, e, dsRDD, 20_000_000, cfg, MLlib(lr.NewAdam()))
		if !errors.Is(err, ErrOOM) {
			t.Errorf("err = %v, want ErrOOM", err)
		}
	})
}

// TestMLlibLRFitsFigure1 pins what the heap bound counts: the model the
// driver keeps, not the round's aggregated gradient, so SGD at full-scale
// Figure 1's largest model (48 MB of weights) sets up.
func TestMLlibLRFitsFigure1(t *testing.T) {
	e := newEngine(1, 0)
	e.Run(func(p *simnet.Proc) {
		err := MLlib(lr.NewSGD()).Setup(p, e, nil, 6_000_000, lr.DefaultConfig())
		if err != nil {
			t.Errorf("Setup at 6,000,000 features: %v", err)
		}
	})
}

func TestMLlibSlowerThanPS2AtLargeDim(t *testing.T) {
	// The heart of the paper: at large model dimensions, driver aggregation
	// loses badly to the parameter-server path.
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 800, Dim: 400_000, NnzPerRow: 10, Skew: 1.1, WeightNnz: 1000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lr.DefaultConfig()
	cfg.Iterations = 3
	cfg.BatchFraction = 0.5

	_, mllibTime := trainLR(t, newEngine(8, 8), ds, cfg, MLlib(lr.NewSGD()))
	e2 := newEngine(8, 8)
	ps2Time := e2.Run(func(p *simnet.Proc) {
		if _, err := lr.Train(p, e2, loadRDD(e2, ds), ds.Config.Dim, cfg, lr.NewSGD()); err != nil {
			t.Error(err)
		}
	})
	if ps2Time*5 > mllibTime {
		t.Fatalf("PS2 (%vs) not ≫ faster than MLlib (%vs) at dim 400K", ps2Time, mllibTime)
	}
}

func TestPetuumLRConvergesSlowerThanPS2(t *testing.T) {
	ds := classifyDataset(t)
	cfg := lr.DefaultConfig()
	cfg.Iterations = 30
	cfg.BatchFraction = 0.3

	petuumTrace, _ := trainLR(t, newEngine(4, 4), ds, cfg, Petuum())
	e2 := newEngine(4, 4)
	var ps2Trace *core.Trace
	e2.Run(func(p *simnet.Proc) {
		m, err := lr.Train(p, e2, loadRDD(e2, ds), ds.Config.Dim, cfg, lr.NewSGD())
		if err != nil {
			t.Error(err)
			return
		}
		ps2Trace = m.Trace
	})
	if petuumTrace.Final() >= math.Ln2 {
		t.Fatalf("Petuum did not improve: %v", petuumTrace.Final())
	}
	// Same iteration count, so compare wall-clock at the last sample.
	pT := petuumTrace.Times[petuumTrace.Len()-1]
	sT := ps2Trace.Times[ps2Trace.Len()-1]
	if sT >= pT {
		t.Fatalf("PS2 (%vs) not faster than Petuum (%vs) for the same iterations", sT, pT)
	}
}

func TestDistMLConvergesOnEasyData(t *testing.T) {
	ds := classifyDataset(t)
	cfg := lr.DefaultConfig()
	cfg.Iterations = 40
	cfg.BatchFraction = 0.3
	cfg.LearningRate = 0.1 // tame step: converges on well-conditioned data
	trace, _ := trainLR(t, newEngine(4, 4), ds, cfg, DistML())
	if trace.Final() >= math.Ln2 {
		t.Fatalf("DistML did not improve on easy data: %v", trace.Final())
	}
}

func TestDistMLWorseThanPS2OnSkewedData(t *testing.T) {
	// Fig 10(a): on KDDB-like skewed data with the shared hyperparameters,
	// DistML's stale constant-step updates leave it far behind PS2.
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 3000, Dim: 2000, NnzPerRow: 30, Skew: 1.3, NoiseRate: 0.05, WeightNnz: 300, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lr.DefaultConfig() // aggressive paper learning rate 0.618
	cfg.Iterations = 40
	cfg.BatchFraction = 0.3

	// At the paper's 20-worker scale, DistML's per-worker steps against a
	// stale snapshot amplify the effective learning rate ~12x and it
	// diverges, matching Figure 10(a)'s "cannot converge although we
	// carefully tune" observation.
	distml, _ := trainLR(t, newEngine(20, 4), ds, cfg, DistML())
	e2 := newEngine(20, 4)
	var ps2 *core.Trace
	e2.Run(func(p *simnet.Proc) {
		m, err := lr.Train(p, e2, loadRDD(e2, ds), ds.Config.Dim, cfg, lr.NewSGD())
		if err != nil {
			t.Error(err)
			return
		}
		ps2 = m.Trace
	})
	if distml.Best() <= ps2.Final()*1.05 {
		t.Fatalf("DistML (best %v) unexpectedly matched PS2 (final %v) on skewed data", distml.Best(), ps2.Final())
	}
}

func TestPullPushAdamMatchesZipAdam(t *testing.T) {
	// PS-Adam and PS2-Adam compute the same update; only the wire traffic
	// differs. Same data, same seeds: identical weights, but PS-Adam slower.
	// One executor makes one gradient push per iteration, so the gradient
	// sums alike in both runs and the weights must be bit-identical. With
	// several, pushes that arrive together at a server may add up in either
	// order and differ in the last bits, and every executor's redundant
	// pull/Set of the same slices must still leave one consistent model.
	ds := classifyDataset(t)
	cfg := lr.DefaultConfig()
	cfg.Iterations = 8
	cfg.BatchFraction = 0.5

	for _, tc := range []struct {
		executors int
		tol       float64
	}{{1, 0}, {4, 1e-9}} {
		run := func(opt lr.Optimizer) ([]float64, float64) {
			e := newEngine(tc.executors, 4)
			var w []float64
			end := e.Run(func(p *simnet.Proc) {
				m, err := lr.Train(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, opt)
				if err != nil {
					t.Error(err)
					return
				}
				w = m.Weights.Pull(p, e.Driver())
			})
			return w, end
		}
		zipW, zipTime := run(lr.NewAdam())
		ppW, ppTime := run(PullPush(lr.NewAdam()))
		for i := range zipW {
			if !(math.Abs(zipW[i]-ppW[i]) <= tc.tol) {
				t.Fatalf("%d executors: weights diverge at %d: %v vs %v", tc.executors, i, zipW[i], ppW[i])
			}
		}
		if zipTime >= ppTime {
			t.Fatalf("%d executors: zip Adam (%vs) not faster than pull/push Adam (%vs)", tc.executors, zipTime, ppTime)
		}
	}
}

// TestLRStrategiesAgree runs every LR strategy for one iteration from one
// seed on one executor. They share the loop, the sample and the gradient, and
// differ only in where the model lives and how bytes move, so their weights
// must be bit-identical: at BatchFraction 1 all of them, and at 0.5, which
// checks that they draw the same rows, all but Petuum, which divides its step
// by the expected batch by design. For Adam, Adagrad and RMSProp, the Spark-,
// PS- and PS2- systems run one optimizer value's kernel and agree the same
// way.
func TestLRStrategiesAgree(t *testing.T) {
	ds := classifyDataset(t)
	train := func(cfg lr.Config, s lr.Strategy) []float64 {
		e := newEngine(1, 2)
		trainLR(t, e, ds, cfg, s)
		return modelOf(t, s)
	}
	trainPS2 := func(cfg lr.Config, opt lr.Optimizer) []float64 {
		e := newEngine(1, 2)
		var w []float64
		e.Run(func(p *simnet.Proc) {
			m, err := lr.Train(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, opt)
			if err != nil {
				t.Error(err)
				return
			}
			w = m.Weights.Pull(p, e.Driver())
		})
		return w
	}
	agree := func(fraction float64, ref string, want []float64, others map[string][]float64) {
		for name, got := range others {
			if len(got) != len(want) {
				t.Fatalf("fraction %v: %s has %d weights, %s %d", fraction, name, len(got), ref, len(want))
			}
			differ := 0
			for i := range want {
				if got[i] != want[i] {
					differ++
				}
			}
			if differ > 0 {
				t.Errorf("fraction %v: %s differs from %s in %d of %d weights", fraction, name, ref, differ, len(want))
			}
		}
	}
	for _, fraction := range []float64{1, 0.5} {
		cfg := lr.DefaultConfig()
		cfg.Iterations = 1
		cfg.BatchFraction = fraction
		sgd := map[string][]float64{
			"MLlib":      train(cfg, MLlib(lr.NewSGD())),
			"MLlib+tree": train(cfg, MLlibTree()),
			"MLlib*":     train(cfg, MLlibStar(1)),
			"DistML":     train(cfg, DistML()),
		}
		if fraction == 1 {
			sgd["Petuum"] = train(cfg, Petuum())
		}
		agree(fraction, "PS2-SGD", trainPS2(cfg, lr.NewSGD()), sgd)
		for _, opt := range []lr.Optimizer{lr.NewAdam(), lr.NewAdagrad(), lr.NewRMSProp()} {
			agree(fraction, "PS2-"+opt.Name(), trainPS2(cfg, opt), map[string][]float64{
				"Spark-" + opt.Name(): train(cfg, MLlib(opt)),
				"PS-" + opt.Name():    trainPS2(cfg, PullPush(opt)),
			})
		}
	}
}

func ldaCorpus(t *testing.T) *data.Corpus {
	t.Helper()
	corpus, err := data.GenerateCorpus(data.CorpusConfig{
		Docs: 600, Vocab: 2000, MeanDocLen: 60, TrueTopics: 10, Concentrate: 0.05, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func TestLDABaselineOrdering(t *testing.T) {
	// Fig 12(a)'s shape: PS2 < Petuum < Glint in time for the same number of
	// Gibbs iterations.
	corpus := ldaCorpus(t)
	iters := 4
	topics := 20

	timePS2 := func() float64 {
		e := newEngine(4, 4)
		cfg := lda.DefaultConfig()
		cfg.Topics = topics
		cfg.Iterations = iters
		return e.Run(func(p *simnet.Proc) {
			docs := rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 4)).Cache()
			if _, err := lda.Train(p, e, docs, corpus.Config.Vocab, cfg); err != nil {
				t.Error(err)
			}
		})
	}
	timePetuum := func() float64 {
		e := newEngine(4, 4)
		return e.Run(func(p *simnet.Proc) {
			docs := rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 4)).Cache()
			if _, err := lda.Run(p, e, docs, corpus.Config.Vocab, ldaConfig(topics, iters), PetuumLDA()); err != nil {
				t.Error(err)
			}
		})
	}
	timeGlint := func() float64 {
		e := newEngine(4, 4)
		return e.Run(func(p *simnet.Proc) {
			docs := rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 4)).Cache()
			if _, err := lda.Run(p, e, docs, corpus.Config.Vocab, ldaConfig(topics, iters), GlintLDA()); err != nil {
				t.Error(err)
			}
		})
	}
	ps2, petuum, glint := timePS2(), timePetuum(), timeGlint()
	if !(ps2 < petuum && petuum < glint) {
		t.Fatalf("ordering violated: PS2=%v Petuum=%v Glint=%v", ps2, petuum, glint)
	}
}

// TestLDATrainersSampleAlike runs the four LDA trainers from one seed, with
// each sampler. They share one sampler and differ only in how counts move, so
// every iteration's log-likelihood must be bit-identical across them.
func TestLDATrainersSampleAlike(t *testing.T) {
	corpus := ldaCorpus(t)
	vocab := corpus.Config.Vocab
	const topics, iters = 20, 6
	type trainer func(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document]) (*core.Trace, error)
	run := func(servers int, train trainer) []float64 {
		e := newEngine(4, servers)
		var tr *core.Trace
		e.Run(func(p *simnet.Proc) {
			docs := rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 4)).Cache()
			var err error
			if tr, err = train(p, e, docs); err != nil {
				t.Error(err)
			}
		})
		if tr == nil {
			t.FailNow()
		}
		return tr.Values
	}
	for _, sampler := range []lda.Sampler{lda.SamplerStandard, lda.SamplerSparse} {
		cfg := ldaConfig(topics, iters)
		cfg.Sampler = sampler
		traces := map[string][]float64{
			"PS2": run(4, func(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document]) (*core.Trace, error) {
				m, err := lda.Train(p, e, docs, vocab, cfg)
				if err != nil {
					return nil, err
				}
				return m.Trace, nil
			}),
			"MLlib": run(0, func(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document]) (*core.Trace, error) {
				return lda.Run(p, e, docs, vocab, cfg, MLlibLDA())
			}),
			"Petuum": run(4, func(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document]) (*core.Trace, error) {
				return lda.Run(p, e, docs, vocab, cfg, PetuumLDA())
			}),
			"Glint": run(4, func(p *simnet.Proc, e *core.Engine, docs *rdd.RDD[data.Document]) (*core.Trace, error) {
				return lda.Run(p, e, docs, vocab, cfg, GlintLDA())
			}),
		}
		want := traces["MLlib"]
		if len(want) != iters {
			t.Fatalf("sampler %d: MLlib trace has %d iterations, want %d", sampler, len(want), iters)
		}
		for name, got := range traces {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Errorf("sampler %d: %s diverges from MLlib at iteration %d: %v vs %v", sampler, name, i, got, want)
					break
				}
			}
		}
	}
}

// ldaConfig is Table 4's LDA configuration with the given topics and
// iterations.
func ldaConfig(topics, iters int) lda.Config {
	cfg := lda.DefaultConfig()
	cfg.Topics, cfg.Iterations = topics, iters
	return cfg
}

// ldaSystems are the four LDA systems of Figure 12 as strategies, each with
// the servers it runs on.
var ldaSystems = []struct {
	name     string
	servers  int
	strategy func() lda.Strategy
}{
	{"PS2", 4, lda.PS2},
	{"MLlib", 0, MLlibLDA},
	{"Petuum", 4, PetuumLDA},
	{"Glint", 4, GlintLDA},
}

// TestLDARejectsBadPriors checks that every LDA system refuses a Dirichlet
// prior that is not positive and finite instead of training on it: a zero β
// makes every token's likelihood log 0.
func TestLDARejectsBadPriors(t *testing.T) {
	corpus := ldaCorpus(t)
	bad := []struct{ alpha, beta float64 }{
		{0.5, 0}, {0, 0.01}, {-1, 0.01}, {0.5, -0.01},
		{math.NaN(), 0.01}, {0.5, math.NaN()}, {math.Inf(1), 0.01}, {0.5, math.Inf(1)},
	}
	for _, sys := range ldaSystems {
		for _, prior := range bad {
			cfg := ldaConfig(8, 3)
			cfg.Alpha, cfg.Beta = prior.alpha, prior.beta
			e := newEngine(4, sys.servers)
			e.Run(func(p *simnet.Proc) {
				docs := rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 4)).Cache()
				if tr, err := lda.Run(p, e, docs, corpus.Config.Vocab, cfg, sys.strategy()); err == nil {
					t.Errorf("%s accepted alpha=%v beta=%v and trained %v", sys.name, prior.alpha, prior.beta, tr.Values)
				}
			})
		}
	}
}

// TestLDALoopSpans checks that every LDA system runs on the shared loop.
func TestLDALoopSpans(t *testing.T) {
	corpus := ldaCorpus(t)
	cfg := ldaConfig(8, 3)
	for _, sys := range ldaSystems {
		checkLoopSpans(t, sys.name, cfg.Iterations, func(trace bool) (*core.Engine, float64) {
			opt := core.DefaultOptions()
			opt.Executors, opt.Servers, opt.Trace = 4, sys.servers, trace
			e := core.NewEngine(opt)
			end := e.Run(func(p *simnet.Proc) {
				docs := rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 6)).Cache()
				if _, err := lda.Run(p, e, docs, corpus.Config.Vocab, cfg, sys.strategy()); err != nil {
					t.Error(err)
				}
			})
			return e, end
		})
	}
}

// checkLoopSpans checks the marks of the shared loop on system name, which
// run runs untraced and traced: the traced run has one loop.iter span per
// iteration, tiled by its round and barrier phases, and tracing moves neither
// the event count nor the virtual end time.
func checkLoopSpans(t *testing.T, name string, iterations int, run func(trace bool) (*core.Engine, float64)) {
	t.Helper()
	off, endOff := run(false)
	on, endOn := run(true)
	if endOff != endOn {
		t.Errorf("%s: tracing moved the virtual end time: %v vs %v", name, endOff, endOn)
	}
	if a, b := off.Sim.EventsProcessed(), on.Sim.EventsProcessed(); a != b {
		t.Errorf("%s: tracing moved the event count: %d vs %d", name, a, b)
	}
	var iters []obs.Event
	phases, names := map[uint64]float64{}, map[uint64]string{}
	for _, ev := range on.Tracer().Events() {
		switch ev.Kind {
		case obs.KIteration:
			iters = append(iters, ev)
		case obs.KLoopPhase:
			phases[ev.Parent] += ev.Dur()
			names[ev.Parent] += ev.Name + " "
		}
	}
	if len(iters) != iterations {
		t.Errorf("%s: %d loop.iter spans, want %d", name, len(iters), iterations)
	}
	for i, it := range iters {
		if names[it.ID] != "round barrier " {
			t.Errorf("%s: iteration %d has phases %q, want round then barrier", name, i, names[it.ID])
		}
		if got := phases[it.ID]; math.Abs(got-it.Dur()) > 1e-12 {
			t.Errorf("%s: iteration %d: round + barrier = %.15g, iteration span is %.15g", name, i, got, it.Dur())
		}
	}
}

func TestMLlibLDAConvergesAndOOMs(t *testing.T) {
	corpus, err := data.GenerateCorpus(data.CorpusConfig{
		Docs: 300, Vocab: 600, MeanDocLen: 40, TrueTopics: 6, Concentrate: 0.05, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(3, 0)
	e.Run(func(p *simnet.Proc) {
		docs := rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 3)).Cache()
		tr, err := lda.Run(p, e, docs, corpus.Config.Vocab, ldaConfig(6, 5), MLlibLDA())
		if err != nil {
			t.Error(err)
			return
		}
		if tr.Final() <= tr.Values[0] {
			t.Errorf("MLlib LDA likelihood did not rise: %v -> %v", tr.Values[0], tr.Final())
		}
		// Huge topic count must OOM.
		if _, err := lda.Run(p, e, docs, 600, ldaConfig(100_000, 5), MLlibLDA()); !errors.Is(err, ErrOOM) {
			t.Errorf("giant LDA did not OOM: %v", err)
		}
	})
}

func TestCapabilityMatrixMatchesTable3(t *testing.T) {
	m := CapabilityMatrix()
	if len(m) != 6 {
		t.Fatalf("systems = %d, want 6", len(m))
	}
	byName := map[string]Capability{}
	for _, c := range m {
		byName[c.System] = c
	}
	ps2 := byName["PS2"]
	if !ps2.LR || !ps2.DeepWalk || !ps2.GBDT || !ps2.LDA {
		t.Fatal("PS2 must support all four workloads")
	}
	if byName["XGBoost"].LDA || !byName["XGBoost"].GBDT {
		t.Fatal("XGBoost row wrong")
	}
	if byName["Glint"].LR || !byName["Glint"].LDA {
		t.Fatal("Glint row wrong")
	}
	for _, c := range m {
		if c.System != "PS2" && c.DeepWalk {
			t.Fatalf("%s should not support DeepWalk", c.System)
		}
	}
}

func TestMLlibTreeFasterThanPlain(t *testing.T) {
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 1000, Dim: 100000, NnzPerRow: 10, Skew: 1.1, WeightNnz: 2000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lr.DefaultConfig()
	cfg.Iterations = 4
	cfg.BatchFraction = 0.5
	plain, plainT := trainLR(t, newEngine(16, 0), ds, cfg, MLlib(lr.NewSGD()))
	tree, treeT := trainLR(t, newEngine(16, 0), ds, cfg, MLlibTree())
	if treeT >= plainT {
		t.Fatalf("treeAggregate (%vs) not faster than plain aggregation (%vs)", treeT, plainT)
	}
	if plainLoss, treeLoss := plain.Final(), tree.Final(); math.Abs(plainLoss-treeLoss) > 1e-9 {
		t.Fatalf("aggregation strategy changed the math: %v vs %v", plainLoss, treeLoss)
	}
}

func TestMLlibStarConvergesWithoutDriverTraffic(t *testing.T) {
	ds := classifyDataset(t)
	cfg := lr.DefaultConfig()
	cfg.Iterations = 25
	cfg.BatchFraction = 0.4
	e := newEngine(8, 0)
	trace, _ := trainLR(t, e, ds, cfg, MLlibStar(4))
	if trace.Final() >= math.Ln2 {
		t.Fatalf("MLlib* did not improve: %v", trace.Final())
	}
	// The training rounds must not route model data through the driver: its
	// ingress should see only task status envelopes (~1KB per task).
	maxStatus := float64(cfg.Iterations+2) * 8 * 2048
	if e.Cluster.Driver.BytesRecv > maxStatus {
		t.Fatalf("driver received %v bytes; MLlib* must keep models off the driver", e.Cluster.Driver.BytesRecv)
	}
}
