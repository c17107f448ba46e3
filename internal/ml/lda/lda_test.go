package lda

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
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

func smallCorpus(t *testing.T) *data.Corpus {
	t.Helper()
	c, err := data.GenerateCorpus(data.CorpusConfig{
		Docs: 400, Vocab: 800, MeanDocLen: 50, TrueTopics: 8, Concentrate: 0.05, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func trainSmall(t *testing.T, iterations int) (*Model, *data.Corpus, *core.Engine, *simnet.Proc) {
	t.Helper()
	c := smallCorpus(t)
	e := newEngine(4, 4)
	cfg := DefaultConfig()
	cfg.Topics = 8
	cfg.Iterations = iterations
	var model *Model
	e.Run(func(p *simnet.Proc) {
		docs := rdd.FromSlices(e.RDD, data.PartitionDocs(c.Docs, 4)).Cache()
		m, err := Train(p, e, docs, c.Config.Vocab, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		model = m
	})
	return model, c, e, nil
}

func TestTrainLikelihoodRises(t *testing.T) {
	model, _, _, _ := trainSmall(t, 12)
	if model.Trace.Len() != 12 {
		t.Fatalf("trace samples = %d", model.Trace.Len())
	}
	first, last := model.Trace.Values[0], model.Trace.Final()
	if last <= first {
		t.Fatalf("log-likelihood did not rise: %v -> %v", first, last)
	}
}

func TestCountsConservationInvariant(t *testing.T) {
	// After training: (1) every word-topic count is non-negative, (2) the
	// matrix total equals the corpus token count, (3) the tracked topic
	// totals equal the matrix row sums.
	model, c, _, _ := trainSmall(t, 5)
	var rowSums []float64
	var total float64
	for k := 0; k < model.Topics; k++ {
		var rs float64
		for s := 0; s < model.WordTopic.Part.NumServers(); s++ {
			sh := model.WordTopic.HostShard(s)
			for _, v := range sh.Dense(k) {
				if v < -1e-9 {
					t.Fatalf("negative count %v in topic %d", v, k)
				}
				rs += v
			}
		}
		rowSums = append(rowSums, rs)
		total += rs
	}
	if math.Abs(total-float64(c.Tokens)) > 1e-6 {
		t.Fatalf("matrix total %v != corpus tokens %d", total, c.Tokens)
	}
	for k, rs := range rowSums {
		if math.Abs(rs-model.Totals[k]) > 1e-6 {
			t.Fatalf("topic %d: row sum %v != tracked total %v", k, rs, model.Totals[k])
		}
	}
}

// TestCountsConservedUnderMessageLoss: with messages lost at random, the
// pulls and pushes are resent and the servers drop a push they already
// applied, so the counts keep TestCountsConservationInvariant's three
// properties.
func TestCountsConservedUnderMessageLoss(t *testing.T) {
	c := smallCorpus(t)
	e := newEngine(4, 4)
	e.Sim.EnableChaos(5, 0.05)
	cfg := DefaultConfig()
	cfg.Topics, cfg.Iterations = 8, 5
	var model *Model
	e.Run(func(p *simnet.Proc) {
		docs := rdd.FromSlices(e.RDD, data.PartitionDocs(c.Docs, 4)).Cache()
		var err error
		if model, err = Train(p, e, docs, c.Config.Vocab, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if net := e.PS.Net; net.DedupHits == 0 {
		t.Fatalf("no push was resent after a lost reply (%+v); the loss missed the pushes", net)
	}
	var total float64
	for k := 0; k < model.Topics; k++ {
		var rs float64
		for s := 0; s < model.WordTopic.Part.NumServers(); s++ {
			for _, v := range model.WordTopic.HostShard(s).Dense(k) {
				if v < -1e-9 {
					t.Fatalf("negative count %v in topic %d", v, k)
				}
				rs += v
			}
		}
		if math.Abs(rs-model.Totals[k]) > 1e-6 {
			t.Fatalf("topic %d: row sum %v != tracked total %v", k, rs, model.Totals[k])
		}
		total += rs
	}
	if math.Abs(total-float64(c.Tokens)) > 1e-6 {
		t.Fatalf("matrix total %v != corpus tokens %d", total, c.Tokens)
	}
}

// TestPullAndPushAreRPCs: a traced iteration of PS2-LDA shows its pull and
// its push as RPC spans.
func TestPullAndPushAreRPCs(t *testing.T) {
	c := smallCorpus(t)
	opt := core.DefaultOptions()
	opt.Executors, opt.Servers, opt.Trace = 4, 4, true
	e := core.NewEngine(opt)
	cfg := DefaultConfig()
	cfg.Topics, cfg.Iterations = 8, 1
	e.Run(func(p *simnet.Proc) {
		docs := rdd.FromSlices(e.RDD, data.PartitionDocs(c.Docs, 4)).Cache()
		if _, err := Train(p, e, docs, c.Config.Vocab, cfg); err != nil {
			t.Fatal(err)
		}
	})
	calls := map[string]int{}
	for _, ev := range e.Tracer().Events() {
		if ev.Kind == obs.KRPC {
			calls[ev.Name]++
		}
	}
	for _, name := range []string{"lda-pull", "lda-push"} {
		if calls[name] == 0 {
			t.Errorf("no %s RPC span; RPC spans by name: %v", name, calls)
		}
	}
}

func TestTopicsRecoverStructure(t *testing.T) {
	// The generator concentrates each true topic on a contiguous vocab
	// region; after training, each learned topic's top words should mostly
	// fall in one region.
	model, c, _, _ := trainSmall(t, 15)
	region := c.Config.Vocab / c.Config.TrueTopics
	concentrated := 0
	for k := 0; k < model.Topics; k++ {
		top := topWordsHostSide(model, k, 10)
		counts := map[int]int{}
		for _, w := range top {
			counts[w/region]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		if best >= 7 {
			concentrated++
		}
	}
	if concentrated < model.Topics/2 {
		t.Fatalf("only %d/%d topics concentrated on a vocab region", concentrated, model.Topics)
	}
}

// topWordsHostSide reads the shard memory directly (test-only shortcut).
func topWordsHostSide(m *Model, topic, n int) []int {
	row := make([]float64, m.Vocab)
	for s := 0; s < m.WordTopic.Part.NumServers(); s++ {
		sh := m.WordTopic.HostShard(s)
		sh.ReadRow(topic, row)
	}
	out := make([]int, 0, n)
	for len(out) < n {
		best, bestV := -1, -1.0
		for w, v := range row {
			if v > bestV {
				best, bestV = w, v
			}
		}
		out = append(out, best)
		row[best] = -2
	}
	return out
}

func TestTrainDeterministic(t *testing.T) {
	run := func() []float64 {
		model, _, _, _ := trainSmall(t, 4)
		return append([]float64(nil), model.Trace.Values...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTrainValidation(t *testing.T) {
	e := newEngine(2, 2)
	e.Run(func(p *simnet.Proc) {
		docs := rdd.FromSlices(e.RDD, [][]data.Document{{{Words: []int32{0, 1}}}})
		if _, err := Train(p, e, docs, 10, Config{Topics: 1, Iterations: 5}); err == nil {
			t.Error("K=1 accepted")
		}
		if _, err := Train(p, e, docs, 0, DefaultConfig()); err == nil {
			t.Error("vocab=0 accepted")
		}
	})
}

func TestRNGIndependentOfHostState(t *testing.T) {
	// Guard against accidental use of global randomness: two engines built
	// back to back must produce identical virtual end times.
	c := smallCorpus(t)
	endFor := func() float64 {
		e := newEngine(3, 3)
		cfg := DefaultConfig()
		cfg.Topics = 6
		cfg.Iterations = 3
		return e.Run(func(p *simnet.Proc) {
			docs := rdd.FromSlices(e.RDD, data.PartitionDocs(c.Docs, 3)).Cache()
			if _, err := Train(p, e, docs, c.Config.Vocab, cfg); err != nil {
				t.Error(err)
			}
		})
	}
	if a, b := endFor(), endFor(); a != b {
		t.Fatalf("virtual end times differ: %v vs %v", a, b)
	}
}

func TestPerplexityImprovesWithTraining(t *testing.T) {
	c := smallCorpus(t)
	heldOut := c.Docs[350:]
	trainDocs := c.Docs[:350]

	perpAfter := func(iterations int) float64 {
		e := newEngine(4, 4)
		cfg := DefaultConfig()
		cfg.Topics = 8
		cfg.Iterations = iterations
		var model *Model
		e.Run(func(p *simnet.Proc) {
			docs := rdd.FromSlices(e.RDD, data.PartitionDocs(trainDocs, 4)).Cache()
			m, err := Train(p, e, docs, c.Config.Vocab, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			model = m
		})
		return Perplexity(model, heldOut, cfg.Alpha, cfg.Beta)
	}
	early := perpAfter(1)
	late := perpAfter(15)
	if math.IsNaN(early) || math.IsNaN(late) {
		t.Fatal("perplexity NaN")
	}
	if late >= early {
		t.Fatalf("held-out perplexity did not improve: %v -> %v", early, late)
	}
	if late >= float64(c.Config.Vocab) {
		t.Fatalf("perplexity %v worse than uniform over vocab", late)
	}
}

func TestPhiIsDistribution(t *testing.T) {
	model, _, _, _ := trainSmall(t, 5)
	phi := model.Phi(0.01)
	for k, row := range phi {
		var sum float64
		for _, v := range row {
			if v <= 0 {
				t.Fatalf("phi[%d] has non-positive entry", k)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("phi[%d] sums to %v", k, sum)
		}
	}
}

func TestCoherenceOfTrainedTopicsBeatsRandom(t *testing.T) {
	model, c, _, _ := trainSmall(t, 15)
	var trained, random float64
	rng := []int{3, 77, 240, 512, 700, 123, 666, 42, 91, 350}
	for k := 0; k < model.Topics; k++ {
		top := model.TopWordsHost(k, 8)
		trained += CoherenceUMass(c.Docs, top, 8)
		random += CoherenceUMass(c.Docs, rng, 8)
	}
	if trained <= random {
		t.Fatalf("trained topic coherence %v not better than random %v", trained, random)
	}
}

func TestCoherenceDegenerate(t *testing.T) {
	if got := CoherenceUMass(nil, []int{1}, 5); got != 0 {
		t.Fatalf("single-word coherence = %v, want 0", got)
	}
}

func TestThetaIsDistribution(t *testing.T) {
	model, _, _, _ := trainSmall(t, 5)
	found := false
	for part := 0; part < 4; part++ {
		for _, row := range model.Theta(part) {
			found = true
			var sum float64
			for _, v := range row {
				if v <= 0 {
					t.Fatal("theta has non-positive entry")
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("theta sums to %v", sum)
			}
		}
	}
	if !found {
		t.Fatal("no theta rows produced")
	}
	if model.Theta(-1) != nil || model.Theta(99) != nil {
		t.Fatal("out-of-range Theta should be nil")
	}
}

func trainWithSampler(t *testing.T, sampler Sampler, iterations int) *Model {
	t.Helper()
	c := smallCorpus(t)
	e := newEngine(4, 4)
	cfg := DefaultConfig()
	cfg.Topics = 8
	cfg.Iterations = iterations
	cfg.Sampler = sampler
	var model *Model
	e.Run(func(p *simnet.Proc) {
		docs := rdd.FromSlices(e.RDD, data.PartitionDocs(c.Docs, 4)).Cache()
		m, err := Train(p, e, docs, c.Config.Vocab, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		model = m
	})
	return model
}

func TestSparseSamplerConvergesLikeStandard(t *testing.T) {
	std := trainWithSampler(t, SamplerStandard, 12)
	sparse := trainWithSampler(t, SamplerSparse, 12)
	if sparse.Trace.Final() <= sparse.Trace.Values[0] {
		t.Fatalf("sparse sampler likelihood did not rise: %v -> %v",
			sparse.Trace.Values[0], sparse.Trace.Final())
	}
	// Same distribution, different draws: final likelihoods should land in
	// the same neighbourhood.
	gap := math.Abs(std.Trace.Final() - sparse.Trace.Final())
	if gap > 0.15*math.Abs(std.Trace.Final()) {
		t.Fatalf("samplers diverged: standard %v vs sparse %v", std.Trace.Final(), sparse.Trace.Final())
	}
}

func TestSparseSamplerConservesCounts(t *testing.T) {
	model := trainWithSampler(t, SamplerSparse, 5)
	var total float64
	for k := 0; k < model.Topics; k++ {
		var rs float64
		for s := 0; s < model.WordTopic.Part.NumServers(); s++ {
			sh := model.WordTopic.HostShard(s)
			for _, v := range sh.Dense(k) {
				if v < -1e-9 {
					t.Fatalf("negative count %v in topic %d", v, k)
				}
				rs += v
			}
		}
		if math.Abs(rs-model.Totals[k]) > 1e-6 {
			t.Fatalf("topic %d: row sum %v != tracked total %v", k, rs, model.Totals[k])
		}
		total += rs
	}
	c := smallCorpus(t)
	if math.Abs(total-float64(c.Tokens)) > 1e-6 {
		t.Fatalf("matrix total %v != corpus tokens %d", total, c.Tokens)
	}
}

func TestSparseSamplerCheaperAtLargeK(t *testing.T) {
	// The decomposition's point: per-token compute scales with the nonzero
	// topic counts, not with K, so the gap widens as K grows past the
	// document length. Compare charged executor work at K=200.
	workFor := func(sampler Sampler) float64 {
		c := smallCorpus(t)
		e := newEngine(4, 4)
		cfg := DefaultConfig()
		cfg.Topics = 200
		cfg.Iterations = 3
		cfg.Sampler = sampler
		e.Run(func(p *simnet.Proc) {
			docs := rdd.FromSlices(e.RDD, data.PartitionDocs(c.Docs, 4)).Cache()
			if _, err := Train(p, e, docs, c.Config.Vocab, cfg); err != nil {
				t.Error(err)
			}
		})
		var work float64
		for _, n := range e.Cluster.Executors {
			work += n.WorkDone
		}
		return work
	}
	std := workFor(SamplerStandard)
	sparse := workFor(SamplerSparse)
	if sparse*2 > std {
		t.Fatalf("sparse sampler work (%v) not well below standard (%v) at K=200", sparse, std)
	}
}
