package embedding

import (
	"math"
	"testing"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func testGraphPairs(t *testing.T) (*data.Graph, []data.Pair) {
	t.Helper()
	g, err := data.GenerateGraph(data.GraphConfig{Vertices: 300, EdgesPerNode: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := data.DefaultWalkConfig()
	wcfg.WalksPerVertex = 2
	pairs := data.RandomWalks(g, wcfg)
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	return g, pairs
}

func newEngine(executors, servers int) *core.Engine {
	opt := core.DefaultOptions()
	opt.Executors = executors
	opt.Servers = servers
	return core.NewEngine(opt)
}

func trainMode(t *testing.T, mode Mode, servers int) (*Model, *core.Engine, []data.Pair, float64) {
	t.Helper()
	_, pairs := testGraphPairs(t)
	e := newEngine(4, servers)
	cfg := DefaultConfig()
	cfg.K = 32
	cfg.Mode = mode
	cfg.Iterations = 10
	cfg.BatchSize = 400
	cfg.LearningRate = 0.3
	var model *Model
	var score float64
	e.Run(func(p *simnet.Proc) {
		prdd := rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, 4)).Cache()
		m, err := Train(p, e, prdd, 300, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		model = m
		score = EdgeScore(p, e.Driver(), m, pairs[:200], 3)
	})
	return model, e, pairs, score
}

func TestTrainDCVLearnsStructure(t *testing.T) {
	model, _, _, score := trainMode(t, ModeDCV, 2)
	if model.Trace.Len() != 10 {
		t.Fatalf("trace samples = %d", model.Trace.Len())
	}
	first, last := model.Trace.Values[0], model.Trace.Final()
	if last >= first {
		t.Fatalf("pair loss did not fall: %v -> %v", first, last)
	}
	if score <= 0.02 {
		t.Fatalf("edge score %v: embedding learned no graph structure", score)
	}
}

func TestTrainPullPushLearnsStructure(t *testing.T) {
	model, _, _, score := trainMode(t, ModePullPush, 2)
	first, last := model.Trace.Values[0], model.Trace.Final()
	if last >= first {
		t.Fatalf("pair loss did not fall: %v -> %v", first, last)
	}
	if score <= 0.02 {
		t.Fatalf("edge score %v: embedding learned no graph structure", score)
	}
}

func TestDCVModeFasterWithFewServers(t *testing.T) {
	// Fig 9(c): with few servers, PS2-DeepWalk beats PS-DeepWalk because
	// only scalars travel instead of full embedding vectors.
	timeFor := func(mode Mode) float64 {
		_, pairs := testGraphPairs(t)
		e := newEngine(4, 2)
		cfg := DefaultConfig()
		cfg.K = 256
		cfg.Mode = mode
		cfg.Iterations = 3
		cfg.BatchSize = 100
		return e.Run(func(p *simnet.Proc) {
			prdd := rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, 4)).Cache()
			if _, err := Train(p, e, prdd, 300, cfg); err != nil {
				t.Error(err)
			}
		})
	}
	dcvTime := timeFor(ModeDCV)
	ppTime := timeFor(ModePullPush)
	if dcvTime*1.5 > ppTime {
		t.Fatalf("DCV mode (%vs) not clearly faster than pull/push (%vs) with 2 servers", dcvTime, ppTime)
	}
}

// TestModesComputeSameUpdateGivenSameDraws trains the same pairs from the same
// initialisation in the three arms of Fig 9(c)/(d) and ext-fusion, on one
// executor and one partition for several iterations, so every arm draws the
// same negatives and applies the pairs in the same order.
//   - Fused and unfused DCV agree bit for bit: fusion only moves pair k's
//     update into pair k+1's request, and each server still runs update k
//     before dot k+1.
//   - Pull/push agrees to 1e-9: it sums a pair's dots over whole vectors
//     where DCV sums per-server partial dots, and it adds a repeated
//     negative's deltas one context at a time where DCV groups them per row
//     first.
func TestModesComputeSameUpdateGivenSameDraws(t *testing.T) {
	const vertices = 10
	pairs := []data.Pair{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 1}, {U: 4, V: 5}, {U: 5, V: 1}, {U: 6, V: 2}}
	runOne := func(mode Mode, noFusion bool) [][]float64 {
		e := newEngine(1, 3)
		cfg := DefaultConfig()
		cfg.K = 16
		cfg.Mode = mode
		cfg.NoFusion = noFusion
		cfg.Iterations = 3
		cfg.BatchSize = len(pairs) // fraction 1: every iteration trains every pair
		cfg.Negatives = 2
		var rows [][]float64
		e.Run(func(p *simnet.Proc) {
			prdd := rdd.FromSlices(e.RDD, [][]data.Pair{pairs})
			m, err := Train(p, e, prdd, vertices, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if m.Trace.Len() != cfg.Iterations {
				t.Errorf("%v: %d trace points, want %d", mode, m.Trace.Len(), cfg.Iterations)
			}
			ids := make([]int, 2*vertices)
			for i := range ids {
				ids[i] = i
			}
			rows = ps.Must(m.Mat.PullRows(p, e.Driver(), ids, nil))
		})
		return rows
	}
	fused := runOne(ModeDCV, false)
	unfused := runOne(ModeDCV, true)
	pullPush := runOne(ModePullPush, false)
	for r := range fused {
		for i := range fused[r] {
			if fused[r][i] != unfused[r][i] {
				t.Fatalf("fused and unfused DCV differ at row %d col %d: %v vs %v", r, i, fused[r][i], unfused[r][i])
			}
			if math.Abs(fused[r][i]-pullPush[r][i]) > 1e-9 {
				t.Fatalf("DCV and pull/push diverge at row %d col %d: %v vs %v", r, i, fused[r][i], pullPush[r][i])
			}
		}
	}
}

func TestTrainValidation(t *testing.T) {
	e := newEngine(2, 2)
	e.Run(func(p *simnet.Proc) {
		prdd := rdd.FromSlices(e.RDD, [][]data.Pair{{{U: 0, V: 1}}})
		if _, err := Train(p, e, prdd, 0, DefaultConfig()); err == nil {
			t.Error("V=0 accepted")
		}
		empty := rdd.FromSlices(e.RDD, [][]data.Pair{{}})
		if _, err := Train(p, e, empty, 5, DefaultConfig()); err == nil {
			t.Error("empty dataset accepted")
		}
	})
}

func TestSimilarity(t *testing.T) {
	if s := Similarity([]float64{1, 0}, []float64{1, 0}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("self similarity = %v", s)
	}
	if s := Similarity([]float64{1, 0}, []float64{0, 1}); math.Abs(s) > 1e-12 {
		t.Fatalf("orthogonal similarity = %v", s)
	}
	if s := Similarity([]float64{0, 0}, []float64{1, 1}); s != 0 {
		t.Fatalf("zero-vector similarity = %v", s)
	}
}

func TestUnigramNegativeSamplingSkewsTowardHubs(t *testing.T) {
	// On a preferential-attachment graph, hub vertices dominate walk
	// contexts; unigram^0.75 negatives must therefore hit hubs far more
	// often than uniform ones would. We observe the effect through the
	// context rows touched during training (hub context rows move more).
	g, pairs := testGraphPairs(t)
	// Find the hub (max degree vertex).
	hub, hubDeg := 0, 0
	for v, nbrs := range g.Adj {
		if len(nbrs) > hubDeg {
			hub, hubDeg = v, len(nbrs)
		}
	}
	_ = hub
	freq := make([]float64, g.Vertices())
	for _, pr := range pairs {
		freq[pr.V]++
	}
	// Sanity: the distribution is skewed enough for the test to mean something.
	var maxF, sumF float64
	for _, f := range freq {
		sumF += f
		if f > maxF {
			maxF = f
		}
	}
	if maxF < 4*sumF/float64(len(freq)) {
		t.Skip("graph not skewed enough")
	}
	e := newEngine(4, 2)
	cfg := DefaultConfig()
	cfg.K = 16
	cfg.Iterations = 4
	cfg.BatchSize = 200
	e.Run(func(p *simnet.Proc) {
		prdd := rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, 4)).Cache()
		if _, err := Train(p, e, prdd, g.Vertices(), cfg); err != nil {
			t.Error(err)
		}
	})
	// The training must simply succeed with the noise sampler wired in; the
	// sampler's distribution itself is verified in linalg.
}

// TestCachedPullPush runs the PS baseline through the worker cache with
// write combining: training must succeed, the combined deltas must ship at
// partition end, and the learned loss trace must stay finite.
func TestCachedPullPush(t *testing.T) {
	_, pairs := testGraphPairs(t)
	e := newEngine(4, 2)
	cfg := DefaultConfig()
	cfg.K = 16
	cfg.Mode = ModePullPush
	cfg.Iterations = 3
	cfg.BatchSize = 200
	cfg.Cache = &ps.CacheConfig{Policy: consistency.NewClockBounded(1), CombinePushes: true}
	e.Run(func(p *simnet.Proc) {
		prdd := rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, 4)).Cache()
		m, err := Train(p, e, prdd, 300, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for _, v := range m.Trace.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite loss %v in trace", v)
			}
		}
	})
	if st := e.PS.Cache; st.Flushes == 0 || st.CombinedPushes == 0 {
		t.Fatalf("no combined flush ran: %+v", st)
	}
}

func TestLinkPredictionAUC(t *testing.T) {
	g, pairs := testGraphPairs(t)
	e := newEngine(4, 2)
	cfg := DefaultConfig()
	cfg.K = 32
	cfg.Iterations = 10
	cfg.BatchSize = 400
	cfg.LearningRate = 0.3
	var model *Model
	e.Run(func(p *simnet.Proc) {
		prdd := rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, 4)).Cache()
		m, err := Train(p, e, prdd, g.Vertices(), cfg)
		if err != nil {
			t.Error(err)
			return
		}
		model = m
	})
	// Score real edges against non-edges.
	var edges []data.Pair
	for u, nbrs := range g.Adj {
		for _, v := range nbrs {
			if int32(u) < v {
				edges = append(edges, data.Pair{U: int32(u), V: v})
			}
			if len(edges) >= 300 {
				break
			}
		}
		if len(edges) >= 300 {
			break
		}
	}
	auc := model.LinkPredictionAUC(g, edges, 7)
	if math.IsNaN(auc) || auc < 0.65 {
		t.Fatalf("link prediction AUC %v; trained embedding should beat chance clearly", auc)
	}
}
