package ps2

import (
	"testing"

	"repro/internal/data"
	"repro/internal/ml/embedding"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/lda"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
)

// The facade tests exercise every public entry point end to end on tiny
// workloads, as a downstream user would.

func smallEngine() *Engine {
	opt := DefaultOptions()
	opt.Executors, opt.Servers = 4, 4
	return NewEngine(opt)
}

func TestFacadeLogistic(t *testing.T) {
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 800, Dim: 2000, NnzPerRow: 10, Skew: 1.0, WeightNnz: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := smallEngine()
	cfg := lr.DefaultConfig()
	cfg.Iterations = 15
	cfg.BatchFraction = 0.4
	e.Run(func(p *Proc) {
		dataset := LoadInstances(e, ds.Instances)
		model, err := TrainLogistic(p, e, dataset, ds.Config.Dim, cfg, lr.NewAdam())
		if err != nil {
			t.Error(err)
			return
		}
		if model.Trace.Final() >= model.Trace.Values[0] {
			t.Errorf("loss did not fall: %v -> %v", model.Trace.Values[0], model.Trace.Final())
		}
	})
}

func TestFacadeDeepWalk(t *testing.T) {
	g, err := data.GenerateGraph(data.GraphConfig{Vertices: 200, EdgesPerNode: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs := data.RandomWalks(g, data.DefaultWalkConfig())
	e := smallEngine()
	cfg := embedding.DefaultConfig()
	cfg.K = 16
	cfg.Iterations = 3
	cfg.BatchSize = 64
	e.Run(func(p *Proc) {
		prdd := rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, 4))
		model, err := TrainDeepWalk(p, e, prdd, g.Vertices(), cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if model.Trace.Len() != 3 {
			t.Errorf("trace = %d samples", model.Trace.Len())
		}
	})
}

func TestFacadeGBDT(t *testing.T) {
	ds, err := data.GenerateTabular(data.TabularConfig{Rows: 600, Features: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := smallEngine()
	cfg := gbdt.DefaultConfig()
	cfg.Trees = 3
	cfg.MaxDepth = 3
	e.Run(func(p *Proc) {
		model, err := TrainGBDT(p, e, ds, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if len(model.Trees) != 3 {
			t.Errorf("trees = %d", len(model.Trees))
		}
	})
}

// TestTrainGBDTRejectsBadConfig checks that a config that cannot bin or
// boost, or a dataset with no rows, comes back as an error from TrainGBDT,
// before binning, and never panics the driver.
func TestTrainGBDTRejectsBadConfig(t *testing.T) {
	ds, err := data.GenerateTabular(data.TabularConfig{Rows: 200, Features: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	with := func(edit func(*gbdt.Config)) gbdt.Config {
		cfg := gbdt.DefaultConfig()
		edit(&cfg)
		return cfg
	}
	empty := &data.TabularDataset{Config: ds.Config}
	cases := []struct {
		name string
		cfg  gbdt.Config
		ds   *data.TabularDataset
	}{
		{"zero config", gbdt.Config{}, ds},
		{"SampleRows 0", with(func(c *gbdt.Config) { c.SampleRows = 0 }), ds},
		{"Bins 1", with(func(c *gbdt.Config) { c.Bins = 1 }), ds},
		{"Bins 300", with(func(c *gbdt.Config) { c.Bins = 300 }), ds},
		{"no rows", gbdt.DefaultConfig(), empty},
	}
	for _, tc := range cases {
		e := smallEngine()
		e.Run(func(p *Proc) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: TrainGBDT panicked: %v", tc.name, r)
				}
			}()
			if _, err := TrainGBDT(p, e, tc.ds, tc.cfg); err == nil {
				t.Errorf("%s: TrainGBDT accepted %+v", tc.name, tc.cfg)
			}
		})
	}
}

func TestFacadeLDA(t *testing.T) {
	c, err := data.GenerateCorpus(data.CorpusConfig{
		Docs: 120, Vocab: 400, MeanDocLen: 30, TrueTopics: 4, Concentrate: 0.05, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := smallEngine()
	cfg := lda.DefaultConfig()
	cfg.Topics = 4
	cfg.Iterations = 4
	e.Run(func(p *Proc) {
		docs := rdd.FromSlices(e.RDD, data.PartitionDocs(c.Docs, 4))
		model, err := TrainLDA(p, e, docs, c.Config.Vocab, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if model.Trace.Len() != 4 {
			t.Errorf("trace = %d samples", model.Trace.Len())
		}
	})
}
