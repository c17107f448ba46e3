package ps2

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/ml/embedding"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/lda"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
)

// TestServerLossFailsTrainingWithAnError kills one parameter server partway
// through training, with no failure detector and so no recovery, for every
// trainer the package exports and for SSP training. The kill lands while
// the trainer's tasks run, so the first call that gives up on the dead server
// is made inside a task body: a task returns the error, its stage (or SSP
// worker) fails with it, and the trainer returns it to the driver, which
// carries on. Each row's kill time is chosen so; the error's text names the
// task or worker it came from.
func TestServerLossFailsTrainingWithAnError(t *testing.T) {
	classify, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 800, Dim: 2000, NnzPerRow: 10, Skew: 1.0, WeightNnz: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	graph, err := data.GenerateGraph(data.GraphConfig{Vertices: 200, EdgesPerNode: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pairs := data.RandomWalks(graph, data.DefaultWalkConfig())
	tabular, err := data.GenerateTabular(data.TabularConfig{Rows: 600, Features: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := data.GenerateCorpus(data.CorpusConfig{
		Docs: 120, Vocab: 400, MeanDocLen: 30, TrueTopics: 4, Concentrate: 0.05, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	lrCfg := lr.DefaultConfig()
	lrCfg.Iterations = 50
	lrCfg.BatchFraction = 0.4

	rows := []struct {
		name   string
		killAt float64 // virtual seconds into the run
		train  func(p *Proc, e *Engine) error
	}{
		{"TrainLogistic", 0.01, func(p *Proc, e *Engine) error {
			_, err := TrainLogistic(p, e, LoadInstances(e, classify.Instances), classify.Config.Dim, lrCfg, lr.NewAdam())
			return err
		}},
		{"TrainLogistic with a cache", 0.01, func(p *Proc, e *Engine) error {
			_, err := TrainLogistic(p, e, LoadInstances(e, classify.Instances), classify.Config.Dim, lrCfg, lr.NewAdam(),
				TrainOptions{Cache: &CacheConfig{}})
			return err
		}},
		{"TrainDeepWalk", 0.01, func(p *Proc, e *Engine) error {
			cfg := embedding.DefaultConfig()
			cfg.K, cfg.Iterations, cfg.BatchSize = 16, 10, 64
			_, err := TrainDeepWalk(p, e, rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, 2)), graph.Vertices(), cfg)
			return err
		}},
		{"TrainGBDT", 0.05, func(p *Proc, e *Engine) error {
			cfg := gbdt.DefaultConfig()
			cfg.Trees, cfg.MaxDepth = 5, 3
			_, err := TrainGBDT(p, e, tabular, cfg)
			return err
		}},
		{"TrainLDA", 0.01, func(p *Proc, e *Engine) error {
			cfg := lda.DefaultConfig()
			cfg.Topics, cfg.Iterations = 4, 10
			_, err := TrainLDA(p, e, rdd.FromSlices(e.RDD, data.PartitionDocs(corpus.Docs, 2)), corpus.Config.Vocab, cfg)
			return err
		}},
		{"lr.TrainAsync", 0.005, func(p *Proc, e *Engine) error {
			cfg := lr.AsyncConfig{Config: lrCfg, Staleness: 2}
			model, err := lr.TrainAsync(p, e, data.Partition(classify.Instances, 2), classify.Config.Dim, cfg)
			if err != nil {
				return err
			}
			return model.Wait(p)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.Executors, opt.Servers = 2, 2
			opt.RPC = RetryConfig{MaxRetries: 3}
			e := NewEngine(opt)
			e.Sim.Spawn("kill-server-0", func(p *Proc) {
				p.Sleep(row.killAt)
				e.PS.KillServer(0)
			})
			var err error
			returned := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Run panicked: %v", r)
					}
				}()
				e.Run(func(p *Proc) {
					err = row.train(p, e)
					returned = true
				})
			}()
			if !returned {
				t.Fatal("the trainer never returned to the driver")
			}
			if !errors.Is(err, ErrServerDown) {
				t.Fatalf("trainer returned %v, want an error wrapping ErrServerDown", err)
			}
			if msg := err.Error(); !strings.Contains(msg, "rdd: task") && !strings.Contains(msg, "SSP worker") {
				t.Errorf("the server loss surfaced outside a task body: %v", err)
			}
		})
	}
}
