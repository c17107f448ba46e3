package lr

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ps"
	"repro/internal/simnet"
)

func asyncDataset(t *testing.T) *data.ClassifyDataset {
	t.Helper()
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 2000, Dim: 2000, NnzPerRow: 10, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 300, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// runAsync trains at staleness (iterations and batch fraction fixed here) on
// a 4+4 cluster and returns the final weights and the virtual end time.
func runAsync(t *testing.T, ds *data.ClassifyDataset, staleness int, straggler bool) ([]float64, float64) {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Executors, opt.Servers = 4, 4
	e := core.NewEngine(opt)
	if straggler {
		e.Cluster.Executors[0].SlowDown(20)
	}
	cfg := AsyncConfig{Config: DefaultConfig(), Staleness: staleness}
	cfg.Iterations = 25
	cfg.BatchFraction = 0.4
	var w []float64
	end := e.Run(func(p *simnet.Proc) {
		model, err := TrainAsync(p, e, data.Partition(ds.Instances, 4), ds.Config.Dim, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		model.Wait(p)
		w = ps.Must(model.FinalWeights(p, e.Driver()))
	})
	return w, end
}

func TestTrainAsyncConverges(t *testing.T) {
	ds := asyncDataset(t)
	w, _ := runAsync(t, ds, 2, false)
	if loss := EvalLoss(Logistic, ds.Instances, w); loss >= math.Ln2 {
		t.Fatalf("SSP training did not improve: %v", loss)
	}
}

func TestSSPBeatsBSPUnderStraggler(t *testing.T) {
	// With one executor 20x slower on compute, BSP (staleness 0) gates every
	// round on the straggler while SSP overlaps it.
	ds := asyncDataset(t)
	wBSP, bspTime := runAsync(t, ds, 0, true)
	wSSP, sspTime := runAsync(t, ds, 5, true)
	if sspTime >= bspTime {
		t.Fatalf("SSP (%vs) not faster than BSP (%vs) under a straggler", sspTime, bspTime)
	}
	bspLoss := EvalLoss(Logistic, ds.Instances, wBSP)
	sspLoss := EvalLoss(Logistic, ds.Instances, wSSP)
	if sspLoss > bspLoss*1.25 {
		t.Fatalf("staleness cost too much accuracy: SSP %v vs BSP %v", sspLoss, bspLoss)
	}
}

func TestBSPMatchesZeroStalenessSemantics(t *testing.T) {
	// staleness 0 must serialize rounds: the total time with a straggler is
	// at least iterations x the straggler's per-round compute.
	ds := asyncDataset(t)
	_, bspTime := runAsync(t, ds, 0, true)
	_, cleanTime := runAsync(t, ds, 0, false)
	if bspTime < cleanTime*2 {
		t.Fatalf("straggler barely affected BSP: %v vs %v", bspTime, cleanTime)
	}
}

func TestTrainAsyncValidation(t *testing.T) {
	opt := core.DefaultOptions()
	opt.Executors, opt.Servers = 2, 2
	e := core.NewEngine(opt)
	e.Run(func(p *simnet.Proc) {
		if _, err := TrainAsync(p, e, nil, 10, AsyncConfig{Config: DefaultConfig()}); err == nil {
			t.Error("empty partitions accepted")
		}
		cfg := AsyncConfig{Config: Config{}}
		if _, err := TrainAsync(p, e, [][]data.Instance{{}}, 10, cfg); err == nil {
			t.Error("zero iterations accepted")
		}
		// The PS2 strategy's knobs that SSP training has no use for are
		// refused by name, not dropped.
		for field, set := range map[string]func(*Config){
			"CheckpointEvery": func(c *Config) { c.CheckpointEvery = 5 },
			"NoFusion":        func(c *Config) { c.NoFusion = true },
			"Replicas":        func(c *Config) { c.Replicas = &ps.ReplicaConfig{HotCols: []int{0}} },
			"Cache":           func(c *Config) { c.Cache = &ps.CacheConfig{} },
		} {
			cfg := AsyncConfig{Config: DefaultConfig()}
			set(&cfg.Config)
			_, err := TrainAsync(p, e, [][]data.Instance{{}}, 10, cfg)
			if err == nil || !strings.Contains(err.Error(), "Config."+field) {
				t.Errorf("Config.%s set: TrainAsync returned %v, want an error naming the field", field, err)
			}
		}
	})
}
