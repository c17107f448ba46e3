package baselines

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml/gbdt"
	"repro/internal/simnet"
)

// gbdtSystems are the two GBDT systems of Figure 11 as strategies.
var gbdtSystems = []struct {
	name     string
	strategy func() gbdt.Strategy
}{
	{"PS2", gbdt.PS2},
	{"XGBoost", XGBoostGBDT},
}

// runGBDT bins ds and boosts it with strategy s on a fresh engine, traced or
// not, and returns the model, the engine and the virtual finishing time.
func runGBDT(t *testing.T, ds *data.TabularDataset, executors, servers int, cfg gbdt.Config, s gbdt.Strategy, trace bool) (*gbdt.Model, *core.Engine, float64) {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Executors, opt.Servers, opt.Trace = executors, servers, trace
	e := core.NewEngine(opt)
	var model *gbdt.Model
	end := e.Run(func(p *simnet.Proc) {
		r, edges, err := gbdt.PrepareRDD(p, e, ds, cfg)
		if err == nil {
			model, err = gbdt.Run(p, e, r, ds.Config.Features, edges, cfg, s)
		}
		if err != nil {
			t.Error(err)
		}
	})
	if model == nil {
		t.FailNow()
	}
	return model, e, end
}

func trainBackend(t *testing.T, s gbdt.Strategy, rows int) (*gbdt.Model, *data.TabularDataset, float64) {
	t.Helper()
	ds, err := data.GenerateTabular(data.TabularConfig{Rows: rows, Features: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbdt.DefaultConfig()
	cfg.Trees = 8
	cfg.MaxDepth = 4
	model, _, end := runGBDT(t, ds, 4, 4, cfg, s, false)
	return model, ds, end
}

func TestBackendsAgreeOnModel(t *testing.T) {
	// The two backends move histograms differently but compute the same
	// math; trees and losses must agree (ties aside, the losses must match
	// to float tolerance).
	a, ds, _ := trainBackend(t, gbdt.PS2(), 1500)
	b, _, _ := trainBackend(t, XGBoostGBDT(), 1500)
	if math.Abs(a.Trace.Final()-b.Trace.Final()) > 1e-9 {
		t.Fatalf("final losses diverge: PS2=%v XGB=%v", a.Trace.Final(), b.Trace.Final())
	}
	for i, x := range ds.X[:200] {
		if math.Abs(a.PredictRaw(x)-b.PredictRaw(x)) > 1e-9 {
			t.Fatalf("row %d predictions diverge: %v vs %v", i, a.PredictRaw(x), b.PredictRaw(x))
		}
	}
}

func TestPS2FasterThanAllReduce(t *testing.T) {
	// Fig 11's shape: with enough workers, PS histogram aggregation beats
	// ring AllReduce.
	timeFor := func(s gbdt.Strategy) float64 {
		ds, err := data.GenerateTabular(data.TabularConfig{Rows: 2000, Features: 80, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		cfg := gbdt.DefaultConfig()
		cfg.Trees = 2
		cfg.MaxDepth = 3
		_, _, end := runGBDT(t, ds, 8, 8, cfg, s, false)
		return end
	}
	ps2 := timeFor(gbdt.PS2())
	xgb := timeFor(XGBoostGBDT())
	if ps2 >= xgb {
		t.Fatalf("PS2 (%vs) not faster than AllReduce (%vs)", ps2, xgb)
	}
}

// TestTiedSplitsPickTheSameFeature duplicates one signal column twice, so
// three features tie exactly at every bin. With 8 features of 50 bins over 3
// servers, the first copy (feature 2, bins 100–149) straddles the first
// server boundary and the other two lie inside the second server: PS2 merges
// the first copy at the driver and scans the others on a server. Every
// system, and the brute-force scan, must pick the lowest tied (feature, bin).
func TestTiedSplitsPickTheSameFeature(t *testing.T) {
	ds, err := data.GenerateTabular(data.TabularConfig{Rows: 1200, Features: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range ds.X {
		x[2], x[4] = x[3], x[3]
	}
	cfg := gbdt.DefaultConfig()
	cfg.Trees, cfg.MaxDepth = 1, 2
	var roots []gbdt.Split
	var edges [][]float64
	for _, sys := range gbdtSystems {
		m, _, _ := runGBDT(t, ds, 3, 3, cfg, sys.strategy(), false)
		root := m.Trees[0].Nodes[0].Split
		if root == nil {
			t.Fatalf("%s: root did not split", sys.name)
		}
		roots, edges = append(roots, *root), m.Edges
	}

	// Brute force at margin 0: g = 0.5 - y and h = 0.25 for every row; scan
	// features and bins in order, keeping the first best.
	features, bins := ds.Config.Features, cfg.Bins
	gh := make([]float64, features*bins)
	hh := make([]float64, features*bins)
	var G, H float64
	for i, x := range ds.X {
		g := 0.5 - ds.Y[i]
		G += g
		H += 0.25
		for f, b := range gbdt.BinRow(x, edges) {
			gh[f*bins+int(b)] += g
			hh[f*bins+int(b)] += 0.25
		}
	}
	best := gbdt.NoSplit()
	for f := 0; f < features; f++ {
		var gl, hl float64
		for b := 0; b < bins-1; b++ {
			gl += gh[f*bins+b]
			hl += hh[f*bins+b]
			if hl < cfg.MinChildWeight || H-hl < cfg.MinChildWeight {
				continue
			}
			gr, hr := G-gl, H-hl
			gain := 0.5 * (gl*gl/(hl+cfg.Lambda) + gr*gr/(hr+cfg.Lambda) - G*G/(H+cfg.Lambda))
			if gain > best.Gain {
				best = gbdt.Split{Feature: f, BinThreshold: b, Gain: gain}
			}
		}
	}
	if best.Feature != 2 {
		t.Fatalf("brute force picks feature %d; the duplicated signal should win at its first copy, feature 2", best.Feature)
	}
	for i, root := range roots {
		if root.Feature != best.Feature || root.BinThreshold != best.BinThreshold {
			t.Errorf("%s: root split (%d,%d) at gain %v, brute force (%d,%d) at gain %v", gbdtSystems[i].name,
				root.Feature, root.BinThreshold, root.Gain, best.Feature, best.BinThreshold, best.Gain)
		}
	}
}

// TestGBDTLoopSpans checks that both GBDT systems run on the shared loop,
// one tree to an iteration.
func TestGBDTLoopSpans(t *testing.T) {
	ds, err := data.GenerateTabular(data.TabularConfig{Rows: 600, Features: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gbdt.DefaultConfig()
	cfg.Trees, cfg.MaxDepth = 3, 3
	for _, sys := range gbdtSystems {
		checkLoopSpans(t, sys.name, cfg.Trees, func(trace bool) (*core.Engine, float64) {
			_, e, end := runGBDT(t, ds, 4, 4, cfg, sys.strategy(), trace)
			return e, end
		})
	}
}
