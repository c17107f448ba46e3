// GBDT on PS2 (paper Section 5.2.3, Figures 7 and 8): per tree node, workers
// push first- and second-order gradient histograms into two co-located DCVs
// and split finding runs server-side. The example trains a small ensemble,
// prints the loss curve and the learned root splits, and cross-checks that
// the XGBoost-style AllReduce strategy produces the identical model.
//
//	go run ./examples/gbdt
package main

import (
	"fmt"
	"log"
	"math"

	ps2 "repro"
	"repro/internal/baselines"
	"repro/internal/data"
	"repro/internal/ml/gbdt"
)

func main() {
	ds, err := data.GenerateTabular(data.TabularConfig{Rows: 6000, Features: 40, Seed: 12})
	if err != nil {
		log.Fatal(err)
	}

	cfg := gbdt.DefaultConfig()
	cfg.Trees = 10
	cfg.MaxDepth = 4

	train := func(s gbdt.Strategy) (*gbdt.Model, float64) {
		opt := ps2.DefaultOptions()
		opt.Executors, opt.Servers = 8, 8
		engine := ps2.NewEngine(opt)
		var model *gbdt.Model
		end := engine.Run(func(p *ps2.Proc) {
			r, edges, err := gbdt.PrepareRDD(p, engine, ds, cfg)
			if err == nil {
				model, err = gbdt.Run(p, engine, r, ds.Config.Features, edges, cfg, s)
			}
			if err != nil {
				log.Fatal(err)
			}
		})
		return model, end
	}

	model, elapsed := train(gbdt.PS2())
	fmt.Printf("PS2 GBDT: %d trees, depth %d, %d bins, %.2fs simulated\n",
		cfg.Trees, cfg.MaxDepth, cfg.Bins, elapsed)
	for i, loss := range model.Trace.Values {
		if i%3 == 0 || i == len(model.Trace.Values)-1 {
			fmt.Printf("  after tree %2d: logloss %.4f\n", i+1, loss)
		}
	}

	correct := 0
	for i, x := range ds.X {
		pred := 0.0
		if model.PredictRaw(x) > 0 {
			pred = 1
		}
		if pred == ds.Y[i] {
			correct++
		}
	}
	fmt.Printf("training accuracy: %.1f%%\n", 100*float64(correct)/float64(len(ds.X)))

	root := model.Trees[0].Nodes[0]
	if root.Split != nil {
		fmt.Printf("first tree splits on feature %d at bin %d (gain %.1f)\n",
			root.Split.Feature, root.Split.BinThreshold, root.Split.Gain)
	}

	xgb, xgbTime := train(baselines.XGBoostGBDT())
	maxDiff := 0.0
	for _, x := range ds.X[:500] {
		if d := math.Abs(model.PredictRaw(x) - xgb.PredictRaw(x)); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("XGBoost strategy: %.2fs simulated (PS2 %.1fx faster), max prediction diff vs PS2: %.2e\n",
		xgbTime, xgbTime/elapsed, maxDiff)
}
