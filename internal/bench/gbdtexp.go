package bench

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/data"
	"repro/internal/ml/gbdt"
	"repro/internal/simnet"
)

func init() {
	register("fig11", "GBDT on Gender-like: PS2 vs XGBoost (time to build all trees)", runFig11)
}

func runFig11(o Opts) *Result {
	dcfg := data.GenderLike()
	cfg := gbdt.DefaultConfig()
	if o.Quick {
		dcfg.Rows = 4000
		dcfg.Features = 80
		cfg.Trees = 5
		cfg.MaxDepth = 4
	}
	ds, err := data.GenerateTabular(dcfg)
	if err != nil {
		panic(err)
	}
	workers := 20
	if o.Quick {
		workers = 8
	}

	run := func(s gbdt.Strategy) (float64, float64) {
		e := paperEngine(workers, workers)
		var final float64
		end := e.Run(func(p *simnet.Proc) {
			r, edges, err := gbdt.PrepareRDD(p, e, ds, cfg)
			if err != nil {
				panic(err)
			}
			m, err := gbdt.Run(p, e, r, ds.Config.Features, edges, cfg, s)
			if err != nil {
				panic(err)
			}
			final = m.Trace.Final()
		})
		return end, final
	}
	ps2Time, ps2Loss := run(gbdt.PS2())
	xgbTime, xgbLoss := run(baselines.XGBoostGBDT())

	r := &Result{ID: "fig11",
		Title:  fmt.Sprintf("GBDT, %d trees x depth %d, %d rows x %d features, hist size %d", cfg.Trees, cfg.MaxDepth, dcfg.Rows, dcfg.Features, cfg.Bins),
		Header: []string{"system", "time to all trees (s)", "final logloss", "PS2 speedup"}}
	r.AddRow("PS2", ps2Time, ps2Loss, fmtSpeed(1.0))
	r.AddRow("XGBoost", xgbTime, xgbLoss, fmtSpeed(xgbTime/ps2Time))
	r.Note("paper: PS2 builds 100 trees in 2435s vs XGBoost's 7942s (3.3x); AllReduce of histograms is the bottleneck")
	r.Note("identical math: both backends' final loss should agree to float precision (got |Δ| = %.2e)", abs(ps2Loss-xgbLoss))
	return r
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
