package bench

import (
	"fmt"

	"repro/internal/consistency"
	"repro/internal/data"
	"repro/internal/ml/lr"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func init() {
	register("ext-consistency", "Extension: consistency-policy ablation — clock-bounded vs value-bounded vs adaptive on the worker cache, policy × bound", runExtConsistency)
}

// runExtConsistency ablates the pluggable consistency policy behind the
// worker cache on the same Zipf-skewed full-batch LR workload as ext-cache
// (ext-cache sweeps the clock axis; this experiment sweeps across policies).
//
// Two contracts are measured directly:
//
//   - Value-bounded payoff: at a finite bound, serving cached weights until
//     the accumulated |delta| may exceed the bound pulls measurably fewer
//     bytes than clock-bounded staleness at equal final loss — the clock
//     policy revalidates on a timer even when the model has barely moved.
//   - Adaptive shaping: the EWMA-tightened bound behaves like a tight bound
//     early (large gradients) and a loose one late, landing between the
//     fixed-bound extremes without hand-tuning.
func runExtConsistency(o Opts) *Result {
	dcfg := data.ClassifyConfig{
		Rows: 4000, Dim: 6000, NnzPerRow: 12, Skew: 1.0,
		NoiseRate: 0.02, WeightNnz: 600, Seed: 7,
	}
	if o.Quick {
		dcfg.Rows, dcfg.Dim, dcfg.WeightNnz = 2000, 3000, 300
	}
	ds, err := data.GenerateClassify(dcfg)
	if err != nil {
		panic(err)
	}
	cfg := lr.DefaultConfig()
	cfg.Iterations = 30
	if o.Quick {
		cfg.Iterations = 20
	}
	cfg.BatchFraction = 1.0

	r := &Result{ID: "ext-consistency",
		Title:  "Consistency-policy ablation: decisions and pulled bytes across clock-bounded, value-bounded and adaptive policies",
		Header: []string{"mode", "served", "revalidated", "hard pulls", "pulled MB", "baseline MB", "saved", "eff bound", "time (s)", "final loss"}}

	type arm struct {
		loss, end float64
		cache     obs.CacheSnapshot
		cons      obs.ConsistencySnapshot
	}
	runArm := func(mode string, ccfg *ps.CacheConfig) arm {
		e := tracedEngine(o, 8, 8)
		c := cfg
		c.Cache = ccfg
		var loss float64
		end := e.Run(func(p *simnet.Proc) {
			dataset := rdd.FromSlices(e.RDD, data.Partition(ds.Instances, extCacheParts)).Cache()
			m, err := lr.Train(p, e, dataset, ds.Config.Dim, c, lr.NewSGD())
			if err != nil {
				panic(err)
			}
			loss = m.Trace.Final()
		})
		snap := e.Snapshot()
		a := arm{loss: loss, end: float64(end), cache: snap.Cache, cons: snap.Consistency}
		effBound := "-"
		if a.cons.EffectiveBound > 0 {
			effBound = fmt.Sprintf("%.4g", a.cons.EffectiveBound)
		}
		r.AddRow(mode,
			int(a.cons.ServedCached), int(a.cons.Revalidated), int(a.cons.HardPulled),
			a.cache.PulledMB(), a.cache.BaselineMB(),
			fmt.Sprintf("%.1f%%", 100*(1-a.cache.PulledMB()/a.cache.BaselineMB())),
			effBound, a.end, a.loss)
		return a
	}

	clock2 := runArm("clock s=2", &ps.CacheConfig{Policy: consistency.NewClockBounded(2)})
	var value1 arm
	for _, b := range []float64{0.25, 0.5, 1, 2} {
		a := runArm(fmt.Sprintf("value b=%g", b), &ps.CacheConfig{Policy: consistency.NewValueBounded(b)})
		if b == 1 {
			value1 = a
		}
	}
	adaptive := runArm("adaptive base=1", &ps.CacheConfig{Policy: consistency.NewAdaptive(1)})

	r.Note("value b=1 pulled %.1f%% fewer bytes than clock s=2 at final loss %.4g vs %.4g (delta %.2g)",
		100*(1-value1.cache.PulledMB()/clock2.cache.PulledMB()), value1.loss, clock2.loss, value1.loss-clock2.loss)
	r.Note("adaptive base=1 tightened the bound %d times and relaxed it %d times, settling at %.4g",
		adaptive.cons.Tightenings, adaptive.cons.Relaxations, adaptive.cons.EffectiveBound)
	return r
}
