package bench

import (
	"testing"

	"repro/internal/data"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// TestSkewMathInvariance checks that non-contiguous placements permute only
// ownership, never the update math: with one partition per iteration the
// gradient pushes are serialized (no concurrent float regrouping), so the
// trained loss must be bit-identical across placements.
func TestSkewMathInvariance(t *testing.T) {
	dcfg := data.ClassifyConfig{Rows: 300, Dim: 500, NnzPerRow: 8, Skew: 1.2, WeightNnz: 100, SortedFeatures: true, Seed: 3}
	ds, err := data.GenerateClassify(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	freq := make([]float64, ds.Config.Dim)
	for _, inst := range ds.Instances {
		for _, idx := range inst.Features.Indices {
			freq[idx]++
		}
	}
	run := func(factory ps.PlacementFactory) float64 {
		e := tracedEngine(Opts{}, 4, 4)
		e.PS.Placement = factory
		cfg := lr.DefaultConfig()
		cfg.Iterations = 10
		cfg.BatchFraction = 1.0
		var loss float64
		e.Run(func(p *simnet.Proc) {
			dataset := rdd.FromSlices(e.RDD, data.Partition(ds.Instances, 1)).Cache()
			m, err := lr.Train(p, e, dataset, ds.Config.Dim, cfg, lr.NewSGD())
			if err != nil {
				panic(err)
			}
			loss = m.Trace.Final()
		})
		return loss
	}
	base := run(nil)
	bh := run(func(dim, n int) (ps.Placement, error) { return ps.NewBlockHashPlacement(dim, n, 16, 1) })
	la := run(func(dim, n int) (ps.Placement, error) {
		if dim != len(freq) {
			return ps.NewPartitioner(dim, n)
		}
		return ps.NewLoadAwarePlacement(dim, n, freq, 16)
	})
	if base != bh {
		t.Fatalf("blockhash loss %v != range loss %v with serialized pushes", bh, base)
	}
	if base != la {
		t.Fatalf("loadaware loss %v != range loss %v with serialized pushes", la, base)
	}
}
