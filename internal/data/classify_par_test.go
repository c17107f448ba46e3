package data

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/par"
)

// pinnedConfigs are the three configurations TestGenerateClassifyPinned
// pins: the datasets of the benchmark's tcp-lr-sparse, tcp-lr-dense and
// sim-lr-adam workloads at seed 17.
var pinnedConfigs = []struct {
	name string
	cfg  ClassifyConfig
}{
	{"tcp-lr-sparse", ClassifyConfig{Rows: 20000, Dim: 50000, NnzPerRow: 16, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 5000, Seed: 17}},
	{"tcp-lr-dense", ClassifyConfig{Rows: 5000, Dim: 4000000, NnzPerRow: 8, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 400000, Seed: 17}},
	{"sim-lr-adam", ClassifyConfig{Rows: 20000, Dim: 100000, NnzPerRow: 20, Skew: 1.1, NoiseRate: 0.02, WeightNnz: 10000, Seed: 17}},
}

// edgeConfigs cover the true-weight draws' corners the pinned three miss.
var edgeConfigs = []struct {
	name string
	cfg  ClassifyConfig
}{
	{"nnz-not-block-multiple", ClassifyConfig{Rows: 300, Dim: 300000, NnzPerRow: 8, Skew: 1.1, NoiseRate: 0.05, WeightNnz: 2*truthBlock + 123, Seed: 5}},
	{"skew-0", ClassifyConfig{Rows: 300, Dim: 200000, NnzPerRow: 8, Skew: 0, NoiseRate: 0.05, WeightNnz: truthBlock + 1, Seed: 6}},
	{"sorted-features", ClassifyConfig{Rows: 300, Dim: 200000, NnzPerRow: 8, Skew: 1.2, NoiseRate: 0.05, WeightNnz: 100000, SortedFeatures: true, Seed: 7}},
	{"nnz-above-dim", ClassifyConfig{Rows: 300, Dim: 70000, NnzPerRow: 8, Skew: 1.0, NoiseRate: 0.05, WeightNnz: 1000000, Seed: 8}},
	{"dim-1", ClassifyConfig{Rows: 20, Dim: 1, NnzPerRow: 1, Skew: 1.0, WeightNnz: 1, Seed: 9}},
}

// TestGenerateClassifyParallelDraws: a dataset does not depend on whether
// the true weights' transforms fan out. Every block runs on par.Range's
// workers with MinParallel at 1 and inline with it out of reach, and the
// two must hash the same.
func TestGenerateClassifyParallelDraws(t *testing.T) {
	old := par.MinParallel
	t.Cleanup(func() { par.MinParallel = old })
	for _, c := range append(pinnedConfigs, edgeConfigs...) {
		var hashes [2]string
		for i, minPar := range []int{1, math.MaxInt} {
			par.MinParallel = minPar
			ds, err := GenerateClassify(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			hashes[i] = classifyHash(ds)
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: dataset hash %s with every block fanned out, %s inline", c.name, hashes[0], hashes[1])
		}
	}
}

// TestDrawTruthMatchesSerialLoop: drawTruth leaves the true weights and the
// generator's RNG exactly as the loop it replaced did, one RNG.Zipf and one
// RNG.NormFloat64 per weight.
func TestDrawTruthMatchesSerialLoop(t *testing.T) {
	for _, c := range edgeConfigs {
		cfg := c.cfg
		cfg.WeightNnz = min(cfg.WeightNnz, cfg.Dim)
		rng, ref := linalg.NewRNG(cfg.Seed), linalg.NewRNG(cfg.Seed)
		got := drawTruth(rng, cfg).dense(cfg.Dim)
		want := make([]float64, cfg.Dim)
		for range cfg.WeightNnz {
			idx := cfg.scatter(ref.Zipf(cfg.Dim, cfg.Skew+0.2))
			want[idx] = ref.NormFloat64() * 2
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: truth[%d] = %v, the serial loop draws %v", c.name, i, got[i], want[i])
			}
		}
		if a, b := rng.Uint64(), ref.Uint64(); a != b {
			t.Errorf("%s: the RNG after the draws gives %#x, after the serial loop %#x", c.name, a, b)
		}
	}
}

// TestGenerateClassifySlab: a dataset's rows share one slab. The
// generator's allocation count does not grow with Rows, and every row's
// Indices and Values are capped at their length, so an append to one row
// cannot write into the next.
func TestGenerateClassifySlab(t *testing.T) {
	cfg := ClassifyConfig{Rows: 100, Dim: 20000, NnzPerRow: 12, Skew: 1.0, NoiseRate: 0.05, WeightNnz: 2000, Seed: 11}
	allocs := func(rows int) float64 {
		c := cfg
		c.Rows = rows
		return testing.AllocsPerRun(3, func() {
			if _, err := GenerateClassify(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10000); small != large {
		t.Errorf("GenerateClassify allocates %v times for 100 rows and %v for 10000: rows are allocated one by one", small, large)
	}
	for _, c := range append(pinnedConfigs, edgeConfigs...) {
		ds, err := GenerateClassify(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r, inst := range ds.Instances {
			f := inst.Features
			if cap(f.Indices) != len(f.Indices) || cap(f.Values) != len(f.Values) {
				t.Fatalf("%s: row %d has indices len %d cap %d and values len %d cap %d: an append would reach the next row",
					c.name, r, len(f.Indices), cap(f.Indices), len(f.Values), cap(f.Values))
			}
		}
	}
}

// TestGenerateClassifyNoDimWideTruth: the ground truth is held sparse. A
// generator that kept a Dim-wide truth vector would allocate at least 8·Dim
// bytes for it alone, beside rows that are a few kilobytes here.
func TestGenerateClassifyNoDimWideTruth(t *testing.T) {
	cfg := ClassifyConfig{Rows: 100, Dim: 4000000, NnzPerRow: 8, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 400000, Seed: 17}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := GenerateClassify(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*cfg.Dim); got >= limit {
		t.Errorf("GenerateClassify allocated %d bytes for %d rows of a %d-wide dataset, want below 8·Dim = %d", got, cfg.Rows, cfg.Dim, limit)
	}
}

// BenchmarkGenerateClassify times the generator on the three benchmark
// datasets; on tcp-lr-dense's most of it is the 400 k true-weight draws.
func BenchmarkGenerateClassify(b *testing.B) {
	for _, c := range pinnedConfigs {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				if _, err := GenerateClassify(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
