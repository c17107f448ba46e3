package data

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/linalg"
)

// classifyHash is an FNV-1a hash of a generated dataset: each row's indices,
// value bits and label, then the bits of the true weights that labelled them,
// drawn again from the dataset's config as GenerateClassify draws them first.
func classifyHash(ds *ClassifyDataset) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, inst := range ds.Instances {
		put(uint64(len(inst.Features.Indices)))
		for k, i := range inst.Features.Indices {
			put(uint64(i))
			put(math.Float64bits(inst.Features.Values[k]))
		}
		put(math.Float64bits(inst.Label))
	}
	for _, w := range drawTruth(linalg.NewRNG(ds.Config.Seed), ds.Config).dense(ds.Config.Dim) {
		put(math.Float64bits(w))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// dense expands the truth into the dim-wide vector it stands for.
func (t *sparseTruth) dense(dim int) []float64 {
	w := make([]float64, dim)
	for i := range w {
		if j := t.slot(i); j >= 0 {
			w[i] = t.vals[j]
		}
	}
	return w
}

// TestGenerateClassifyPinned pins the datasets the benchmark's three LR
// workloads train on (tcp-lr-sparse, tcp-lr-dense and sim-lr-adam at seed
// 17), bit for bit, with hashes recorded before NewSparse left sort.Slice: a change to the generator or to what it calls
// (linalg.NewSparse's sort and merge) must not move a single feature.
func TestGenerateClassifyPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  ClassifyConfig
		want string
	}{
		{"tcp-lr-sparse", ClassifyConfig{Rows: 20000, Dim: 50000, NnzPerRow: 16, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 5000, Seed: 17}, "4ae94c15dc30b6b7"},
		{"tcp-lr-dense", ClassifyConfig{Rows: 5000, Dim: 4000000, NnzPerRow: 8, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 400000, Seed: 17}, "72568466d61283e8"},
		{"sim-lr-adam", ClassifyConfig{Rows: 20000, Dim: 100000, NnzPerRow: 20, Skew: 1.1, NoiseRate: 0.02, WeightNnz: 10000, Seed: 17}, "9268fcadc9dba971"},
	} {
		ds, err := GenerateClassify(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := classifyHash(ds); got != c.want {
			t.Errorf("%s: dataset hash %s, pinned %s", c.name, got, c.want)
		}
	}
}
