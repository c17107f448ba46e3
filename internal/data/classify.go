// Package data provides the synthetic workload generators that stand in for
// the paper's datasets (Table 2), plus LIBSVM-format I/O. The real datasets
// are either proprietary (CTR, APP, Gender, Graph1/2 are Tencent-internal)
// or too large for a laptop-scale reproduction, so each generator preserves
// the statistical knobs that drive the paper's results — dimension, sparsity,
// feature skew, label noise, graph degree distribution, topic structure — at
// a configurable scale. EXPERIMENTS.md records the scale factor per
// experiment.
//
// The rows of a generated classification dataset share one slab: their
// feature vectors, indices and values are three allocations, and each row's
// slices are capped at its length, so appending to one row copies it
// instead of writing into the next.
package data

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/linalg"
	"repro/internal/par"
)

// Instance is one labelled training example with sparse features.
type Instance struct {
	Features *linalg.SparseVector
	Label    float64 // 0 or 1 for classification; regression targets for GBDT
}

// ClassifyConfig describes a synthetic sparse classification dataset in the
// mould of KDDB / KDD12 / CTR: very high-dimensional, very sparse, with a
// Zipf-skewed feature popularity so a mini-batch touches few distinct
// features (which is what makes sparse pull pay off).
type ClassifyConfig struct {
	Rows      int
	Dim       int
	NnzPerRow int
	Skew      float64 // Zipf exponent for feature popularity; 0 = uniform
	NoiseRate float64 // probability of flipping a label
	WeightNnz int     // nonzeros in the ground-truth weight vector

	// SortedFeatures assigns feature ids in popularity order (rank r maps to
	// column r, so low ids are the hottest) instead of scattering ranks
	// across the index space — the layout of a frequency-sorted feature
	// dictionary, which CTR and NLP pipelines commonly produce. Under a
	// range placement this piles the hot dimensions onto the low stripes;
	// the ext-skew experiment uses it to measure exactly that.
	SortedFeatures bool

	Seed uint64
}

// KDDBLike returns the scaled stand-in for the public KDDB dataset
// (paper: 19M rows × 29M cols, 585M nnz → rows ~1/1000, dims ~1/500; the
// model-size-to-bandwidth ratio is calibrated so the Figure 9/10 speedup
// structure lands in the paper's regime on the 10×-scaled network).
func KDDBLike() ClassifyConfig {
	return ClassifyConfig{Rows: 20000, Dim: 60000, NnzPerRow: 30, Skew: 1.1, NoiseRate: 0.05, WeightNnz: 5000, Seed: 0xBDB1}
}

// KDD12Like returns the scaled stand-in for KDD12 (149M × 54.6M, 1.64B nnz).
func KDD12Like() ClassifyConfig {
	return ClassifyConfig{Rows: 30000, Dim: 110000, NnzPerRow: 11, Skew: 1.1, NoiseRate: 0.05, WeightNnz: 8000, Seed: 0xDD12}
}

// CTRLike returns the scaled stand-in for Tencent's CTR dataset
// (343M × 1.7B, 57B nnz): higher-dimensional and relatively sparser.
func CTRLike() ClassifyConfig {
	return ClassifyConfig{Rows: 40000, Dim: 600000, NnzPerRow: 40, Skew: 1.2, NoiseRate: 0.08, WeightNnz: 20000, Seed: 0xC123}
}

// ClassifyDataset is a generated dataset and the configuration it was drawn
// from.
type ClassifyDataset struct {
	Config    ClassifyConfig
	Instances []Instance
}

// scatter maps a Zipf rank to a feature id. Zipf draws are rank-ordered
// (rank 0 is the hottest); by default ranks are scattered across the index
// space with a multiplicative hash so feature popularity is independent of
// feature id — without this the range partitioner would pile all hot
// dimensions onto one server. SortedFeatures keeps the rank order as the id
// order instead, modeling frequency-sorted feature dictionaries.
func (cfg ClassifyConfig) scatter(rank int) int {
	if cfg.SortedFeatures {
		return rank
	}
	return int((uint64(rank)*2654435761 + 97) % uint64(cfg.Dim))
}

// GenerateClassify samples a dataset: a sparse ground-truth weight vector is
// drawn, each row's feature indices are drawn from a Zipf distribution over
// the dimensions, values are positive, and the label is
// Bernoulli(sigmoid(w·x)) with optional flip noise.
func GenerateClassify(cfg ClassifyConfig) (*ClassifyDataset, error) {
	if cfg.Rows <= 0 || cfg.Dim <= 0 || cfg.NnzPerRow <= 0 {
		return nil, fmt.Errorf("data: invalid classify config %+v", cfg)
	}
	// A row holds at most as many distinct indices as the draws can reach:
	// Zipf(n, s) does not return n−1 (its u < 1), so with skew one dimension
	// is out of reach and a row asking for all of them would draw forever.
	reachable := cfg.Dim
	if cfg.Skew > 0 && cfg.Dim > 1 {
		reachable = cfg.Dim - 1
	}
	if cfg.NnzPerRow > reachable {
		cfg.NnzPerRow = reachable
	}
	if cfg.WeightNnz <= 0 || cfg.WeightNnz > cfg.Dim {
		cfg.WeightNnz = cfg.Dim
	}
	rng := linalg.NewRNG(cfg.Seed)
	// The ground truth only labels the rows: it is garbage once they are.
	truth := drawTruth(rng, cfg)
	ds := &ClassifyDataset{Config: cfg}
	ds.Instances = make([]Instance, cfg.Rows)
	// The rows' slab (see the package doc): row r owns entries
	// [r·n, (r+1)·n) of idxSlab and valSlab, and its slices are capped there.
	n := cfg.NnzPerRow
	vecs := make([]linalg.SparseVector, cfg.Rows)
	idxSlab := make([]int, cfg.Rows*n)
	valSlab := make([]float64, cfg.Rows*n)
	for r := range ds.Instances {
		idx := idxSlab[r*n : r*n : (r+1)*n]
		for len(idx) < n {
			var i int
			if cfg.Skew > 0 {
				i = cfg.scatter(rng.Zipf(cfg.Dim, cfg.Skew))
			} else {
				i = rng.Intn(cfg.Dim)
			}
			// A row holds NnzPerRow indices, a few dozen in every dataset
			// here: scanning them beats hashing into a per-row map.
			if !slices.Contains(idx, i) {
				idx = append(idx, i)
			}
		}
		vals := valSlab[r*n : (r+1)*n : (r+1)*n]
		for k := range vals {
			vals[k] = 0.5 + rng.Float64()
		}
		sortRow(idx, vals)
		sv := &vecs[r]
		*sv = linalg.SparseVector{Indices: idx, Values: vals}
		z := truth.dot(sv)
		label := 0.0
		if rng.Float64() < linalg.Sigmoid(z) {
			label = 1.0
		}
		if rng.Float64() < cfg.NoiseRate {
			label = 1 - label
		}
		ds.Instances[r] = Instance{Features: sv, Label: label}
	}
	return ds, nil
}

// sortRow sorts a row's distinct indices ascending and carries each value
// with its index. Distinct keys have one ascending order, the one
// linalg.NewSparse gives; a row holds a few dozen features, so insertion
// sort is the cheapest way there.
func sortRow(idx []int, vals []float64) {
	for i := 1; i < len(idx); i++ {
		c, v := idx[i], vals[i]
		j := i
		for ; j > 0 && idx[j-1] > c; j-- {
			idx[j], vals[j] = idx[j-1], vals[j-1]
		}
		idx[j], vals[j] = c, v
	}
}

// truthBlock is how many true-weight draws drawTruth holds the uniforms of
// at a time.
const truthBlock = 1 << 16

// sparseTruth is the ground-truth weight vector, of which only a few
// percent of the entries are non-zero (about 51 k of tcp-lr-dense's 4 M):
// a bitmap of the indices that hold a weight, the number of them before
// each 64-bit word, and their weights in index order. Every other entry is
// +0.
type sparseTruth struct {
	seen []uint64  // bit i%64 of word i/64 is set when index i holds a weight
	rank []int32   // rank[w] counts the set bits of seen[:w]
	vals []float64 // the weights, in index order
}

// slot returns the position of index i's weight in vals, or -1 when i
// holds none.
func (t *sparseTruth) slot(i int) int {
	w, bit := i>>6, uint64(1)<<(i&63)
	if t.seen[w]&bit == 0 {
		return -1
	}
	return int(t.rank[w]) + bits.OnesCount64(t.seen[w]&(bit-1))
}

// dot is sv·w over the dense truth w, bit for bit: the terms it skips are
// v·(+0) = +0, and adding +0 changes no sum that starts at +0, since no
// partial sum can then be −0.
func (t *sparseTruth) dot(sv *linalg.SparseVector) float64 {
	var s float64
	for k, i := range sv.Indices {
		if j := t.slot(i); j >= 0 {
			s += sv.Values[k] * t.vals[j]
		}
	}
	return s
}

// drawTruth draws the ground-truth weights: WeightNnz times, a Zipf(Dim,
// Skew+0.2) index, scattered, gets a N(0, 4) value, a later draw
// overwriting an earlier one at the same index. Concentrating them on
// popular features keeps the signal learnable from skewed samples.
//
// The index and the value are pure functions of the uniforms (linalg.Zipf,
// linalg.Normal), and those cost a Pow, a Log and a Cos. So the uniforms are
// drawn a block at a time in exactly the order RNG.Zipf and RNG.NormFloat64
// would draw them, and every draw's index is computed on par.Range. One
// backward pass over a bitmap of the dimensions then finds the draw that
// writes each index last, and the bitmap's ranks give each written index its
// slot in the weights. The uniforms are drawn again from the same RNG state,
// and only those last draws get a value, again on par.Range: they write
// distinct slots, and the weights and the RNG's final state are bit for bit
// those of the serial loop. Drawing twice costs about what keeping every
// draw's two Normal uniforms would, in 16 bytes a draw less scratch: it is
// 8 bytes a draw, a bit and a half a dimension (the bitmap and its ranks),
// and one block's uniforms. Nothing Dim-wide holds the weights themselves.
func drawTruth(rng *linalg.RNG, cfg ClassifyConfig) *sparseTruth {
	zipf := linalg.NewZipf(cfg.Dim, cfg.Skew+0.2)
	n := cfg.WeightNnz
	idx := make([]int, n)
	u := make([]float64, 3*min(n, truthBlock))
	// block draws the uniforms of the next m draws: per draw, Zipf's
	// uniform, then Normal's two.
	block := func(m int) []float64 {
		d := u[:3*m]
		for k := 0; k < len(d); k += 3 {
			if cfg.Dim > 1 { // RNG.Zipf draws nothing over one dimension
				d[k] = rng.Float64()
			}
			d[k+1] = rng.Float64()
			for d[k+1] == 0 { // NormFloat64 redraws a zero u1
				d[k+1] = rng.Float64()
			}
			d[k+2] = rng.Float64()
		}
		return d
	}
	start := *rng
	for lo := 0; lo < n; lo += truthBlock {
		d := block(min(truthBlock, n-lo))
		par.Range(len(d)/3, func(a, b int) {
			for k := a; k < b; k++ {
				idx[lo+k] = cfg.scatter(zipf.At(d[3*k]))
			}
		})
	}
	t := &sparseTruth{seen: make([]uint64, (cfg.Dim+63)/64)}
	for k := n - 1; k >= 0; k-- {
		w, bit := idx[k]/64, uint64(1)<<(idx[k]%64)
		if t.seen[w]&bit != 0 {
			idx[k] = -1 // a later draw overwrites this one
			continue
		}
		t.seen[w] |= bit
	}
	t.rank = make([]int32, len(t.seen))
	nnz := 0
	for w, word := range t.seen {
		t.rank[w] = int32(nnz)
		nnz += bits.OnesCount64(word)
	}
	t.vals = make([]float64, nnz)
	*rng = start
	for lo := 0; lo < n; lo += truthBlock {
		d := block(min(truthBlock, n-lo))
		par.Range(len(d)/3, func(a, b int) {
			for k := a; k < b; k++ {
				if i := idx[lo+k]; i >= 0 {
					t.vals[t.slot(i)] = linalg.Normal(d[3*k+1], d[3*k+2]) * 2
				}
			}
		})
	}
	return t
}

// Partition splits instances round-robin into n partitions, the layout an
// RDD source uses.
func Partition(instances []Instance, n int) [][]Instance {
	if n < 1 {
		n = 1
	}
	out := make([][]Instance, n)
	for i, inst := range instances {
		out[i%n] = append(out[i%n], inst)
	}
	return out
}

// Stats summarizes a dataset the way the paper's Table 2 does.
type Stats struct {
	Rows int
	Cols int
	Nnz  int64
}

// DatasetStats computes Table 2-style statistics.
func DatasetStats(instances []Instance, dim int) Stats {
	var nnz int64
	for _, inst := range instances {
		nnz += int64(inst.Features.Nnz())
	}
	return Stats{Rows: len(instances), Cols: dim, Nnz: nnz}
}
