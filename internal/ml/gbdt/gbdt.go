// Package gbdt implements histogram-based gradient boosting decision trees
// (paper Section 5.2.3, Figures 7 and 8): per tree node, workers build
// first- and second-order gradient histograms over their data partitions and
// aggregate them; a split criterion is found over the aggregated histograms;
// rows flow to child nodes; leaves get Newton-step values.
//
// Boosting runs on the shared training loop (Run, over core.Run): one tree
// is one iteration. A Strategy supplies only where a node's histograms are
// aggregated and where its split is found; every system scans features with
// the one split scan (Node.Scan). PS2 (Train) keeps the histograms in two
// co-located DCVs and finds splits server-side (the paper's max operator,
// footnote 5), so gradient histograms never travel back to workers.
package gbdt

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Config holds the GBDT hyperparameters; defaults follow the paper's Table 4
// with the histogram size scaled from 100 to 20 (matching the 10×-scaled
// datasets).
type Config struct {
	Trees        int
	MaxDepth     int
	Bins         int
	LearningRate float64
	Lambda       float64 // L2 regularization on leaf weights
	// MinChildWeight is the minimum hessian mass per child (XGBoost's
	// min_child_weight); it is evaluated from the histograms during split
	// finding, so no extra counting stage is needed. For logistic loss at
	// margin 0 one row contributes 0.25.
	MinChildWeight float64
	SampleRows     int // rows sampled to fit quantile bin edges
	Seed           uint64
}

// DefaultConfig returns the Table 4 hyperparameters (scaled histogram size).
func DefaultConfig() Config {
	return Config{
		Trees:          20,
		MaxDepth:       5,
		Bins:           50,
		LearningRate:   0.1,
		Lambda:         1.0,
		MinChildWeight: 2.5, // ~10 rows of hessian mass at margin 0
		SampleRows:     2000,
		Seed:           17,
	}
}

// check rejects a config that cannot bin or boost.
func (c Config) check() error {
	if c.Trees <= 0 || c.MaxDepth < 1 || c.Bins < 2 || c.Bins > 256 || c.SampleRows < 1 {
		return fmt.Errorf("gbdt: invalid config %+v", c)
	}
	return nil
}

// Row is one binned training example inside the dataflow.
type Row struct {
	Bins  []uint8
	Label float64
}

// Split is one internal tree node's decision: rows with
// bin(Feature) <= BinThreshold go left.
type Split struct {
	Feature      int
	BinThreshold int
	Gain         float64
	// LeftWeight is the hessian mass of the left child, recorded during the
	// histogram scan so min-child-weight is enforced without another pass
	// over the data.
	LeftWeight float64
}

// NoSplit is where a split search starts: every split is better.
func NoSplit() Split { return Split{Feature: -1, Gain: math.Inf(-1)} }

// better is the one rule every system picks a node's split by: the higher
// gain, and on equal gain the lower (feature, bin), so the pick does not
// depend on the order a system scans or merges in.
func (s Split) better(o Split) bool {
	if s.Gain != o.Gain {
		return s.Gain > o.Gain
	}
	return s.Feature < o.Feature || s.Feature == o.Feature && s.BinThreshold < o.BinThreshold
}

// TreeNode is a node of a regression tree over binned features.
type TreeNode struct {
	Split *Split  // nil for leaves
	Value float64 // leaf value (scaled by learning rate already)
	Left  int     // child indices into Tree.Nodes, -1 when leaf
	Right int
}

// Tree is one regression tree.
type Tree struct {
	Nodes []TreeNode
}

// Predict returns the tree's output for a binned row.
func (t *Tree) Predict(bins []uint8) float64 {
	i := 0
	for {
		n := t.Nodes[i]
		if n.Split == nil {
			return n.Value
		}
		if int(bins[n.Split.Feature]) <= n.Split.BinThreshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Model is the boosted ensemble plus binning metadata.
type Model struct {
	Trees    []Tree
	Edges    [][]float64 // per-feature bin edges
	Features int
	Bins     int
	Trace    *core.Trace // training logloss after each tree
}

// PredictRaw returns the ensemble margin for a raw (unbinned) feature row.
func (m *Model) PredictRaw(x []float64) float64 {
	bins := BinRow(x, m.Edges)
	var f float64
	for i := range m.Trees {
		f += m.Trees[i].Predict(bins)
	}
	return f
}

// FitBinEdges computes per-feature quantile bin edges from sample rows.
// Edges[f] has Bins-1 thresholds; bin b covers (edge[b-1], edge[b]].
func FitBinEdges(sample [][]float64, features, bins int) [][]float64 {
	edges := make([][]float64, features)
	vals := make([]float64, len(sample))
	for f := 0; f < features; f++ {
		for i, row := range sample {
			vals[i] = row[f]
		}
		sort.Float64s(vals)
		e := make([]float64, bins-1)
		for b := 1; b < bins; b++ {
			idx := b * len(vals) / bins
			if idx >= len(vals) {
				idx = len(vals) - 1
			}
			e[b-1] = vals[idx]
		}
		edges[f] = e
	}
	return edges
}

// BinRow maps raw feature values to bin indices via binary search.
func BinRow(x []float64, edges [][]float64) []uint8 {
	bins := make([]uint8, len(x))
	for f, v := range x {
		e := edges[f]
		lo, hi := 0, len(e)
		for lo < hi {
			mid := (lo + hi) / 2
			if v <= e[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		bins[f] = uint8(lo)
	}
	return bins
}

// gain computes the split gain given left/parent gradient and hessian sums.
func gain(gl, hl, g, h, lambda float64) float64 {
	gr, hr := g-gl, h-hl
	return 0.5 * (gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - g*g/(h+lambda))
}

// PrepareRDD checks cfg, then bins a tabular dataset and loads it as a
// cached RDD: the driver fits quantile edges on a sample (Spark-style
// sketch), broadcasts them, and the executors bin their partitions.
func PrepareRDD(p *simnet.Proc, e *core.Engine, ds *data.TabularDataset, cfg Config) (*rdd.RDD[Row], [][]float64, error) {
	if err := cfg.check(); err != nil {
		return nil, nil, err
	}
	if len(ds.X) == 0 {
		return nil, nil, fmt.Errorf("gbdt: empty dataset")
	}
	features := ds.Config.Features
	sampleN := cfg.SampleRows
	if sampleN > len(ds.X) {
		sampleN = len(ds.X)
	}
	rng := linalg.NewRNG(cfg.Seed + 99)
	sample := make([][]float64, sampleN)
	for i := range sample {
		sample[i] = ds.X[rng.Intn(len(ds.X))]
	}
	// The sample travels to the driver; the edges travel back.
	e.RDD.Broadcast(p, float64(sampleN*features)*8/float64(e.RDD.NumExecutors()))
	edges := FitBinEdges(sample, features, cfg.Bins)
	e.RDD.Broadcast(p, float64(features*(cfg.Bins-1))*8)

	parts := e.RDD.NumExecutors()
	// Bin lazily inside the source so the binning compute lands on executors.
	raw := make([][]int, parts)
	for i := range ds.X {
		raw[i%parts] = append(raw[i%parts], i)
	}
	cost := e.Cluster.Cost
	r := rdd.Source(e.RDD, parts, func(tc *rdd.TaskContext, part int) []Row {
		out := make([]Row, len(raw[part]))
		for k, idx := range raw[part] {
			out[k] = Row{Bins: BinRow(ds.X[idx], edges), Label: ds.Y[idx]}
		}
		tc.Charge(cost.ElemWork(len(out) * features))
		return out
	}).Cache()
	return r, edges, nil
}
