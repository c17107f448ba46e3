package gbdt

import (
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Strategy is what one GBDT system brings to the boosting loop (Run): where a
// node's histograms are aggregated and where its split is found. PS2 (Train)
// and XGBoost (baselines.XGBoostGBDT) are strategies; both grow the same
// trees from the same histograms.
type Strategy interface {
	// Setup places the two histograms, gradient and hessian, of dim bins
	// each (features × Bins, feature-major) for parts partitions.
	Setup(p *simnet.Proc, e *core.Engine, parts, dim int) error
	// Aggregate runs one node's histogram stage: stage builds every
	// partition's local histograms and hands each to ship, and afterwards
	// the node's summed histograms are where Split reads them. It returns
	// the stage's error.
	Aggregate(p *simnet.Proc, stage func(ship Ship) error) error
	// Split returns the best split of node n, or one with Feature -1.
	Split(p *simnet.Proc, n Node) (Split, error)
}

// Ship moves one task's local histograms, g and h, to where they are summed.
type Ship func(tc *rdd.TaskContext, part int, g, h []float64) error

// Node is what the split scan knows of one tree node: the gradient and
// hessian sums of its rows.
type Node struct {
	g, h float64
	cfg  *Config
}

// Scan is the one split scan: over the features f, f+1, … whose bins g and
// h hold, Bins to a feature, it takes prefix sums of each feature's bins,
// skips a split that leaves either child under MinChildWeight of hessian
// mass, and returns the better (Split.better) of best and every remaining
// split by gain.
func (n Node) Scan(best Split, f int, g, h []float64) Split {
	c := n.cfg
	for lo := 0; lo < len(g); lo, f = lo+c.Bins, f+1 {
		var gl, hl float64
		for b := 0; b < c.Bins-1; b++ {
			gl += g[lo+b]
			hl += h[lo+b]
			if hl < c.MinChildWeight || n.h-hl < c.MinChildWeight {
				continue
			}
			s := Split{Feature: f, BinThreshold: b, Gain: gain(gl, hl, n.g, n.h, c.Lambda), LeftWeight: hl}
			if s.better(best) {
				best = s
			}
		}
	}
	return best
}

// Run boosts cfg.Trees trees with strategy s through the shared loop
// (core.Run): one tree is one iteration at fraction 1, its round computes
// the gradients, grows the tree and applies it, and the trace is the mean
// training logloss after each tree. The rows must be binned by PrepareRDD;
// features is the raw feature count.
func Run(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[Row], features int, edges [][]float64, cfg Config, s Strategy) (*Model, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	parts := dataset.Partitions()
	if err := s.Setup(p, e, parts, features*cfg.Bins); err != nil {
		return nil, err
	}
	b := &booster{e: e, cfg: cfg, s: s, features: features,
		margins: make([][]float64, parts), grads: make([][]float64, parts),
		hess: make([][]float64, parts), nodeOf: make([][]int32, parts)}
	trace, err := core.Run(p, e, dataset, 1, cfg.Seed, cfg.Trees, b)
	if err != nil {
		return nil, err
	}
	return &Model{Trees: b.trees, Edges: edges, Features: features, Bins: cfg.Bins, Trace: trace}, nil
}

// Train boosts cfg.Trees trees on PS2.
func Train(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[Row], features int, edges [][]float64, cfg Config) (*Model, error) {
	m, err := Run(p, e, dataset, features, edges, cfg, PS2())
	if err != nil {
		return nil, err
	}
	m.Trace.Name = "PS2-GBDT"
	return m, nil
}

// booster is the boosting loop's core.Strategy. Its worker-local state is,
// per row, the current margin, gradient, hessian and the tree node the row
// sits in, indexed [partition][row]: it lives on the executors conceptually
// and never crosses the network.
type booster struct {
	e        *core.Engine
	cfg      Config
	s        Strategy
	features int
	trees    []Tree

	margins [][]float64
	grads   [][]float64
	hess    [][]float64
	nodeOf  [][]int32
}

// Round boosts one tree: gradients, then the tree, then its margins.
func (b *booster) Round(p *simnet.Proc, rows *rdd.RDD[Row], _ int) ([]core.Summary, error) {
	if err := b.gradients(p, rows); err != nil {
		return nil, err
	}
	tree, err := b.grow(p, rows)
	if err != nil {
		return nil, err
	}
	b.trees = append(b.trees, *tree)
	return b.apply(p, rows, tree)
}

func (*booster) Barrier(*simnet.Proc, int, int) error { return nil }

// gradients refreshes g and h from the current margins (logistic objective:
// g = p - y, h = p(1-p)) and puts every row back at the root. Pure
// worker-local computation.
func (b *booster) gradients(p *simnet.Proc, dataset *rdd.RDD[Row]) error {
	cost := b.e.Cluster.Cost
	_, err := rdd.RunPartitions(p, dataset, 8, func(tc *rdd.TaskContext, part int, rows []Row) (struct{}, error) {
		if b.margins[part] == nil {
			b.margins[part] = make([]float64, len(rows))
			b.grads[part] = make([]float64, len(rows))
			b.hess[part] = make([]float64, len(rows))
			b.nodeOf[part] = make([]int32, len(rows))
		}
		for i := range rows {
			prob := linalg.Sigmoid(b.margins[part][i])
			b.grads[part][i] = prob - rows[i].Label
			b.hess[part][i] = prob * (1 - prob)
			b.nodeOf[part][i] = 0
		}
		tc.Charge(cost.ElemWork(len(rows) * 2))
		tc.Commit()
		return struct{}{}, nil
	})
	return err
}

// grow builds one tree level by level, node by node (paper Figure 8's outer
// loop).
func (b *booster) grow(p *simnet.Proc, rows *rdd.RDD[Row]) (*Tree, error) {
	cfg := b.cfg
	tree := &Tree{Nodes: []TreeNode{{Left: -1, Right: -1}}}
	type work struct {
		node  int32
		depth int
	}
	queue := []work{{node: 0, depth: 1}}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		n, err := b.histograms(p, rows, w.node)
		if err != nil {
			return nil, err
		}
		n.cfg = &b.cfg
		leafValue := 0.0
		if n.h+cfg.Lambda > 0 {
			leafValue = -cfg.LearningRate * n.g / (n.h + cfg.Lambda)
		}
		if w.depth >= cfg.MaxDepth || n.h < 2*cfg.MinChildWeight {
			tree.Nodes[w.node].Value = leafValue
			continue
		}
		split, err := b.s.Split(p, n)
		if err != nil {
			return nil, err
		}
		if split.Feature < 0 || split.Gain <= 1e-12 {
			tree.Nodes[w.node].Value = leafValue
			continue
		}
		// Min-child-weight was enforced during the histogram scan, so the
		// split can be applied directly — no extra counting stage.
		b.e.RDD.Broadcast(p, 24) // ship the split decision
		li, ri := int32(len(tree.Nodes)), int32(len(tree.Nodes)+1)
		tree.Nodes = append(tree.Nodes, TreeNode{Left: -1, Right: -1}, TreeNode{Left: -1, Right: -1})
		tree.Nodes[w.node].Split = &split
		tree.Nodes[w.node].Left, tree.Nodes[w.node].Right = int(li), int(ri)
		if err := b.route(p, rows, w.node, li, ri, split); err != nil {
			return nil, err
		}
		queue = append(queue, work{node: li, depth: w.depth + 1}, work{node: ri, depth: w.depth + 1})
	}
	return tree, nil
}

// histograms runs one node's histogram stage through the strategy: each task
// builds the grad/hess histograms of the node's rows in its partition and
// ships them. It returns the node's gradient and hessian sums.
func (b *booster) histograms(p *simnet.Proc, dataset *rdd.RDD[Row], node int32) (Node, error) {
	cost, bins, dim := b.e.Cluster.Cost, b.cfg.Bins, b.features*b.cfg.Bins
	var n Node
	err := b.s.Aggregate(p, func(ship Ship) error {
		sums, err := rdd.RunPartitions(p, dataset, 24, func(tc *rdd.TaskContext, part int, rows []Row) ([2]float64, error) {
			g := make([]float64, dim)
			h := make([]float64, dim)
			var gs, hs float64
			count := 0
			for i := range rows {
				if b.nodeOf[part][i] != node {
					continue
				}
				gi, hi := b.grads[part][i], b.hess[part][i]
				gs += gi
				hs += hi
				count++
				for f, bin := range rows[i].Bins[:b.features] {
					g[f*bins+int(bin)] += gi
					h[f*bins+int(bin)] += hi
				}
			}
			tc.Charge(cost.ElemWork(count * b.features))
			tc.Commit()
			return [2]float64{gs, hs}, ship(tc, part, g, h)
		})
		for _, s := range sums {
			n.g += s[0]
			n.h += s[1]
		}
		return err
	})
	return n, err
}

// route reassigns a node's rows to its children.
func (b *booster) route(p *simnet.Proc, dataset *rdd.RDD[Row], node, left, right int32, split Split) error {
	cost := b.e.Cluster.Cost
	_, err := rdd.RunPartitions(p, dataset, 8, func(tc *rdd.TaskContext, part int, rows []Row) (struct{}, error) {
		n := 0
		for i := range rows {
			if b.nodeOf[part][i] != node {
				continue
			}
			n++
			if int(rows[i].Bins[split.Feature]) <= split.BinThreshold {
				b.nodeOf[part][i] = left
			} else {
				b.nodeOf[part][i] = right
			}
		}
		tc.Charge(cost.ElemWork(n))
		tc.Commit()
		return struct{}{}, nil
	})
	return err
}

// apply adds the new tree's predictions to every row's margin; each task's
// summary is its rows' training logloss over its rows.
func (b *booster) apply(p *simnet.Proc, dataset *rdd.RDD[Row], tree *Tree) ([]core.Summary, error) {
	cost := b.e.Cluster.Cost
	return rdd.RunPartitions(p, dataset, 16, func(tc *rdd.TaskContext, part int, rows []Row) (core.Summary, error) {
		var lossSum float64
		for i := range rows {
			b.margins[part][i] += tree.Predict(rows[i].Bins)
			lossSum += linalg.LogLoss(b.margins[part][i], rows[i].Label)
		}
		tc.Charge(cost.ElemWork(len(rows) * len(tree.Nodes)))
		tc.Commit()
		return core.Summary{Sum: lossSum, Weight: len(rows)}, nil
	})
}
