package wire

// Multi-process logistic regression over the wire protocol: the training
// loop cmd/ps2worker runs against cmd/ps2serve processes. The loop body is
// shared with a simnet-backed twin (lr_simnet.go) that drives the exact
// same batches, gradient math and update order through the simulated PS —
// so the wall-clock run's loss trajectory can be checked against the
// simulated one to tight tolerance, which is the acceptance gate for the
// real transport: same algorithm, same numbers, different bytes-mover.
//
// Each batch is indexed once (lr.BatchIndex): the sorted distinct features
// are the pull list and the push list, and weights and gradient are slices
// aligned with them. Batches are indexed a round ahead, into two buffers
// that take turns (lrBatches). The loop talks to its store in rounds: round
// i pushes iteration i's gradient, applies its step and pulls batch i+1's
// weights, and indexes batch i+2 while the servers work. Over TCP a round is
// one write per server from the loop's goroutine: push, step and pull go out
// back to back on one connection, the next batch is indexed, and the three
// answers are read in order. The pull sees the step because a server applies
// one connection's frames in arrival order. The simnet twin makes the same
// three calls in sequence and indexes the same batches in the same order.
// The TCP store cuts each list into per-server runs along the range
// partition and decodes each server's values straight into its stretch of
// the weight slice, so neither backend builds a per-batch map. The final
// loss is evaluated from the weights at the dataset's features, the only
// columns training pushes to; the TCP store reads each server's row as its
// nonzero values, so nothing as wide as the model is held.

import (
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/lr"
	"repro/internal/ps"
)

// Weight and gradient live as two rows of one matrix, lrMat on the servers,
// mirroring how the fused update program addresses them server-side.
const (
	lrMat     = 1
	rowWeight = 0
	rowGrad   = 1
)

// LRConfig parameterizes one LR run. Zero fields take defaults.
type LRConfig struct {
	Dataset      data.ClassifyConfig
	Iterations   int
	BatchSize    int
	LearningRate float64
}

func (c LRConfig) withDefaults() LRConfig {
	if c.Dataset.Rows == 0 {
		c.Dataset.Rows = 2000
	}
	if c.Dataset.Dim == 0 {
		c.Dataset.Dim = 5000
	}
	if c.Dataset.NnzPerRow == 0 {
		c.Dataset.NnzPerRow = 12
	}
	if c.Dataset.Skew == 0 {
		c.Dataset.Skew = 1.0
	}
	if c.Dataset.NoiseRate == 0 {
		c.Dataset.NoiseRate = 0.02
	}
	if c.Dataset.WeightNnz == 0 {
		c.Dataset.WeightNnz = c.Dataset.Dim / 10
	}
	if c.Dataset.Seed == 0 {
		c.Dataset.Seed = 17
	}
	if c.Iterations <= 0 {
		c.Iterations = 30
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.5
	}
	return c
}

// LRResult is one run's outcome.
type LRResult struct {
	Losses    []float64 // mean mini-batch loss per iteration
	FinalLoss float64   // full-dataset loss of the final weights
	// Weights is the final model at every feature of the dataset, by column.
	// Training pushes to no other column, so every other weight is 0.
	Weights linalg.SparseVector
}

// lrStore abstracts the parameter store the shared loop trains against:
// the wire client over TCP, or the simulated matrix. Rows are rowWeight and
// rowGrad of one dim-column matrix.
type lrStore interface {
	create(rows, dim int) error
	// round ends one iteration and starts the next. Unless step is nil (the
	// first round), it adds step's sparse gradient into the grad row, then
	// applies w += scale·grad and zeroes grad, atomically per server. Then it
	// reads the weights at the columns of b's next batch into its w, unless
	// every batch is drawn (the last round), and turns b, which makes that
	// batch current and indexes the one after it. step's slices alias the
	// current batch's buffers, which the turn overwrites: the gradient must be
	// sent (or encoded) before it.
	round(step *lrStep, b *lrBatches) error
	// weights reads the weights at cols (sorted, distinct) into w, aligned
	// with them.
	weights(cols []int, w []float64) error
}

// lrStep is the end of one iteration: the sparse gradient (sorted, distinct
// columns) and the scale of the update it feeds.
type lrStep struct {
	cols  []int
	vals  []float64
	scale float64
}

// batchRNG is a splitmix-style generator both backends share, so the two
// arms draw identical batch sequences regardless of what other randomness
// their environments consume.
type batchRNG struct{ s uint64 }

func (r *batchRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *batchRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// lrBatch is one mini-batch, indexed: its rows, the index whose sorted
// distinct features are its pull and push lists, and the weight and
// gradient slices aligned with them.
type lrBatch struct {
	rows    []data.Instance
	bi      lr.BatchIndex
	w, grad []float64
	drawn   bool // false once the run has no batch left for it
}

// lrBatches draws the loop's mini-batches and indexes each one a round
// ahead. The embedded *lrBatch is the current batch, the one the loop
// computes on; next is the one after it, already indexed, whose weights the
// round pulls. Two buffers take turns, and a warm draw builds no map and
// sorts nothing.
type lrBatches struct {
	*lrBatch
	next *lrBatch
	rng  batchRNG
	from []data.Instance // the dataset
	left int             // batches still to draw
}

// newLRBatches returns the batches of a run of n iterations over from, the
// first one drawn and indexed as next: the first round pulls its weights.
func newLRBatches(from []data.Instance, size int, seed uint64, n int) *lrBatches {
	b := &lrBatches{
		lrBatch: &lrBatch{rows: make([]data.Instance, size)},
		next:    &lrBatch{rows: make([]data.Instance, size)},
		rng:     batchRNG{s: seed},
		from:    from,
		left:    n,
	}
	b.draw(b.next)
	return b
}

// ahead returns next's columns and the weight slice aligned with them, or
// ok false once every batch is drawn.
func (b *lrBatches) ahead() (cols []int, w []float64, ok bool) {
	if !b.next.drawn {
		return nil, nil, false
	}
	return b.next.bi.Indices, b.next.w, true
}

// turn makes next the current batch, and draws and indexes the batch after
// it into the buffers of the one it replaces: the round calls it once that
// batch's gradient is encoded.
func (b *lrBatches) turn() {
	b.lrBatch, b.next = b.next, b.lrBatch
	b.draw(b.next)
}

// draw draws the next batch of the sequence into bt, if one is left.
func (b *lrBatches) draw(bt *lrBatch) {
	bt.drawn = b.left > 0
	if !bt.drawn {
		return
	}
	b.left--
	for i := range bt.rows {
		bt.rows[i] = b.from[b.rng.intn(len(b.from))]
	}
	bt.bi.Build(bt.rows)
	growFloats(&bt.grad, len(bt.bi.Indices))
	growFloats(&bt.w, len(bt.bi.Indices))
}

// runLRLoop drives the shared mini-batch SGD loop against st: one round
// pulls the first batch's weights, and each iteration's round pushes its
// gradient and pulls the next batch's.
func runLRLoop(st lrStore, ds *data.ClassifyDataset, cfg LRConfig) (*LRResult, error) {
	if err := st.create(2, ds.Config.Dim); err != nil {
		return nil, fmt.Errorf("create shards: %w", err)
	}
	b := newLRBatches(ds.Instances, cfg.BatchSize, ds.Config.Seed, cfg.Iterations)
	if err := st.round(nil, b); err != nil {
		return nil, fmt.Errorf("first pull: %w", err)
	}
	res := &LRResult{}
	step := &lrStep{scale: -cfg.LearningRate / float64(cfg.BatchSize)}
	for it := 0; it < cfg.Iterations; it++ {
		lossSum := b.bi.Gradient(lr.Logistic, b.rows, b.w, b.grad)
		res.Losses = append(res.Losses, lossSum/float64(len(b.rows)))
		step.cols, step.vals = b.bi.Sparse(b.grad)
		if err := st.round(step, b); err != nil {
			return nil, fmt.Errorf("iteration %d: %w", it, err)
		}
	}
	var all lr.BatchIndex
	all.Build(ds.Instances)
	w := make([]float64, len(all.Indices))
	if err := st.weights(all.Indices, w); err != nil {
		return nil, fmt.Errorf("final pull: %w", err)
	}
	res.Weights = linalg.SparseVector{Indices: all.Indices, Values: w}
	res.FinalLoss = all.Loss(lr.Logistic, ds.Instances, w)
	return res, nil
}

// wireStore runs the loop's operators over the TCP client, one reusable
// pipeline per server, columns routed by the same range partitioner the
// simulated master uses — so both backends shard the model identically.
type wireStore struct {
	c     *Client
	pt    *ps.Partitioner
	pipes []*Pipeline
	dst   [][]float64 // per server: its stretch of the slice being pulled into
	ops   []FusedOp   // the step program; round sets its scale
}

func newWireStore(c *Client, dim int) (*wireStore, error) {
	pt, err := ps.NewPartitioner(dim, c.Servers())
	if err != nil {
		return nil, err
	}
	st := &wireStore{
		c:     c,
		pt:    pt,
		pipes: make([]*Pipeline, c.Servers()),
		dst:   make([][]float64, c.Servers()),
		ops: []FusedOp{
			{Kind: FAxpy, Dst: rowWeight, Src: rowGrad},
			{Kind: FZero, Row: rowGrad},
		},
	}
	for s := range st.pipes {
		st.pipes[s] = c.Pipeline(s)
	}
	return st, nil
}

// wait reads every server's answers and returns the first error.
func (st *wireStore) wait() error {
	var first error
	for _, p := range st.pipes {
		if err := p.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// eachRun calls fn for every server owning some of cols (sorted), with that
// server's run of cols and where the run starts in cols. The range placement
// makes the runs consecutive stretches of cols.
func (st *wireStore) eachRun(cols []int, fn func(s, lo int, run []int)) {
	lo := 0
	for s := range st.pipes {
		_, hi := st.pt.Range(s)
		n := sort.SearchInts(cols[lo:], hi)
		if n > 0 {
			fn(s, lo, cols[lo:lo+n])
		}
		lo += n
	}
}

func (st *wireStore) create(rows, dim int) error {
	for s, p := range st.pipes {
		lo, hi := st.pt.Range(s)
		p.CreateShard(lrMat, rows, lo, hi)
		p.Send()
	}
	return st.wait()
}

// round queues each server its push, its step and its run of the next
// batch's pull, writes them in one write per server, and indexes the batch
// after while the servers apply them; then it reads all the answers. Each
// server's pulled values decode straight into its stretch of the next
// batch's w.
func (st *wireStore) round(step *lrStep, b *lrBatches) error {
	if step != nil {
		st.eachRun(step.cols, func(s, lo int, run []int) {
			st.pipes[s].PushAdd(lrMat, rowGrad, run, step.vals[lo:lo+len(run)])
		})
		st.ops[0].Scale = step.scale
		for _, p := range st.pipes {
			p.Fused(lrMat, st.ops)
		}
	}
	if cols, w, ok := b.ahead(); ok {
		st.eachRun(cols, func(s, lo int, run []int) {
			st.dst[s] = w[lo : lo+len(run) : lo+len(run)]
			st.pipes[s].PullSparseInto(lrMat, rowWeight, run, &st.dst[s])
		})
	}
	for _, p := range st.pipes {
		p.Send()
	}
	b.turn()
	return st.wait()
}

// weights reads each server's stretch of the weight row, keeping its
// nonzero values only: the range pulls of a full-row read, without memory of
// the row's width. It sets w at cols from them and leaves out a weight at a
// column cols lacks, which no row of the dataset reads (a column the servers
// held from before the run).
func (st *wireStore) weights(cols []int, w []float64) error {
	got := make([]RangeNonzero, len(st.pipes))
	for s, p := range st.pipes {
		p.PullRangeNonzero(lrMat, rowWeight, &got[s])
		p.Send()
	}
	if err := st.wait(); err != nil {
		return err
	}
	clear(w)
	k := 0 // cols[k] is the first column not below the next nonzero's
	for s, g := range got {
		lo, hi := st.pt.Range(s)
		if g.Lo != lo || g.Width != hi-lo {
			return fmt.Errorf("wire: server %d returned range [%d,+%d), want [%d,%d)", s, g.Lo, g.Width, lo, hi)
		}
		for i, c := range g.Cols {
			for k < len(cols) && cols[k] < lo+c {
				k++
			}
			if k < len(cols) && cols[k] == lo+c {
				w[k] = g.Vals[i]
			}
		}
	}
	return nil
}

// RunLR trains LR over the wire client against live ps2serve endpoints and
// returns the loss trajectory and final model.
func RunLR(c *Client, cfg LRConfig) (*LRResult, error) {
	cfg = cfg.withDefaults()
	ds, err := data.GenerateClassify(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	st, err := newWireStore(c, ds.Config.Dim)
	if err != nil {
		return nil, err
	}
	return runLRLoop(st, ds, cfg)
}
