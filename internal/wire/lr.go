package wire

// Multi-process logistic regression over the wire protocol: the training
// loop cmd/ps2worker runs against cmd/ps2serve processes. The loop body is
// shared with a simnet-backed twin (lr_simnet.go) that drives the exact
// same batches, gradient math and update order through the simulated PS —
// so the wall-clock run's loss trajectory can be checked against the
// simulated one to tight tolerance, which is the acceptance gate for the
// real transport: same algorithm, same numbers, different bytes-mover.
//
// Each iteration indexes its batch once (lr.BatchIndex): the sorted distinct
// features are the pull list and the push list, and weights and gradient are
// slices aligned with them. The TCP store splits that list by server with
// ps.Partitioner.SplitIndices and decodes each server's values straight into
// its stretch of the weight slice, so neither backend builds a per-batch map.

import (
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/ml/lr"
	"repro/internal/ps"
)

// Weight and gradient live as two rows of one matrix, mirroring how the
// fused update program addresses them server-side.
const (
	rowWeight = 0
	rowGrad   = 1
)

// LRConfig parameterizes one LR run. Zero fields take defaults.
type LRConfig struct {
	Dataset      data.ClassifyConfig
	Iterations   int
	BatchSize    int
	LearningRate float64
	Mat          uint32 // matrix id on the servers
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
	if c.Mat == 0 {
		c.Mat = 1
	}
	return c
}

// LRResult is one run's outcome.
type LRResult struct {
	Losses    []float64 // mean mini-batch loss per iteration
	FinalLoss float64   // full-dataset loss of the final weights
	Weights   []float64
}

// lrStore abstracts the parameter store the shared loop trains against:
// the wire client fanning out over TCP, or the simulated matrix. Rows are
// rowWeight and rowGrad of one dim-column matrix.
type lrStore interface {
	create(mat uint32, rows, dim int) error
	// pullWeights reads the weight values at cols (sorted, distinct) into w,
	// aligned with cols.
	pullWeights(mat uint32, cols []int, w []float64) error
	// pushGrad adds the sparse gradient into the grad row.
	pushGrad(mat uint32, cols []int, vals []float64) error
	// step applies w += scale·grad and zeroes grad, atomically per server.
	step(mat uint32, scale float64) error
	// weights reads the full weight vector.
	weights(mat uint32, dim int) ([]float64, error)
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

// runLRLoop drives the shared mini-batch SGD loop against st. One batch index
// and the aligned buffers w and grad serve every iteration, so a warm
// iteration builds no map and sorts nothing.
func runLRLoop(st lrStore, ds *data.ClassifyDataset, cfg LRConfig) (*LRResult, error) {
	dim := ds.Config.Dim
	if err := st.create(cfg.Mat, 2, dim); err != nil {
		return nil, fmt.Errorf("create shards: %w", err)
	}
	rng := batchRNG{s: ds.Config.Seed}
	res := &LRResult{}
	batch := make([]data.Instance, cfg.BatchSize)
	var bi lr.BatchIndex
	var w, grad []float64
	for it := 0; it < cfg.Iterations; it++ {
		for i := range batch {
			batch[i] = ds.Instances[rng.intn(len(ds.Instances))]
		}
		bi.Build(batch)
		growFloats(&w, len(bi.Indices))
		growFloats(&grad, len(bi.Indices))
		if err := st.pullWeights(cfg.Mat, bi.Indices, w); err != nil {
			return nil, fmt.Errorf("iteration %d pull: %w", it, err)
		}
		lossSum := bi.Gradient(lr.Logistic, batch, w, grad)
		res.Losses = append(res.Losses, lossSum/float64(len(batch)))

		cols, vals := bi.Sparse(grad)
		if err := st.pushGrad(cfg.Mat, cols, vals); err != nil {
			return nil, fmt.Errorf("iteration %d push: %w", it, err)
		}
		if err := st.step(cfg.Mat, -cfg.LearningRate/float64(len(batch))); err != nil {
			return nil, fmt.Errorf("iteration %d step: %w", it, err)
		}
	}
	wFull, err := st.weights(cfg.Mat, dim)
	if err != nil {
		return nil, fmt.Errorf("final pull: %w", err)
	}
	res.Weights = wFull
	res.FinalLoss = lr.EvalLoss(lr.Logistic, ds.Instances, wFull)
	return res, nil
}

// wireStore fans the loop's operators out over the TCP client, one
// goroutine per server per round, columns routed by the same range
// partitioner the simulated master uses — so both backends shard the model
// identically.
type wireStore struct {
	c  *Client
	pt *ps.Partitioner
}

func newWireStore(c *Client, dim int) (*wireStore, error) {
	pt, err := ps.NewPartitioner(dim, c.Servers())
	if err != nil {
		return nil, err
	}
	return &wireStore{c: c, pt: pt}, nil
}

// eachServer runs fn(s) concurrently for every server and returns the
// first error.
func (st *wireStore) eachServer(fn func(s int) error) error {
	errs := make([]error, st.c.Servers())
	var wg sync.WaitGroup
	for s := 0; s < st.c.Servers(); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (st *wireStore) create(mat uint32, rows, dim int) error {
	return st.eachServer(func(s int) error {
		lo, hi := st.pt.Range(s)
		return st.c.CreateShard(s, mat, rows, lo, hi)
	})
}

// eachRun runs fn concurrently for every server owning some of cols (sorted),
// with that server's run of cols and where the run starts in cols. The range
// placement makes the runs consecutive stretches of cols.
func (st *wireStore) eachRun(cols []int, fn func(s, lo int, run []int) error) error {
	runs := st.pt.SplitIndices(cols)
	return st.eachServer(func(s int) error {
		if len(runs[s]) == 0 {
			return nil
		}
		lo := 0
		for _, r := range runs[:s] {
			lo += len(r)
		}
		return fn(s, lo, runs[s])
	})
}

// pullWeights decodes each server's values straight into its stretch of w.
func (st *wireStore) pullWeights(mat uint32, cols []int, w []float64) error {
	return st.eachRun(cols, func(s, lo int, run []int) error {
		dst := w[lo : lo+len(run) : lo+len(run)]
		return st.c.PullSparseInto(s, mat, rowWeight, run, &dst)
	})
}

func (st *wireStore) pushGrad(mat uint32, cols []int, vals []float64) error {
	return st.eachRun(cols, func(s, lo int, run []int) error {
		return st.c.PushAdd(s, mat, rowGrad, run, vals[lo:lo+len(run)])
	})
}

func (st *wireStore) step(mat uint32, scale float64) error {
	ops := []FusedOp{
		{Kind: FAxpy, Dst: rowWeight, Src: rowGrad, Scale: scale},
		{Kind: FZero, Row: rowGrad},
	}
	return st.eachServer(func(s int) error {
		return st.c.Fused(s, mat, ops)
	})
}

// weights decodes each server's range straight into its stretch of w, as
// pullWeights does: the stretch's capacity is exactly the range, so a reply
// of the right length lands in place and any other length is refused.
func (st *wireStore) weights(mat uint32, dim int) ([]float64, error) {
	w := make([]float64, dim)
	err := st.eachServer(func(s int) error {
		wantLo, wantHi := st.pt.Range(s)
		dst := w[wantLo:wantHi:wantHi]
		var lo int
		if err := st.c.PullRangeInto(s, mat, rowWeight, &lo, &dst); err != nil {
			return err
		}
		if lo != wantLo || len(dst) != wantHi-wantLo {
			return fmt.Errorf("wire: server %d returned range [%d,+%d), want [%d,%d)",
				s, lo, len(dst), wantLo, wantHi)
		}
		return nil
	})
	return w, err
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
