package ps

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/linalg"
	"repro/internal/simnet"
)

// drawCols returns n columns drawn from pool, sorted and distinct, as the
// LR loop's batch index lists them.
func drawCols(rng *rand.Rand, pool []int, n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = pool[rng.IntN(len(pool))]
	}
	slices.Sort(cols)
	return slices.Compact(cols)
}

// TestMatrixDenseWorkloadHoldsNoWideRow is wire's
// TestDenseWorkloadHoldsNoWideRow on a simulated matrix: a 4 M-wide 2-row
// matrix on one server, driven through 400 rounds of PushAdd and
// PullRowIndices at tcp-lr-dense's sizes (about 500 columns a round, drawn
// from a 20 617-column feature set), holds no memory as wide as a row: both
// rows stay compact, and the pushed row's pairs are its support.
func TestMatrixDenseWorkloadHoldsNoWideRow(t *testing.T) {
	const width, features, rounds, perRound = 4000000, 20617, 400, 500
	rng := rand.New(rand.NewPCG(17, 4))
	pool := drawCols(rng, func() []int {
		p := make([]int, 2*features)
		for i := range p {
			p[i] = rng.IntN(width)
		}
		return p
	}(), 2*features)[:features]
	sim, cl, m := testMaster(1)
	var mat *Matrix
	run(sim, func(p *simnet.Proc) {
		mat = must(m.CreateMatrix(p, 2, width))
		w := cl.Executors[0]
		cols := drawCols(rng, pool, perRound)
		for range rounds {
			vals := make([]float64, len(cols))
			for i := range vals {
				vals[i] = rng.Float64() - 0.5
			}
			mustOK(mat.PushAdd(p, w, 0, must(linalg.NewSparse(cols, vals))))
			cols = drawCols(rng, pool, perRound)
			must(mat.PullRowIndices(p, w, 0, cols, nil))
			must(mat.PullRowIndices(p, w, 1, cols, nil))
		}
	})
	sh := mat.HostShard(0)
	for r := range sh.rows {
		if x := &sh.rows[r]; x.dense || x.mem != nil {
			t.Fatalf("row %d: dense %v, holds %d values of width-long memory", r, x.dense, len(x.mem))
		}
	}
	cols := sh.Form(0).Cols
	if k := len(cols); k == 0 || k > features {
		t.Fatalf("pushed row holds %d pairs of a %d-column feature set", k, features)
	}
}
