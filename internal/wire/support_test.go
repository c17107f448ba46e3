package wire

// The server's sparse fused executor against a dense reference: schedules of
// PushAdd and Fused requests, run through the server and through the linalg
// kernels over whole rows, must leave the same bits in every row after every
// request. Schedules come from a seed (TestFusedSparseMatchesDense, over a
// live socket) or from fuzz input (FuzzFusedProgram in fuzz_test.go).

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/linalg"
)

// step is one request of a schedule: a PushAdd into row, or (ops non-nil)
// a Fused program.
type step struct {
	row  int
	cols []int // absolute columns
	vals []float64
	ops  []FusedOp
}

// pickScale draws a scale: one time in four any of stepScales, otherwise
// +0, 0.5 or 1, which keep a row sparse, so that -0s made by a sparse FScale
// live long enough to meet an FAxpy into their row.
func pickScale(p picker) float64 {
	if p.intn(4) == 0 {
		return stepScales[p.intn(len(stepScales))]
	}
	return stepScales[[]int{0, 2, 4}[p.intn(3)]]
}

// Values a schedule draws from: signed zeros, values whose products with
// ±0.5 or +0 underflow to -0, and the non-finite scales the dense kernels
// must handle alone.
var (
	stepScales = []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, math.Inf(1), math.NaN()}
	stepVals   = []float64{math.Copysign(0, -1), 0, 1.5, -2.25, 7, -math.SmallestNonzeroFloat64, 1e-300, -3}
)

// picker supplies a schedule's choices.
type picker interface{ intn(n int) int }

type seededPicker struct{ r *rand.Rand }

func (p seededPicker) intn(n int) int { return p.r.IntN(n) }

// bytesPicker reads choices off fuzz input, one byte each; done reports the
// input is used up.
type bytesPicker struct{ b []byte }

func (p *bytesPicker) intn(n int) int {
	if len(p.b) == 0 {
		return 0
	}
	v := int(p.b[0]) % n
	p.b = p.b[1:]
	return v
}

func (p *bytesPicker) done() bool { return len(p.b) == 0 }

// schedShape is the shard a schedule runs on: rows × [lo, lo+width).
type schedShape struct{ rows, lo, width int }

// nextStep draws one request. Pushes carry up to width/32 columns, so a few
// of them carry a row past the dense threshold (width/denseFraction).
func (sh schedShape) nextStep(p picker) step {
	if p.intn(2) == 0 {
		st := step{row: p.intn(sh.rows)}
		for k := 1 + p.intn(sh.width/32); k > 0; k-- {
			st.cols = append(st.cols, sh.lo+p.intn(sh.width))
			st.vals = append(st.vals, stepVals[p.intn(len(stepVals))])
		}
		return st
	}
	st := step{ops: []FusedOp{}}
	for k := 1 + p.intn(4); k > 0; k-- {
		switch p.intn(5) {
		case 0, 1:
			st.ops = append(st.ops, FusedOp{Kind: FAxpy, Dst: p.intn(sh.rows), Src: p.intn(sh.rows),
				Scale: pickScale(p)})
		case 2, 3:
			st.ops = append(st.ops, FusedOp{Kind: FZero, Row: p.intn(sh.rows)})
		default:
			st.ops = append(st.ops, FusedOp{Kind: FScale, Row: p.intn(sh.rows),
				Scale: pickScale(p)})
		}
	}
	return st
}

// frame encodes the step as the request a client sends for matrix mat.
func (st step) frame(mat uint32) Frame {
	if st.ops != nil {
		return Frame{Op: OpFused, Flags: FlagMutates, Payload: AppendFused(nil, mat, st.ops)}
	}
	return Frame{Op: OpPushAdd, Flags: FlagMutates, Payload: AppendPushAdd(nil, mat, st.row, st.cols, st.vals)}
}

// denseRef is the reference: each request applied the way the server did
// before it kept supports, every fused op a linalg kernel over whole rows.
type denseRef struct {
	lo   int
	rows [][]float64
}

func newDenseRef(sh schedShape) *denseRef {
	d := &denseRef{lo: sh.lo, rows: make([][]float64, sh.rows)}
	for r := range d.rows {
		d.rows[r] = make([]float64, sh.width)
	}
	return d
}

func (d *denseRef) apply(st step) {
	if st.ops == nil {
		for i, c := range st.cols {
			d.rows[st.row][c-d.lo] += st.vals[i]
		}
		return
	}
	for _, op := range st.ops {
		switch op.Kind {
		case FAxpy:
			linalg.Axpy(op.Scale, d.rows[op.Src], d.rows[op.Dst])
		case FZero:
			linalg.Fill(d.rows[op.Row], 0)
		case FScale:
			linalg.Scale(op.Scale, d.rows[op.Row])
		}
	}
}

// values returns row r of sh at full width: a dense row's own memory, or a
// compact row's pairs spread over fresh +0 memory.
func (sh *shard) values(r int) []float64 {
	x := &sh.rows[r]
	if x.dense {
		return x.mem
	}
	v := make([]float64, sh.width)
	for p, c := range x.cols {
		v[c] = x.vals[p]
	}
	return v
}

// checkRow fails the test at the first column of got that differs from the
// reference's row r bit for bit.
func (d *denseRef) checkRow(t *testing.T, what string, r int, got []float64) {
	t.Helper()
	want := d.rows[r]
	if len(got) != len(want) {
		t.Fatalf("%s: row %d has %d columns, want %d", what, r, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d col %d = %v (%#x), dense reference %v (%#x)", what, r, d.lo+i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFusedSparseMatchesDense runs seeded schedules through a live server
// and compares every row, read back with PullRange, with the dense
// reference after every request.
func TestFusedSparseMatchesDense(t *testing.T) {
	const seeds, steps = 64, 40
	shape := schedShape{rows: 3, lo: 100, width: 1024}
	_, addr := startServer(t)
	c := NewClient([]string{addr}, fastRetry())
	defer c.Close()
	var vals []float64
	for seed := uint64(1); seed <= seeds; seed++ {
		mat := uint32(seed)
		if err := c.CreateShard(0, mat, shape.rows, shape.lo, shape.lo+shape.width); err != nil {
			t.Fatal(err)
		}
		p := seededPicker{rand.New(rand.NewPCG(seed, 0x5053))}
		ref := newDenseRef(shape)
		for i := 0; i < steps; i++ {
			st := shape.nextStep(p)
			f := st.frame(mat)
			if _, err := c.Call(0, f.Op, true, f.Payload); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			ref.apply(st)
			for r := 0; r < shape.rows; r++ {
				var lo int
				if err := c.PullRangeInto(0, mat, r, &lo, &vals); err != nil {
					t.Fatal(err)
				}
				ref.checkRow(t, fmt.Sprintf("seed %d step %d", seed, i), r, vals)
			}
		}
	}
}
