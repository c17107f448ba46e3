package wire

// The server's shard rows against a reference that keeps every row dense:
// op sequences of pushes (unsorted, duplicated columns), sparse pulls, range
// pulls (some holding their lease across later ops) and fused
// axpy/zero/scale programs run through Server.handle and through the
// reference, which applies every value with the linalg kernels and keeps
// each row's membership by the rules the compact form must follow. After
// every op each row must hold the reference's bits and be dense exactly
// when the reference is, a compact one with exactly the reference's
// members, so neither the range layout nor its bytes can drift. Sequences
// come from a seed (TestRowsMatchReference) or from fuzz input
// (FuzzRowOps).

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/linalg"
	"repro/internal/ps"
)

// Values and scales an op sequence draws from: signed zeros, underflowing
// and overflowing magnitudes, and non-finite values. Its one NaN is the one
// the hardware makes of ∞·0, the NaN every other op here makes: where two
// NaNs meet, which one a sum keeps is the compiled code's choice, and the
// kernels themselves choose differently under -race, so a NaN's payload is
// not part of what the rows promise.
var (
	rowVals   = []float64{math.Copysign(0, -1), 0, 1.5, -2.25, 7, -math.SmallestNonzeroFloat64, 1e-300, -3, 1e308, math.Inf(1), math.Inf(-1)}
	rowScales = []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 2, 1e-300, math.Inf(1), math.Inf(-1), infTimes(0)}
)

func infTimes(z float64) float64 { return math.Inf(1) * z }

// The server's row rules (ps/row.go), restated for the reference: a row
// with more than width/denseFraction members is dense, and alpha·(+0) is a
// zero exactly when alpha is finite.
const denseFraction = 16

func finite(alpha float64) bool { return !math.IsInf(alpha, 0) && !math.IsNaN(alpha) }

// refRows is the reference: each row's values, dense, and its membership by
// the rules: a column written by a push, or by an axpy from a member, is a
// member until the row's next zero; a row is dense once its members pass
// width/denseFraction or a dense kernel ran on it.
type refRows struct {
	lo, width int
	vals      [][]float64
	member    [][]bool
	dense     []bool
}

func newRefRows(rows, lo, width int) *refRows {
	d := &refRows{lo: lo, width: width, dense: make([]bool, rows)}
	for range rows {
		d.vals = append(d.vals, make([]float64, width))
		d.member = append(d.member, make([]bool, width))
	}
	return d
}

// members returns row r's members, ascending.
func (d *refRows) members(r int) []int32 {
	var out []int32
	for c, in := range d.member[r] {
		if in {
			out = append(out, int32(c))
		}
	}
	return out
}

// join makes the columns where in[c] is set members of a row that is not
// dense, which turns dense if they pass the limit.
func (d *refRows) join(r int, in func(c int) bool) {
	if d.dense[r] {
		return
	}
	for c := range d.member[r] {
		d.member[r][c] = d.member[r][c] || in(c)
	}
	d.dense[r] = len(d.members(r)) > d.width/denseFraction
}

func (d *refRows) push(r int, cols []int, vals []float64) {
	for i, c := range cols {
		d.vals[r][c-d.lo] += vals[i]
	}
	d.join(r, func(c int) bool { return slices.Contains(cols, c+d.lo) })
}

func (d *refRows) fused(ops []FusedOp) {
	for _, op := range ops {
		switch op.Kind {
		case FAxpy:
			x, y, a := op.Src, op.Dst, op.Scale
			linalg.Axpy(a, d.vals[x], d.vals[y])
			if d.dense[x] || !finite(a) || (!math.Signbit(a) && d.dense[y]) {
				d.dense[y] = true
			} else {
				src := slices.Clone(d.member[x])
				d.join(y, func(c int) bool { return src[c] })
			}
		case FZero:
			linalg.Fill(d.vals[op.Row], 0)
			clear(d.member[op.Row])
			d.dense[op.Row] = false
		case FScale:
			linalg.Scale(op.Scale, d.vals[op.Row])
			d.dense[op.Row] = d.dense[op.Row] || !finite(op.Scale) || math.Signbit(op.Scale)
		}
	}
}

// rangeResp is the whole PullRange response frame row r must get.
func (d *refRows) rangeResp(r int) []byte {
	var p []byte
	if m := d.members(r); !d.dense[r] && 12+12*len(m) < 8+8*d.width {
		cols := make([]int, len(m))
		vals := make([]float64, len(m))
		for i, c := range m {
			cols[i], vals[i] = int(c), d.vals[r][c]
		}
		p = sparseRangePayload(d.lo, d.width, cols, vals)
	} else {
		p = appendPullRangeResp(nil, d.lo, d.vals[r])
	}
	return rawResponse(0, len(p), p)
}

// check fails the test at the first row of sh that differs from the
// reference in form, members or bits.
func (d *refRows) check(t *testing.T, what string, sh *ps.Shard) {
	t.Helper()
	for r := range d.vals {
		x := sh.Form(r)
		if x.Dense != d.dense[r] {
			t.Fatalf("%s: row %d dense %v, the reference's %v", what, r, x.Dense, d.dense[r])
		}
		members := slices.Clone(x.Cols)
		if slices.Sort(members); !x.Dense && !slices.Equal(members, d.members(r)) {
			t.Fatalf("%s: row %d holds members %v, the reference %v", what, r, members, d.members(r))
		}
		if x.Dense && len(x.Cols) != 0 {
			t.Fatalf("%s: dense row %d still holds %d pairs", what, r, len(x.Cols))
		}
		got := values(sh, r)
		for c, v := range d.vals[r] {
			if math.Float64bits(got[c]) != math.Float64bits(v) {
				t.Fatalf("%s: row %d col %d = %v (%#x), the reference %v (%#x)", what, r, d.lo+c,
					got[c], math.Float64bits(got[c]), v, math.Float64bits(v))
			}
		}
	}
}

// heldPull is a range pull whose lease is kept across later ops, and the
// frame it must write once it is let go.
type heldPull struct {
	row  int
	sc   connScratch
	resp []byte
	want []byte
}

// runRowOps draws n ops from p (n < 0: until p is used up) and runs them on
// a fresh rows × [lo, lo+width) shard and on the reference.
func runRowOps(t *testing.T, p picker, rows, lo, width, n int) {
	t.Helper()
	s := NewServer()
	var sc connScratch
	var id uint64
	handle := func(op byte, payload []byte, sc *connScratch) []byte {
		t.Helper()
		id++
		resp, err := s.handle(Frame{Op: op, Flags: FlagMutates, ReqID: id, AckedTo: id - 1, Payload: payload}, sc)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	handle(OpCreateShard, AppendCreateShard(nil, 1, rows, lo, lo+width), &sc)
	ref := newRefRows(rows, lo, width)
	var held []*heldPull
	let := func(what string, h *heldPull) {
		t.Helper()
		var buf bytes.Buffer
		if err := respond(&buf, h.resp, nil, &h.sc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), h.want) {
			t.Fatalf("%s: a held range pull wrote a frame unlike the row at pull time", what)
		}
	}
	done := func() bool {
		bp, ok := p.(*bytesPicker)
		return n == 0 || (ok && bp.done())
	}
	for i := 0; !done(); i++ {
		n--
		what := fmt.Sprintf("op %d", i)
		r := p.intn(rows)
		switch p.intn(10) {
		case 0, 1, 2, 3: // push: ascending, scattered, or crowded onto a few columns
			k := 1 + p.intn(width/8)
			span := []int{width, width, 4}[p.intn(3)]
			cols := make([]int, k)
			vals := make([]float64, k)
			for j := range cols {
				cols[j] = lo + p.intn(span)*(width/span)
				vals[j] = rowVals[p.intn(len(rowVals))]
			}
			if p.intn(2) == 0 {
				slices.Sort(cols)
				cols = slices.Compact(cols)
				vals = vals[:len(cols)]
			}
			what += fmt.Sprintf(" push %d cols into row %d", len(cols), r)
			handle(OpPushAdd, AppendPushAdd(nil, 1, r, cols, vals), &sc)
			ref.push(r, cols, vals)
		case 4, 5, 6: // fused program
			ops := make([]FusedOp, 1+p.intn(4))
			for j := range ops {
				a := rowScales[p.intn(len(rowScales))]
				switch p.intn(5) {
				case 0, 1:
					ops[j] = FusedOp{Kind: FAxpy, Dst: p.intn(rows), Src: p.intn(rows), Scale: a}
				case 2:
					ops[j] = FusedOp{Kind: FZero, Row: p.intn(rows)}
				default:
					ops[j] = FusedOp{Kind: FScale, Row: p.intn(rows), Scale: a}
				}
			}
			if len(held) > 0 && p.intn(2) == 0 { // aim the first op at a held row
				ops[0].Dst, ops[0].Row = held[0].row, held[0].row
			}
			what += fmt.Sprintf(" fused %+v", ops)
			handle(OpFused, AppendFused(nil, 1, ops), &sc)
			ref.fused(ops)
		case 7: // sparse pull
			cols := make([]int, 1+p.intn(8))
			want := make([]float64, len(cols))
			for j := range cols {
				cols[j] = lo + p.intn(width)
				want[j] = ref.vals[r][cols[j]-lo]
			}
			got, err := s.handle(Frame{Op: OpPullSparse, Payload: AppendPullSparseReq(nil, 1, r, cols)}, &sc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, AppendVals(nil, want)) {
				t.Fatalf("%s: sparse pull of row %d at %v answered unlike the reference", what, r, cols)
			}
		case 8: // range pull, its lease held across later ops or let go at once
			h := &heldPull{row: r, want: ref.rangeResp(r)}
			mem := s.mats[1].Form(r).Mem
			resp, err := s.handle(Frame{Op: OpPullRange, Payload: AppendPullRangeReq(nil, 1, r)}, &h.sc)
			if err != nil {
				t.Fatal(err)
			}
			h.resp = slices.Clone(resp)
			if lent := h.sc.lent; len(lent) > 0 && &lent[0] != &mem[0] {
				t.Fatalf("%s: the range pull of row %d lent a copy, not the row", what, r)
			}
			if h.sc.lease != nil && len(held) < 2 && p.intn(2) == 0 {
				held = append(held, h)
			} else {
				let(what+fmt.Sprintf(" range pull of row %d", r), h)
			}
		default: // let go of the oldest held pull
			if len(held) > 0 {
				let(what+" let go", held[0])
				held = held[1:]
			}
		}
		ref.check(t, what, s.mats[1])
	}
	for _, h := range held {
		let("at the end", h)
	}
}

// TestRowsMatchReference runs seeded op sequences on shards 160, 1024 and
// 9000 columns wide: on the first a few pushes cross the dense threshold,
// the last is wider than one piece of axpy's dense fallback.
func TestRowsMatchReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			p := seededPicker{rand.New(rand.NewPCG(seed, 0x726f7773))}
			runRowOps(t, p, 3, 7, []int{160, 1024, 9000}[seed%3], 60)
		})
	}
}

// FuzzRowOps runs the op sequence the input spells, one byte per choice.
func FuzzRowOps(f *testing.F) {
	f.Add([]byte{})
	// Push 20 columns into row 0, past its limit of 10, hold a range pull of
	// the now dense row, zero the row, then let the pull go.
	seed := []byte{0, 0, 19, 0}
	for c := range 20 {
		seed = append(seed, byte(c), 2)
	}
	f.Add(append(seed, 1, 0, 8, 0, 0, 4, 0, 0, 2, 0, 1, 0, 9))
	rng := rand.New(rand.NewPCG(11, 11))
	for range 24 {
		in := make([]byte, 64+rng.IntN(512))
		for j := range in {
			in[j] = byte(rng.Uint32())
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		runRowOps(t, &bytesPicker{b: in}, 3, 5, 160, -1)
	})
}

// lrRounds is a fresh server holding a width-wide 2-row matrix 1, driven
// through Server.handle with request IDs and watermarks as a client sends
// them; prog is the LR loop's step program (axpy gradient → weight at
// -0.01, zero the gradient).
type lrRounds struct {
	s    *Server
	sc   connScratch
	id   uint64
	prog []byte
}

func newLRRounds(tb testing.TB, width int) *lrRounds {
	l := &lrRounds{s: NewServer(), prog: AppendFused(nil, 1, []FusedOp{
		{Kind: FAxpy, Dst: rowWeight, Src: rowGrad, Scale: -0.01},
		{Kind: FZero, Row: rowGrad},
	})}
	l.send(tb, OpCreateShard, AppendCreateShard(nil, 1, 2, 0, width))
	return l
}

func (l *lrRounds) send(tb testing.TB, op byte, p []byte) []byte {
	l.id++
	resp, err := l.s.handle(Frame{Op: op, Flags: FlagMutates, ReqID: l.id, AckedTo: l.id - 1, Payload: p}, &l.sc)
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

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

// TestDenseWorkloadHoldsNoWideRow: a 4 M-wide shard driven through 400
// rounds of tcp-lr-dense's op mix (about 500 columns a round, drawn from a
// 20 617-column feature set) holds no memory as wide as a row: both rows
// stay compact, the weight row's pairs are its support, and the final range
// pull ships them.
func TestDenseWorkloadHoldsNoWideRow(t *testing.T) {
	const width, features, rounds, perRound = 4000000, 20617, 400, 500
	rng := rand.New(rand.NewPCG(17, 4))
	pool := drawCols(rng, func() []int {
		p := make([]int, 2*features)
		for i := range p {
			p[i] = rng.IntN(width)
		}
		return p
	}(), 2*features)[:features]
	l := newLRRounds(t, width)
	cols := drawCols(rng, pool, perRound)
	for range rounds {
		vals := make([]float64, len(cols))
		for i := range vals {
			vals[i] = rng.Float64() - 0.5
		}
		l.send(t, OpPushAdd, AppendPushAdd(nil, 1, rowGrad, cols, vals))
		l.send(t, OpFused, l.prog)
		cols = drawCols(rng, pool, perRound)
		l.send(t, OpPullSparse, AppendPullSparseReq(nil, 1, rowWeight, cols))
	}
	sh := l.s.mats[1]
	for r := range sh.NumRows() {
		if x := sh.Form(r); x.Dense || x.Mem != nil {
			t.Fatalf("row %d: dense %v, holds %d values of width-long memory", r, x.Dense, len(x.Mem))
		}
	}
	k := len(sh.Form(rowWeight).Cols)
	if k == 0 || k > features || len(sh.Form(rowGrad).Cols) != 0 {
		t.Fatalf("weight row holds %d pairs of a %d-column feature set, gradient %d", k, features, len(sh.Form(rowGrad).Cols))
	}
	resp := l.send(t, OpPullRange, AppendPullRangeReq(nil, 1, rowWeight))
	if l.sc.lease != nil || len(resp) != 12+12*k {
		t.Fatalf("the final range pull answered %d bytes, lease %v; want the %d pairs", len(resp), l.sc.lease, k)
	}
}
