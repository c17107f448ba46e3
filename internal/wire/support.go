package wire

// The server's shard rows. PS2's LR pushes a few hundred gradient columns
// into one row of a shard, then runs axpy(grad → w) and zero(grad) over the
// shard (paper §4, DCV operators), and a model millions of columns wide is
// touched in few of them. So a row takes one of two forms:
//
//   - compact: its members, the local columns a push (or an axpy from a
//     member) has written since the row's last zero, as (column, value)
//     pairs in the order they joined, found through an open-addressing
//     index. Every other column holds +0 exactly, and nothing as long as
//     the row's width is held.
//   - dense: every column, in width-long memory.
//
// An element-wise op whose result outside the members is +0 again only has
// to visit the pairs. Element-wise ops have no reduction order, so the
// result is bit-identical to the dense linalg kernels, which stay as the
// other branch: an op whose result outside the members could be anything
// but +0 runs the kernel over the whole row and turns the row dense. (Where
// two NaNs meet, which one a sum keeps is the compiled code's choice, the
// kernels' own included, so a NaN's payload is not promised.) A row also
// turns dense once its members pass 1/denseFraction of the width, and stays
// so until its next zero, which fills its memory with +0 and makes it
// compact again; the memory is kept for the next time it turns dense.
//
// A range pull of a compact row answers with its pairs in column order,
// encoded under the server's mutex. A range pull of a dense row is written
// from the row's own memory, outside the mutex (server.go), so a row may be
// on lease while another connection writes to it. Every write to a dense
// row's memory therefore calls own first: a leased row is copied once, the
// copy becomes the row's memory, and the pulls keep writing the row exactly
// as it was when they were handled. Zeroing a leased row lets go of its
// memory instead, so a compact row's memory is never on lease.

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/linalg"
)

// denseFraction sets when the compact form stops paying: a row with more
// than width/denseFraction members turns dense.
const denseFraction = 16

// row is one shard row.
type row struct {
	cols  []int32   // compact: the members' local columns, in joining order
	vals  []float64 // compact: their values, aligned with cols
	slots []uint64  // compact: open-addressing index, column<<32 | 1+position; 0 empty
	mem   []float64 // dense: the row's values; compact: nil, or all +0
	dense bool
	lent  *lease // counts the pulls writing mem; nil before the first
}

// shard is the rows × [lo, lo+width) block of one matrix a server holds.
type shard struct {
	lo, width int
	limit     int // more members than this turns a row dense
	rows      []row
}

// lease counts the range pulls still writing one row's memory to their
// sockets. A pull takes it under the server's mutex and drops it once its
// frame is written, without the mutex.
type lease struct{ n atomic.Int32 }

// newShard returns a rows × [lo,hi) shard, every row compact and empty.
func newShard(rows, lo, hi int) *shard {
	return &shard{lo: lo, width: hi - lo, limit: (hi - lo) / denseFraction, rows: make([]row, rows)}
}

// borrow leases dense row r's memory to a range pull: it stays as it is
// until the returned lease is dropped.
func (sh *shard) borrow(r int) *lease {
	x := &sh.rows[r]
	if x.lent == nil {
		x.lent = new(lease)
	}
	x.lent.n.Add(1)
	return x.lent
}

// leased reports whether pulls are still writing x's memory.
func (x *row) leased() bool { return x.lent != nil && x.lent.n.Load() > 0 }

// own makes dense row r's memory safe to write: memory that pulls are still
// writing out is copied, and the copy, unleased, becomes the row's. The
// pulls keep the old memory, which the collector frees once they drop it.
func (sh *shard) own(r int) {
	if x := &sh.rows[r]; x.leased() {
		mem := linalg.Zeros(sh.width)
		copy(mem, x.mem)
		x.mem, x.lent = mem, nil
	}
}

// spread turns row r dense and returns its memory, which the caller may
// write: a compact row is never leased, and its memory, if any, is +0.
func (sh *shard) spread(r int) []float64 {
	x := &sh.rows[r]
	if !x.dense {
		if x.mem == nil {
			x.mem = linalg.Zeros(sh.width)
		}
		for p, c := range x.cols {
			x.mem[c] = x.vals[p]
		}
		x.empty()
		x.dense = true
	}
	sh.own(r)
	return x.mem
}

// empty drops a compact row's members, keeping its memory for the next.
func (x *row) empty() {
	x.cols, x.vals = x.cols[:0], x.vals[:0]
	clear(x.slots)
}

// probe returns the slot of a non-empty index that holds column c, or the
// empty one where c would go, and what it holds: linear probing from c's
// Fibonacci hash.
func probe(slots []uint64, c int32) (int, uint64) {
	mask := len(slots) - 1
	for h := int(uint64(uint32(c))*0x9e3779b97f4a7c15>>32) & mask; ; h = (h + 1) & mask {
		if s := slots[h]; s == 0 || int32(s>>32) == c {
			return h, s
		}
	}
}

// find returns c's position in x's pairs, or -1 and the empty slot where c
// would go.
func (x *row) find(c int32) (pos, at int) {
	if len(x.slots) == 0 {
		return -1, 0
	}
	at, s := probe(x.slots, c)
	return int(uint32(s)) - 1, at
}

// member returns c's position in x's pairs, adding c at +0 if it is new.
func (x *row) member(c int32) int {
	p, at := x.find(c)
	if p >= 0 {
		return p
	}
	if 2*(len(x.cols)+1) > len(x.slots) {
		x.room()
		_, at = x.find(c)
	}
	x.slots[at] = uint64(c)<<32 | uint64(len(x.cols)+1)
	x.cols = append(x.cols, c)
	x.vals = append(x.vals, 0)
	return len(x.cols) - 1
}

// room doubles x's index and fills it afresh: callers keep it at most half
// full.
func (x *row) room() {
	x.slots = make([]uint64, max(16, 2*len(x.slots)))
	for i, c := range x.cols {
		h, _ := probe(x.slots, c)
		x.slots[h] = uint64(c)<<32 | uint64(i+1)
	}
}

// push adds vals[i] to local column cols[i]-lo of row r, in request order:
// the columns need be neither sorted nor distinct. A compact row that
// passes the limit midway takes the rest of the push dense.
func (sh *shard) push(r int, cols []int, vals []float64) {
	x := &sh.rows[r]
	i := 0
	if !x.dense {
		i = x.add(cols, vals, sh.lo, sh.limit)
		if len(x.cols) > sh.limit {
			sh.spread(r)
		}
	}
	if i < len(cols) {
		sh.own(r)
		for ; i < len(cols); i++ {
			x.mem[cols[i]-sh.lo] += vals[i]
		}
	}
}

// add adds vals[i] to local column cols[i]-lo of compact x, in order, until
// x has more than limit members, and returns how many it added. It is
// member's work for a whole push, on local copies of the pairs and index.
func (x *row) add(cols []int, vals []float64, lo, limit int) int {
	n, m := len(x.cols), min(len(cols), limit+1-len(x.cols))
	keys, vs := slices.Grow(x.cols, m)[:n+m], slices.Grow(x.vals, m)[:n+m]
	slots := x.slots
	i := 0
	for ; i < len(cols) && n <= limit; i++ {
		if 2*(n+1) > len(slots) {
			x.cols, x.vals = keys[:n], vs[:n]
			x.room()
			slots = x.slots
		}
		k := int32(cols[i] - lo)
		if h, s := probe(slots, k); s != 0 {
			vs[uint32(s)-1] += vals[i]
		} else {
			slots[h] = uint64(k)<<32 | uint64(n+1)
			keys[n], vs[n] = k, 0+vals[i]
			n++
		}
	}
	x.cols, x.vals = keys[:n], vs[:n]
	return i
}

// gather reads row r at local columns cols[i]-lo into vals[i].
func (sh *shard) gather(r int, cols []int, vals []float64) {
	x := &sh.rows[r]
	for i, c := range cols {
		c -= sh.lo
		if x.dense {
			vals[i] = x.mem[c]
		} else if p, _ := x.find(int32(c)); p >= 0 {
			vals[i] = x.vals[p]
		} else {
			vals[i] = 0
		}
	}
}

// sorted returns compact x's pairs in column order, as keys
// column<<32 | position built in *keys.
func (x *row) sorted(keys *[]uint64) []uint64 {
	ks := (*keys)[:0]
	for p, c := range x.cols {
		ks = append(ks, uint64(c)<<32|uint64(p))
	}
	slices.Sort(ks)
	*keys = ks
	return ks
}

// axpyPiece is how many columns of a compact src axpy spreads at a time
// when the dense kernel has to run over the whole of dst.
const axpyPiece = 4096

// finite reports whether alpha·(+0) is a zero rather than NaN.
func finite(alpha float64) bool { return !math.IsInf(alpha, 0) && !math.IsNaN(alpha) }

// axpy runs row dst += alpha·row src. At a non-member of src the term is
// alpha·(+0), a zero when alpha is finite: -0 (sign bit set) leaves every
// value as it was, while +0 turns a -0 into +0, so with alpha's sign bit
// clear dst's members are visited as well. A compact src's pairs are
// scattered into a dense dst, or merged into a compact one.
func (sh *shard) axpy(alpha float64, src, dst int) {
	x, y := &sh.rows[src], &sh.rows[dst]
	plus := !math.Signbit(alpha)
	switch {
	case x.dense || !finite(alpha) || (plus && y.dense):
		mem := sh.spread(dst)
		if x.dense { // also when src == dst
			linalg.Axpy(alpha, x.mem, mem)
			return
		}
		// The kernel itself, over src spread a piece at a time in column
		// order, so that a NaN alpha meeting a NaN in dst leaves the NaN
		// the kernel keeps.
		var keys []uint64
		ks, p := x.sorted(&keys), 0
		piece := make([]float64, min(len(mem), axpyPiece))
		for lo := 0; lo < len(mem); lo += len(piece) {
			piece = piece[:min(len(piece), len(mem)-lo)]
			clear(piece)
			for ; p < len(ks) && int(ks[p]>>32) < lo+len(piece); p++ {
				piece[int(ks[p]>>32)-lo] = x.vals[uint32(ks[p])]
			}
			linalg.Axpy(alpha, piece, mem[lo:lo+len(piece)])
		}
	case y.dense:
		sh.own(dst)
		for p, c := range x.cols {
			y.mem[c] += alpha * x.vals[p]
		}
	case src == dst:
		for p := range y.vals {
			y.vals[p] += alpha * y.vals[p]
		}
	default:
		sh.mergeAxpy(alpha, plus, x, y)
		if len(y.cols) > sh.limit {
			sh.spread(dst)
		}
	}
}

// mergeAxpy runs compact y += alpha·x for a compact x ≠ y and a finite
// alpha: x's members that y lacks become y's, and with alpha's sign bit
// clear y's other members get alpha·(+0) added.
func (sh *shard) mergeAxpy(alpha float64, plus bool, x, y *row) {
	k := len(y.cols)
	for p, c := range x.cols {
		q := y.member(c)
		y.vals[q] += alpha * x.vals[p]
	}
	if plus {
		z := alpha * 0
		for p, c := range y.cols[:k] {
			if q, _ := x.find(c); q < 0 {
				y.vals[p] += z
			}
		}
	}
}

// zero sets row r to +0 and makes it compact and empty. A dense row keeps
// its memory, filled with +0, unless pulls are writing it: then the row
// lets go of it and gets fresh memory when it next turns dense.
func (sh *shard) zero(r int) {
	x := &sh.rows[r]
	if x.dense {
		if x.leased() {
			x.mem, x.lent = nil, nil
		} else {
			linalg.Fill(x.mem, 0)
		}
	}
	x.empty()
	x.dense = false
}

// scale runs row r *= alpha. (+0)·alpha is +0 again only for a finite
// alpha with its sign bit clear; any other alpha runs the dense kernel.
func (sh *shard) scale(alpha float64, r int) {
	x := &sh.rows[r]
	if x.dense || !finite(alpha) || math.Signbit(alpha) {
		linalg.Scale(alpha, sh.spread(r))
		return
	}
	for p := range x.vals {
		x.vals[p] *= alpha
	}
}
