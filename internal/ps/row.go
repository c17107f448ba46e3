package ps

// A shard's rows. PS2's LR pushes a few hundred gradient columns into one
// row of a shard, then runs axpy(grad → w) and zero(grad) over the shard
// (paper §4, DCV operators), and a model millions of columns wide is touched
// in few of them. So a row takes one of two forms:
//
//   - compact: its members, the local columns a push (or an axpy from a
//     member) has written since the row's last zero, as (column, value)
//     pairs in the order they joined, found through an open-addressing
//     index. Every other column holds +0 exactly, and nothing as long as
//     the row's width is held. A new row is compact and empty.
//   - dense: every column, in width-long memory.
//
// An element-wise op whose result outside the members is +0 again only has
// to visit the pairs. Element-wise ops have no reduction order, so the
// result is bit-identical to the dense linalg kernels, which stay as the
// other branch: an op whose result outside the members could be anything
// but +0 runs the kernel over the whole row and turns the row dense, and so
// does every handler that takes the row's dense view (Dense). (Where two
// NaNs meet, which one a sum keeps is the compiled code's choice, the
// kernels' own included, so a NaN's payload is not promised.) A row also
// turns dense once its members pass 1/denseFraction of the width, and stays
// so until its next zero, which fills its memory with +0 and makes it
// compact again; the memory is kept for the next time it turns dense.
//
// A row's dense memory may be lent (Lend) to a reader that writes it out
// after the shard's lock is released, as wire.Server's range pulls do, so a
// row may be on lease while another request writes to it. Every write to a
// dense row's memory therefore calls own first: a leased row is copied once,
// the copy becomes the row's memory, and the readers keep the row exactly as
// it was when they borrowed it. Zeroing a leased row lets go of its memory
// instead, so a compact row's memory is never on lease.

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/linalg"
)

// denseFraction sets when the compact form stops paying: a row with more
// than width/denseFraction members turns dense.
const denseFraction = 16

// Form is how one row is stored: what Shard.Form reports to a caller that
// holds the shard's lock and writes none of it.
type Form struct {
	Cols  []int32   // compact: the members' local columns, in joining order
	Vals  []float64 // compact: their values, aligned with Cols
	Mem   []float64 // dense: the row's values; compact: nil, or all +0
	Dense bool
	Lent  *Lease // counts the readers of Mem; nil before the first
}

// Lease counts the readers still writing one row's memory out. A reader
// takes it under the shard's lock (Lend) and drops it (Add(-1)) once done,
// without the lock.
type Lease struct{ atomic.Int32 }

// row is one shard row. Its header is small, because a matrix of short
// rows (DeepWalk's has two per vertex) has one per row on every shard.
type row struct {
	mem   []float64 // dense: the row's values; compact: nil, or all +0
	dense bool
	s     *side // nil until the row first holds a member or is lent
}

// side is what a row holds besides its memory: a compact row's pairs and
// index, and the lease on its memory.
type side struct {
	cols  []int32   // compact: the members' local columns, in joining order
	vals  []float64 // compact: their values, aligned with cols
	slots []uint64  // compact: open-addressing index, column<<32 | 1+position; 0 empty
	lent  *Lease    // counts the readers of mem; nil before the first
}

// side returns x's side, allocating it on first use.
func (x *row) side() *side {
	if x.s == nil {
		x.s = new(side)
	}
	return x.s
}

// Form returns row r as it is stored, aliasing the row.
func (sh *Shard) Form(r int) Form {
	x := &sh.rows[r]
	f := Form{Mem: x.mem, Dense: x.dense}
	if x.s != nil {
		f.Cols, f.Vals, f.Lent = x.s.cols, x.s.vals, x.s.lent
	}
	return f
}

// Sorted returns a compact row's pairs in column order, as keys
// column<<32 | position built in *keys.
func (f Form) Sorted(keys *[]uint64) []uint64 {
	ks := (*keys)[:0]
	for p, c := range f.Cols {
		ks = append(ks, uint64(c)<<32|uint64(p))
	}
	slices.Sort(ks)
	*keys = ks
	return ks
}

// leased reports whether readers are still writing x's memory.
func (x *row) leased() bool { return x.s != nil && x.s.lent != nil && x.s.lent.Load() > 0 }

// Lend turns row r dense and lends its memory until the returned lease is
// dropped: the memory stays as it is, because every later write to the row
// copies it first. Readers of one row share its memory.
func (sh *Shard) Lend(r int) ([]float64, *Lease) {
	x := &sh.rows[r]
	if !x.dense {
		sh.Dense(r)
	}
	s := x.side()
	if s.lent == nil {
		s.lent = new(Lease)
	}
	s.lent.Add(1)
	return x.mem, s.lent
}

// own makes dense row r's memory safe to write: memory that readers are
// still writing out is copied, and the copy, unleased, becomes the row's.
// The readers keep the old memory, which the collector frees once they drop
// it.
func (sh *Shard) own(r int) {
	if x := &sh.rows[r]; x.leased() {
		mem := linalg.Zeros(sh.Width())
		copy(mem, x.mem)
		x.mem, x.s.lent = mem, nil
	}
}

// Dense turns row r dense and returns its memory, in the shard's local
// column order, for a dense kernel to read or write. Its first call on a
// row allocates the width-long memory.
func (sh *Shard) Dense(r int) []float64 {
	if x := sh.rows[r]; x.dense && x.s == nil {
		return x.mem // never compact with members, nor lent
	}
	return sh.spread(r)
}

// spread is Dense for a row that may hold members or be on lease.
func (sh *Shard) spread(r int) []float64 {
	x := &sh.rows[r]
	if !x.dense {
		if x.mem == nil {
			x.mem = linalg.Zeros(sh.Width())
		}
		f := sh.Form(r)
		for p, c := range f.Cols {
			x.mem[c] = f.Vals[p]
		}
		x.empty()
		x.dense = true
	}
	sh.own(r)
	return x.mem
}

// empty drops a compact row's members, keeping its memory for the next.
func (x *row) empty() {
	if s := x.s; s != nil {
		s.cols, s.vals = s.cols[:0], s.vals[:0]
		clear(s.slots)
	}
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

// find returns c's position in s's pairs, or -1 and the empty slot where c
// would go. A nil side has no pairs.
func (s *side) find(c int32) (pos, at int) {
	if s == nil || len(s.slots) == 0 {
		return -1, 0
	}
	at, v := probe(s.slots, c)
	return int(uint32(v)) - 1, at
}

// member returns c's position in s's pairs, adding c at +0 if it is new.
func (s *side) member(c int32) int {
	p, at := s.find(c)
	if p >= 0 {
		return p
	}
	if 2*(len(s.cols)+1) > len(s.slots) {
		s.room()
		_, at = s.find(c)
	}
	s.slots[at] = uint64(c)<<32 | uint64(len(s.cols)+1)
	s.cols = append(s.cols, c)
	s.vals = append(s.vals, 0)
	return len(s.cols) - 1
}

// room doubles s's index and fills it afresh: callers keep it at most half
// full.
func (s *side) room() {
	s.slots = make([]uint64, max(16, 2*len(s.slots)))
	for i, c := range s.cols {
		h, _ := probe(s.slots, c)
		s.slots[h] = uint64(c)<<32 | uint64(i+1)
	}
}

// Add adds vals[i] to column cols[i] of row r, in order: the columns, which
// the shard must own, need be neither sorted nor distinct. A compact row
// that passes the dense limit midway takes the rest of the push dense.
func (sh *Shard) Add(r int, cols []int, vals []float64) {
	lo, run := sh.locate(cols)
	x := &sh.rows[r]
	i := 0
	if !x.dense {
		limit := sh.Width() / denseFraction
		s := x.side()
		i = s.add(run, vals, lo, limit)
		if len(s.cols) > limit {
			sh.Dense(r)
		}
	}
	if i < len(run) {
		sh.own(r)
		for mem := x.mem; i < len(run); i++ {
			mem[run[i]-lo] += vals[i]
		}
	}
}

// add adds vals[i] to local column cols[i]-lo of compact s, in order, until
// s has more than limit members, and returns how many it added. It is
// member's work for a whole push, on local copies of the pairs and index.
func (s *side) add(cols []int, vals []float64, lo, limit int) int {
	n, m := len(s.cols), min(len(cols), limit+1-len(s.cols))
	keys, vs := slices.Grow(s.cols, m)[:n+m], slices.Grow(s.vals, m)[:n+m]
	slots := s.slots
	i := 0
	for ; i < len(cols) && n <= limit; i++ {
		if 2*(n+1) > len(slots) {
			s.cols, s.vals = keys[:n], vs[:n]
			s.room()
			slots = s.slots
		}
		k := int32(cols[i] - lo)
		if h, v := probe(slots, k); v != 0 {
			vs[uint32(v)-1] += vals[i]
		} else {
			slots[h] = uint64(k)<<32 | uint64(n+1)
			keys[n], vs[n] = k, 0+vals[i]
			n++
		}
	}
	s.cols, s.vals = keys[:n], vs[:n]
	return i
}

// Get reads row r at columns cols, which the shard must own, into out[i].
func (sh *Shard) Get(r int, cols []int, out []float64) {
	lo, run := sh.locate(cols)
	x := &sh.rows[r]
	if x.dense {
		for i, c := range run {
			out[i] = x.mem[c-lo]
		}
		return
	}
	for i, c := range run {
		if p, _ := x.s.find(int32(c - lo)); p >= 0 {
			out[i] = x.s.vals[p]
		} else {
			out[i] = 0
		}
	}
}

// at returns row r's value at local column l.
func (sh *Shard) at(r, l int) float64 {
	x := &sh.rows[r]
	if x.dense {
		return x.mem[l]
	}
	if p, _ := x.s.find(int32(l)); p >= 0 {
		return x.s.vals[p]
	}
	return 0
}

// ReadRow writes row r into its columns of the full-dimension vector full,
// leaving the row's form as it is. A compact row of a contiguous shard is
// spread in place.
func (sh *Shard) ReadRow(r int, full []float64) {
	var scratch []float64
	if sh.off == nil {
		scratch = full[sh.view.Lo:sh.view.Hi]
	}
	sh.view.Scatter(sh.values(r, &scratch), full)
}

// values returns row r in local column order, leaving its form as it is: a
// dense row's own memory, which the caller must not write, or a compact
// row's pairs spread over *scratch, allocated on first use.
func (sh *Shard) values(r int, scratch *[]float64) []float64 {
	x := &sh.rows[r]
	if x.dense {
		return x.mem
	}
	if *scratch == nil {
		*scratch = make([]float64, sh.Width())
	}
	v, f := *scratch, sh.Form(r)
	clear(v)
	for p, c := range f.Cols {
		v[c] = f.Vals[p]
	}
	return v
}

// clone returns a copy of x that shares no memory with it, and no lease.
func (x *row) clone() row {
	c := row{mem: slices.Clone(x.mem), dense: x.dense}
	if s := x.s; s != nil {
		c.s = &side{cols: slices.Clone(s.cols), vals: slices.Clone(s.vals), slots: slices.Clone(s.slots)}
	}
	return c
}

// axpyPiece is how many columns of a compact src Axpy spreads at a time
// when the dense kernel has to run over the whole of dst.
const axpyPiece = 4096

// finite reports whether alpha·(+0) is a zero rather than NaN.
func finite(alpha float64) bool { return !math.IsInf(alpha, 0) && !math.IsNaN(alpha) }

// Axpy runs row dst += alpha·row src. At a non-member of src the term is
// alpha·(+0), a zero when alpha is finite: -0 (sign bit set) leaves every
// value as it was, while +0 turns a -0 into +0, so with alpha's sign bit
// clear dst's members are visited as well. A compact src's pairs are
// scattered into a dense dst, or merged into a compact one.
func (sh *Shard) Axpy(alpha float64, src, dst int) {
	x, y := &sh.rows[src], &sh.rows[dst]
	plus := !math.Signbit(alpha)
	switch {
	case x.dense || !finite(alpha) || (plus && y.dense):
		mem := sh.Dense(dst)
		if x.dense { // also when src == dst
			linalg.Axpy(alpha, x.mem, mem)
			return
		}
		// The kernel itself, over src spread a piece at a time in column
		// order, so that a NaN alpha meeting a NaN in dst leaves the NaN
		// the kernel keeps.
		var keys []uint64
		f := sh.Form(src)
		ks, p := f.Sorted(&keys), 0
		piece := make([]float64, min(len(mem), axpyPiece))
		for lo := 0; lo < len(mem); lo += len(piece) {
			piece = piece[:min(len(piece), len(mem)-lo)]
			clear(piece)
			for ; p < len(ks) && int(ks[p]>>32) < lo+len(piece); p++ {
				piece[int(ks[p]>>32)-lo] = f.Vals[uint32(ks[p])]
			}
			linalg.Axpy(alpha, piece, mem[lo:lo+len(piece)])
		}
	case y.dense:
		sh.own(dst)
		f := sh.Form(src)
		for p, c := range f.Cols {
			y.mem[c] += alpha * f.Vals[p]
		}
	case src == dst:
		vals := sh.Form(dst).Vals
		for p := range vals {
			vals[p] += alpha * vals[p]
		}
	default:
		ys := y.side()
		mergeAxpy(alpha, plus, x.s, ys)
		if len(ys.cols) > sh.Width()/denseFraction {
			sh.Dense(dst)
		}
	}
}

// mergeAxpy runs compact y += alpha·x for a compact x ≠ y and a finite
// alpha: x's members that y lacks become y's, and with alpha's sign bit
// clear y's other members get alpha·(+0) added. A nil x has no members.
func mergeAxpy(alpha float64, plus bool, x, y *side) {
	k := len(y.cols)
	if x != nil {
		for p, c := range x.cols {
			q := y.member(c)
			y.vals[q] += alpha * x.vals[p]
		}
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

// Zero sets row r to +0 and makes it compact and empty. A dense row keeps
// its memory, filled with +0, unless it is on lease: then the row lets go
// of it and gets fresh memory when it next turns dense.
func (sh *Shard) Zero(r int) {
	x := &sh.rows[r]
	if x.dense {
		if x.leased() {
			x.mem, x.s.lent = nil, nil
		} else {
			linalg.Fill(x.mem, 0)
		}
	}
	x.empty()
	x.dense = false
}

// Scale runs row r *= alpha. (+0)·alpha is +0 again only for a finite
// alpha with its sign bit clear; any other alpha runs the dense kernel.
func (sh *Shard) Scale(alpha float64, r int) {
	x := &sh.rows[r]
	if x.dense || !finite(alpha) || math.Signbit(alpha) {
		linalg.Scale(alpha, sh.Dense(r))
		return
	}
	vals := sh.Form(r).Vals
	for p := range vals {
		vals[p] *= alpha
	}
}
