package wire

// The fused executor's sparse path. PS2's LR pushes a few hundred gradient
// columns into one row of a shard, then runs axpy(grad → w) and zero(grad)
// over the shard (paper §4, DCV operators). Over a shard millions of columns
// wide, those two steps would stream every column for the few a push made
// non-zero. So the server keeps, per shard row, a support: the local columns
// that may hold a non-zero value, with the invariant
//
//	every column outside the support holds +0 exactly.
//
// An element-wise op whose result outside the support is +0 again then only
// has to visit the support. Element-wise ops have no reduction order, so the
// result is bit-identical to the dense linalg kernels, which stay as the
// fallback branch: an op whose result outside the support could be anything
// but +0 runs the kernel over the whole row and marks the row dense (its
// support is every column). A row is also dense once its support passes
// 1/denseFraction of the width, and stays so until its next zero.
//
// A range pull of a row with a tracked support answers with its members,
// read off the bitmap under the server's mutex. A range pull of a dense row
// is written from the row's own memory, outside the mutex (server.go), so
// a row may be on lease while another connection writes to it. Every
// mutating path therefore calls own first: a leased row is copied once, the
// copy becomes the shard's row, and the pulls keep writing the row exactly
// as it was when they were handled.

import (
	"math"
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/ps"
)

// denseFraction sets when tracking stops paying: a row whose support holds
// more than width/denseFraction columns is treated as dense.
const denseFraction = 16

// support is one row's set of possibly non-zero local columns.
type support struct {
	cols  []int    // members in insertion order; capacity reused across zeros
	words []uint64 // membership bitmap: bit c%64 of word c/64
	limit int      // more members than this turns the row dense
	dense bool     // every column may be non-zero; cols and words are stale
}

func (s *support) has(c int) bool { return s.words[c>>6]&(1<<(c&63)) != 0 }

// add records that local columns c-lo, for c in cols, may now be non-zero.
// It works on local copies of the list and bitmap in one tight loop: a push
// of thousands of columns would otherwise pay for the support as much as
// for the push.
func (s *support) add(cols []int, lo int) {
	if s.dense {
		return
	}
	words, list := s.words, s.cols
	for _, c := range cols {
		c -= lo
		if bit := uint64(1) << (c & 63); words[c>>6]&bit == 0 {
			words[c>>6] |= bit
			list = append(list, c)
		}
	}
	s.cols, s.dense = list, len(list) > s.limit
}

// shard is a ps.Shard with the support and the lease of each of its rows.
type shard struct {
	*ps.Shard
	sup  []support
	lent []*lease // lent[r] counts the pulls writing Rows[r]; nil before the first
}

// lease counts the range pulls still writing one row's memory to their
// sockets. A pull takes it under the server's mutex and drops it once its
// frame is written, without the mutex.
type lease struct{ n atomic.Int32 }

// newShard allocates a rows × [lo,hi) shard; every row starts all +0, so
// every support starts empty.
func newShard(rows, lo, hi int) *shard {
	sh := &shard{Shard: ps.NewShard(rows, ps.ColView{Lo: lo, Hi: hi}), sup: make([]support, rows), lent: make([]*lease, rows)}
	for r := range sh.sup {
		sh.sup[r] = support{words: make([]uint64, (hi-lo+63)/64), limit: (hi - lo) / denseFraction}
	}
	return sh
}

// borrow leases Rows[r] to a range pull: the row's memory stays as it is
// until the returned lease is dropped.
func (sh *shard) borrow(r int) *lease {
	l := sh.lent[r]
	if l == nil {
		l = new(lease)
		sh.lent[r] = l
	}
	l.n.Add(1)
	return l
}

// own makes Rows[r] safe to write: a row that pulls are still writing out is
// copied, and the copy, unleased, becomes the shard's row. The pulls keep
// the old memory, which the collector frees once they drop it.
func (sh *shard) own(r int) {
	if l := sh.lent[r]; l != nil && l.n.Load() > 0 {
		row := linalg.Zeros(len(sh.Rows[r]))
		copy(row, sh.Rows[r])
		sh.Rows[r], sh.lent[r] = row, nil
	}
}

// finite reports whether alpha·(+0) is a zero rather than NaN.
func finite(alpha float64) bool { return !math.IsInf(alpha, 0) && !math.IsNaN(alpha) }

// axpy runs Rows[dst] += alpha·Rows[src]. Outside src's support the term is
// alpha·(+0), a zero when alpha is finite: -0 (sign bit set) leaves every
// value as it was, while +0 turns a -0 into +0, so with alpha's sign bit
// clear dst's support is visited as well. Every column is updated once: the
// dst pass skips src's members, which covers src == dst.
func (sh *shard) axpy(alpha float64, src, dst int) {
	sh.own(dst)
	x, y := sh.Rows[src], sh.Rows[dst]
	xs, ys := &sh.sup[src], &sh.sup[dst]
	plus := !math.Signbit(alpha)
	if xs.dense || !finite(alpha) || (plus && ys.dense) {
		linalg.Axpy(alpha, x, y)
		ys.dense = true
		return
	}
	for _, c := range xs.cols {
		y[c] += alpha * x[c]
	}
	if plus {
		for _, c := range ys.cols {
			if !xs.has(c) {
				y[c] += alpha * x[c]
			}
		}
	}
	ys.add(xs.cols, 0)
}

// zero sets Rows[r] to +0 and empties its support.
func (sh *shard) zero(r int) {
	sh.own(r)
	row, s := sh.Rows[r], &sh.sup[r]
	if s.dense {
		linalg.Fill(row, 0)
		clear(s.words)
	} else {
		for _, c := range s.cols {
			row[c] = 0
			s.words[c>>6] = 0
		}
	}
	s.cols, s.dense = s.cols[:0], false
}

// scale runs Rows[r] *= alpha. (+0)·alpha is +0 again only for a finite
// alpha with its sign bit clear; any other alpha runs the dense kernel.
func (sh *shard) scale(alpha float64, r int) {
	sh.own(r)
	row, s := sh.Rows[r], &sh.sup[r]
	if s.dense || !finite(alpha) || math.Signbit(alpha) {
		linalg.Scale(alpha, row)
		s.dense = true
		return
	}
	for _, c := range s.cols {
		row[c] *= alpha
	}
}
