package lr

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/data"
)

// BatchIndex is a mini-batch's sparse layout: Indices, the sorted distinct
// features its rows touch (the list a sparse pull fetches), and for every
// feature entry of every row that feature's slot in Indices. Weights and
// gradients then travel as slices aligned with Indices, so the per-entry work
// of a gradient pass is a slice load instead of a map probe.
//
// Build marks the batch's features in a bitmap sized from its largest index
// and ranks each entry with one prefix count per 64 columns plus a popcount:
// no map, no comparison sort and no model dimension. A warm index rebuilds
// and runs Gradient without allocating; the PS2 gradient task keeps one per
// partition across iterations (Scratch), and ps2worker two that take turns.
type BatchIndex struct {
	Indices []int

	slots []int32 // entry e's slot in Indices, the rows' entries concatenated in order

	z       []float64 // per row: the margin w·x of the last Gradient
	partial bool      // some row of the last Gradient wrote nothing
	live    []bool    // per slot, when partial: some contributing row wrote it
	keys    []int     // Sparse's compacted entries, when partial
	vals    []float64
}

// bitmap is Build's scratch. Bit c of words is set iff feature c is in the
// batch, bit k of summary iff words[k] is nonzero, and for each such k
// rank[k] counts the set bits of words[:k]. The summary keeps Build's scan
// proportional to the 64-column words the batch touches rather than to its
// largest index, so a small batch over a wide model stays cheap. Build leaves
// words and summary zero, so the pool lends them out ready to use; pooling
// spares an index built once per task from allocating words as wide as the
// model.
type bitmap struct {
	words, summary []uint64
	rank           []int32
}

var bitmaps = sync.Pool{New: func() any { return new(bitmap) }}

// Build indexes rows, replacing the previous batch. Each row's features are
// strictly increasing, so a short first pass reads only each row's header:
// the batch's largest index from each row's last, and its entry count. One
// pass over the entries then marks each column and writes it into slots, and
// the last ranks slots in place, reading them in order instead of the rows
// again.
func (b *BatchIndex) Build(rows []data.Instance) {
	top, nnz := -1, 0
	for _, inst := range rows {
		if idx := inst.Features.Indices; len(idx) > 0 {
			top = max(top, idx[len(idx)-1])
			nnz += len(idx)
		}
	}
	if top > math.MaxInt32 {
		panic(fmt.Sprintf("lr: feature index %d does not fit a slot", top))
	}
	m := bitmaps.Get().(*bitmap)
	if n := top>>6 + 1; len(m.words) < n {
		m.words, m.rank, m.summary = make([]uint64, n), make([]int32, n), make([]uint64, n>>6+1)
	}
	b.slots = fit(b.slots, nnz)
	e := 0
	for _, inst := range rows {
		for _, c := range inst.Features.Indices {
			k := c >> 6
			m.words[k] |= 1 << (uint(c) & 63)
			m.summary[k>>6] |= 1 << (uint(k) & 63)
			b.slots[e] = int32(c)
			e++
		}
	}
	summary := m.summary[:top>>12+1]
	b.Indices = fit(b.Indices, nnz)[:0]
	for j, s := range summary {
		for ; s != 0; s &= s - 1 {
			k := j<<6 | bits.TrailingZeros64(s)
			m.rank[k] = int32(len(b.Indices))
			for w := m.words[k]; w != 0; w &= w - 1 {
				b.Indices = append(b.Indices, k<<6|bits.TrailingZeros64(w))
			}
		}
	}
	for e, c := range b.slots {
		below := m.words[c>>6] & (1<<(uint(c)&63) - 1)
		b.slots[e] = m.rank[c>>6] + int32(bits.OnesCount64(below))
	}
	for _, c := range b.Indices {
		m.words[c>>6] = 0
	}
	clear(summary)
	bitmaps.Put(m)
}

// margins sets z[r] to row r's w·x, reading the weights from w aligned with
// Indices and summing in entry order. A first pass touches each row's first
// and last value, storing into z what the sums then overwrite: those loads do
// not wait on one another, so the rows' cache misses overlap instead of each
// stalling its row's sum.
func (b *BatchIndex) margins(rows []data.Instance, w, z []float64) {
	for r, inst := range rows {
		if v := inst.Features.Values; len(v) > 0 {
			z[r] = v[0] + v[len(v)-1]
		}
	}
	e := 0
	for r, inst := range rows {
		fv := inst.Features
		s := b.slots[e : e+len(fv.Indices)]
		e += len(s)
		var dot float64
		for k, slot := range s {
			dot += fv.Values[k] * w[slot]
		}
		z[r] = dot
	}
}

// Loss returns the mean loss over rows at the weights w, aligned with
// Indices: EvalLoss of the dense vector that holds w at Indices and 0
// elsewhere, bit for bit (each margin sums the same products in the same
// order, and the losses add in row order), with nothing as wide as the
// model. rows must be the rows the index was built from.
func (b *BatchIndex) Loss(obj Objective, rows []data.Instance, w []float64) float64 {
	if len(rows) == 0 {
		return math.NaN()
	}
	b.z = fit(b.z, len(rows))
	b.margins(rows, w, b.z)
	var total float64
	for r, inst := range rows {
		loss, _, _ := obj.Loss(b.z[r], inst.Label)
		total += loss
	}
	return total / float64(len(rows))
}

// Gradient sets grad, aligned with Indices, to the batch's loss gradient at
// the weights w (also aligned with Indices) and returns the batch's loss sum.
// rows must be the rows the index was built from. Contributions add in row
// order, then entry order. A hinge row past the margin adds nothing; Sparse
// then leaves out the features only such rows touch.
func (b *BatchIndex) Gradient(obj Objective, rows []data.Instance, w, grad []float64) (lossSum float64) {
	b.z = fit(b.z, len(rows))
	b.margins(rows, w, b.z)
	grad = grad[:len(b.Indices)]
	clear(grad)
	b.partial = false
	e := 0
	for r, inst := range rows {
		fv := inst.Features
		s := b.slots[e : e+len(fv.Indices)]
		e += len(s)
		loss, dz, active := obj.Loss(b.z[r], inst.Label)
		if !active {
			b.partial = true
			continue
		}
		lossSum += loss
		for k, slot := range s {
			grad[slot] += dz * fv.Values[k]
		}
	}
	if b.partial {
		b.live = fit(b.live, len(b.Indices))
		clear(b.live)
		e = 0
		for r, inst := range rows {
			s := b.slots[e : e+len(inst.Features.Indices)]
			e += len(s)
			if _, _, active := obj.Loss(b.z[r], inst.Label); active {
				for _, slot := range s {
					b.live[slot] = true
				}
			}
		}
	}
	return lossSum
}

// Sparse returns the last Gradient's entries, sorted by feature: every slot
// some contributing row wrote. When every row contributed that is Indices and
// grad themselves; otherwise the entries are copied into scratch the index
// owns until its next Sparse.
func (b *BatchIndex) Sparse(grad []float64) (indices []int, values []float64) {
	if !b.partial {
		return b.Indices, grad[:len(b.Indices)]
	}
	b.keys, b.vals = b.keys[:0], b.vals[:0]
	for slot, ok := range b.live {
		if ok {
			b.keys = append(b.keys, b.Indices[slot])
			b.vals = append(b.vals, grad[slot])
		}
	}
	return b.keys, b.vals
}

// fit returns buf resized to n, reallocating only when its capacity is short,
// and then with a quarter to spare: a scratch buffer that batches of varying
// size reuse settles after a few of them.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
}
