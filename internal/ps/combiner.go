package ps

// PushBuffer is the write-combining half of the worker-side cache layer: it
// locally aggregates sparse (PushAdd-shaped) and dense (PushRowsDelta-shaped)
// deltas across a mini-batch and flushes ONE coalesced message per server at
// the clock tick. Accumulation is pure host work — deltas to the same
// element merge by addition before ever touching the wire — so n pushes into
// a hot row cost one request framing per server instead of n.
//
// Flush issues one call per server with Mutates set, as the plain operators
// do, so each per-server flush carries a dedup request ID: a flush retried
// through message loss or a server crash re-applies exactly once per server
// incarnation, never double-applying a delta. The buffered deltas are
// snapshotted when Flush starts; Adds issued while a flush is in flight land
// in the next batch.
//
// Semantics: combining defers when deltas become visible (at flush, not at
// Add) and changes the order contributions to one element are summed in, so
// it is an opt-in for the trainers (CacheConfig.CombinePushes) — the
// staleness-0 bit-identity guarantee of the pull cache applies to runs with
// combining off. Callers that need read-your-writes before the flush (the
// embedding trainer does) merge pending deltas into pulled values with
// ApplyPending.

import (
	"math"
	"sort"

	"repro/internal/linalg"
	"repro/internal/simnet"
)

// PushBuffer accumulates deltas against one matrix for one worker. Not safe
// for use from multiple executor machines — make one per worker/executor,
// like the per-machine cache.
type PushBuffer struct {
	mat    *Matrix
	cc     *CachedClient           // owning cached client, when made by one
	sparse map[int]map[int]float64 // row → col → pending delta
	dense  map[int][]float64       // row → pending full-dim delta

	adds     uint64  // deltas absorbed since the last flush
	baseline float64 // wire bytes the unbuffered pushes would have paid
}

// NewPushBuffer returns an empty write-combining buffer for mat.
func NewPushBuffer(mat *Matrix) *PushBuffer {
	return &PushBuffer{mat: mat, sparse: map[int]map[int]float64{}, dense: map[int][]float64{}}
}

// NewPushBuffer returns a buffer for the cached client's matrix; its
// counters land in the same master-wide CacheStats.
func (cc *CachedClient) NewPushBuffer() *PushBuffer {
	b := NewPushBuffer(cc.mat)
	b.cc = cc
	return b
}

// Add absorbs one sparse delta into the buffer — the combining form of
// PushAdd. It validates like the wire operator but costs nothing until
// Flush.
func (b *PushBuffer) Add(row int, delta *linalg.SparseVector) error {
	b.mat.checkRow(row)
	if err := validateIndices(delta.Indices, b.mat.Dim); err != nil {
		return err
	}
	cost := b.mat.master.Cl.Cost
	r := b.sparse[row]
	if r == nil {
		r = map[int]float64{}
		b.sparse[row] = r
	}
	for i, col := range delta.Indices {
		r[col] += delta.Values[i]
	}
	// What PushAdd would have put on the wire for this delta.
	for _, idx := range b.mat.Part.SplitIndices(delta.Indices) {
		if len(idx) > 0 {
			b.baseline += cost.SparseBytes(len(idx)) + cost.RequestOverheadB
		}
	}
	b.adds++
	return nil
}

// AddRowsDelta absorbs one dense multi-row delta — the combining form of
// PushRowsDelta (deltas[i] spans the full dimension, aligned with rows[i]).
func (b *PushBuffer) AddRowsDelta(rows []int, deltas [][]float64) {
	if len(rows) != len(deltas) {
		panic("ps: PushBuffer.AddRowsDelta rows/deltas length mismatch")
	}
	cost := b.mat.master.Cl.Cost
	for i, row := range rows {
		b.mat.checkRow(row)
		d := deltas[i]
		if len(d) != b.mat.Dim {
			panic("ps: PushBuffer.AddRowsDelta delta has wrong dimension")
		}
		acc := b.dense[row]
		if acc == nil {
			acc = make([]float64, b.mat.Dim)
			b.dense[row] = acc
		}
		for c, v := range d {
			acc[c] += v
		}
		b.adds++
	}
	// What PushRowsDelta would have paid: per server, framing + row ids +
	// its width of every row, plus the ack.
	for s := 0; s < b.mat.Part.NumServers(); s++ {
		b.baseline += 2*cost.RequestOverheadB + 4*float64(len(rows)) + 8*float64(len(rows)*b.mat.Part.Width(s))
	}
}

// ApplyPending adds the buffered deltas for the given rows into vecs (full
// dimension, aligned with rows) — read-your-writes for callers that pull
// rows they have pending updates against.
func (b *PushBuffer) ApplyPending(rows []int, vecs [][]float64) {
	for i, row := range rows {
		if d, ok := b.dense[row]; ok {
			v := vecs[i]
			for c, x := range d {
				v[c] += x
			}
		}
		if r, ok := b.sparse[row]; ok {
			v := vecs[i]
			cols := sortedKeys(r)
			for _, col := range cols {
				v[col] += r[col]
			}
		}
	}
}

// Pending returns the number of rows with buffered deltas.
func (b *PushBuffer) Pending() int { return len(b.sparse) + len(b.dense) }

// Flush ships every buffered delta as one coalesced request per server
// that has any, applying dense then sparse deltas in sorted row/column order
// (deterministic regardless of accumulation order). Returns the first
// shard's error when a server stays unreachable; the buffer is cleared
// either way — retries happen inside each server's call, and each is
// dedup'd, so no delta can be double-applied.
func (b *PushBuffer) Flush(p *simnet.Proc, from *simnet.Node) error {
	if len(b.sparse) == 0 && len(b.dense) == 0 {
		return nil
	}
	b.mat.enterOp(p)
	defer b.mat.exitOp()
	m := b.mat.master
	cost := m.Cl.Cost
	// Snapshot and reset: Adds during the flush start the next batch.
	sparse, dense := b.sparse, b.dense
	b.sparse, b.dense = map[int]map[int]float64{}, map[int][]float64{}
	m.Cache.CombinedPushes += b.adds
	m.Cache.FlushBaselineBytes += b.baseline
	b.adds, b.baseline = 0, 0
	if b.cc != nil && b.cc.deltas {
		b.creditFlush(from, sparse, dense)
	}

	denseRows := sortedKeys(dense)
	// Each dirty row's columns split by server, already sorted (SplitIndices
	// preserves the sorted column order).
	rows := sortedKeys(sparse)
	splits := make([][][]int, len(rows))
	for i, row := range rows {
		splits[i] = b.mat.Part.SplitIndices(sortedKeys(sparse[row]))
	}
	// Every shard's touched rows, in one array that never grows, so the
	// slices handed to the calls stay put.
	n := b.mat.Part.NumServers()
	touched := make([]int, 0, n*(len(denseRows)+len(rows)))
	nnz := make([]int, n)
	spec := CallSpec{
		Name:      "push-combined",
		RespBytes: cost.RequestOverheadB, // ack
		Work: func(s, _ int) float64 {
			return cost.ElemWork(nnz[s] + len(denseRows)*b.mat.Part.Width(s))
		},
		Mutates: true,
		Fn: func(s int, sh *Shard) error {
			for _, row := range denseRows {
				sh.view.GatherAdd(sh.Dense(row), dense[row])
			}
			for i, row := range rows {
				out, deltas := sh.Dense(row), sparse[row]
				for _, col := range splits[i][s] {
					out[sh.Local(col)] += deltas[col]
				}
			}
			return nil
		},
		delivered: func(c *CallSpec) { m.Cache.FlushedBytes += c.ReqBytes + cost.RequestOverheadB },
	}
	err := b.mat.fanOut(p, from, spec, func(s int, c *CallSpec) bool {
		start := len(touched)
		touched = append(touched, denseRows...)
		for i, row := range rows {
			if k := len(splits[i][s]); k > 0 {
				touched = append(touched, row)
				nnz[s] += k
			}
		}
		sparseRows := len(touched) - start - len(denseRows)
		if sparseRows == 0 && len(denseRows) == 0 {
			return false
		}
		width := b.mat.Part.Width(s)
		c.ReqBytes = cost.RequestOverheadB +
			12*float64(nnz[s]) + 4*float64(sparseRows) + // sparse (col,val) pairs + row headers
			8*float64(len(denseRows)*width) + 4*float64(len(denseRows)) // dense stretches + row headers
		c.Touched = touched[start:len(touched):len(touched)]
		return true
	})
	m.Cache.Flushes++
	return err
}

// creditFlush records the magnitudes of a flush's deltas against the owning
// client's copies on machine from (their pend, and each dense stretch's), so
// a delta-consuming policy knows how far locally-pushed writes have moved the
// values it is still serving. The mean magnitude also feeds the policy's
// adaptive EWMA — but only when at least one live cache entry was credited:
// a buffer flushing rows the cache never holds (LR's gradient accumulator
// row) says nothing about the freshness of what IS cached, and its trainer
// credits the real target row itself via CreditPush. Iteration is in sorted
// row/column order so the float accumulation is deterministic. Host-side
// only; no virtual cost.
func (b *PushBuffer) creditFlush(from *simnet.Node, sparse map[int]map[int]float64, dense map[int][]float64) {
	cc := b.cc
	nc := cc.node(from)
	var sum float64
	var cnt int
	credited := false
	for _, row := range sortedKeys(sparse) {
		cols := sparse[row]
		var rowMax float64
		for _, col := range sortedKeys(cols) {
			mag := math.Abs(cols[col])
			sum += mag
			cnt++
			rowMax = math.Max(rowMax, mag)
			credited = cc.credit(nc, row, col, mag) || credited
		}
		credited = cc.creditStretches(nc, row, rowMax) || credited
	}
	for _, row := range sortedKeys(dense) {
		d := dense[row]
		var rowMax float64
		for _, v := range d {
			rowMax = math.Max(rowMax, math.Abs(v))
		}
		sum += rowMax
		cnt++
		credited = cc.creditStretches(nc, row, rowMax) || credited
		for s := 0; s < cc.mat.Part.NumServers(); s++ {
			if e := nc.get(cacheKey{copyKey: copyKey{row, s}}); e != nil {
				// Per-column credit against sparse entries of the same row;
				// each column's increment is independent, so map order is fine.
				for col := range e.vals {
					credited = e.credit(col, math.Abs(d[col])) || credited
				}
			}
		}
	}
	if credited && cnt > 0 {
		cc.cfg.Policy.ObserveDelta(sum / float64(cnt))
	}
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
