package dcv

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// This file implements the column-access operator set. Every operator visits
// each logical shard of the target vector in parallel; when the operands are
// co-located (same raw matrix) each server computes over its local rows and
// only scalars travel. When operands are NOT co-located the same dimension
// range of each operand lives on a different physical server, so a
// server-to-server shuffle ships the operand's range before the computation —
// the cost the paper's Figure 4 warns about and that the derive operator
// exists to avoid.

// ShardSpan describes one server's slice of a zip computation: the owned
// dimensions and, for each operand vector, the aligned value slice. Under
// the default contiguous placement the dimensions are the range [Lo, Hi) and
// Cols is nil; under a non-contiguous placement Cols lists the absolute
// dimensions in local storage order and Lo/Hi are 0. Rows[0] is the target
// vector's slice and is always live server memory; Rows[i>0] are live memory
// for co-located operands and fetched copies for shuffled ones.
type ShardSpan struct {
	Shard  int
	Lo, Hi int
	Cols   []int
	Rows   [][]float64
}

// Contiguous reports whether the span covers a dense dimension range.
func (sp ShardSpan) Contiguous() bool { return sp.Cols == nil }

// zipInvoke runs fn on every logical shard of v with aligned operand slices,
// charging request/response traffic, per-element server work, and — for
// non-co-located operands — the server-to-server shuffle of their ranges.
// Each shard's invocation rides the PS retry layer under the matrix's route
// gate (ps.CallShards), so a column op that races a server crash blocks until
// recovery and re-executes against the restored shard; only exhausted retries
// surface as an error.
func (v *Vector) zipInvoke(p *simnet.Proc, from *simnet.Node, others []*Vector,
	respBytes, workPerElem float64, fn func(span ShardSpan)) error {
	for i, ov := range others {
		if ov == nil {
			return fmt.Errorf("dcv: operand %d is nil", i)
		}
		if ov.mat.Dim != v.mat.Dim {
			return fmt.Errorf("dcv: dimension mismatch: %d vs %d", v.mat.Dim, ov.mat.Dim)
		}
		// The shuffle path pairs logical shard s of the operand with logical
		// shard s of the target, so the placements must carve the dimension
		// identically — otherwise the slices are misaligned (or out of range).
		if ov.mat != v.mat && !ps.SamePlacement(ov.mat.Part, v.mat.Part) {
			return fmt.Errorf("dcv: operand %d placement %q differs from target placement %q: %w",
				i, ov.mat.Part.Fingerprint(), v.mat.Part.Fingerprint(), ErrPartitionMismatch)
		}
	}
	cost := v.sess.Master.Cl.Cost
	// fn may mutate the target row and any co-located operand row (ZipMap's
	// contract); shuffled operands are fetched copies, never live memory.
	touched := []int{v.row}
	for _, ov := range others {
		if ov.mat == v.mat {
			touched = append(touched, ov.row)
		}
	}
	return v.mat.CallShards(p, from, "zip", func(s int) ps.CallSpec {
		// Allocated once per shard and reused across the retry loop: the
		// rows table and the scratch copies of shuffled operand slices.
		rows := make([][]float64, 1+len(others))
		var shuffled [][]float64
		if len(others) > 0 {
			shuffled = make([][]float64, len(others))
		}
		return ps.CallSpec{
			Shard:     s,
			ReqBytes:  cost.RequestOverheadB,
			RespBytes: cost.RequestOverheadB + respBytes,
			Mutates:   true,
			Touched:   touched,
			Fn: func(fp *simnet.Proc, sh *ps.Shard) error {
				host := v.mat.ServerNode(s)
				width := sh.Width()
				rows[0] = sh.Rows[v.row]
				for i, ov := range others {
					if ov.mat == v.mat {
						rows[1+i] = sh.Rows[ov.row]
						continue
					}
					// Shuffle: same logical range, different physical
					// server (or at least a different matrix whose
					// placement is not guaranteed). Ship the operand's
					// slice across; a dead peer makes the whole
					// invocation retry.
					osh, err := ov.mat.LiveShard(s)
					if err != nil {
						return err
					}
					if err := ov.mat.ServerNode(s).TrySend(fp, host, cost.DenseBytes(width)); err != nil {
						return err
					}
					shuffled[i] = append(shuffled[i][:0], osh.Rows[ov.row]...)
					rows[1+i] = shuffled[i]
				}
				host.Compute(fp, workPerElem*float64(width)*float64(1+len(others)))
				view := sh.View()
				fn(ShardSpan{Shard: s, Lo: view.Lo, Hi: view.Hi, Cols: view.Cols, Rows: rows})
				return nil
			},
		}
	})
}

// Dot returns <v, other>, computed server-side: each server multiplies its
// local stretches and returns one partial scalar. With a derived (co-located)
// operand no vector data crosses the network; otherwise the operand's ranges
// are shuffled between servers first.
func (v *Vector) Dot(p *simnet.Proc, from *simnet.Node, other *Vector) (float64, error) {
	cost := v.sess.Master.Cl.Cost
	// One slot per shard (not `total += partial`): a retried invocation
	// re-executes fn, and assignment is idempotent where accumulation is not.
	partials := make([]float64, v.mat.Part.NumServers())
	err := v.zipInvoke(p, from, []*Vector{other}, 8, cost.FlopsPerElem, func(sp ShardSpan) {
		// linalg.Dot: unrolled, chunk-ordered, shard-parallel on wide spans —
		// same bits regardless of whether the pool kicks in.
		partials[sp.Shard] = linalg.Dot(sp.Rows[0], sp.Rows[1])
	})
	var total float64
	for _, x := range partials {
		total += x
	}
	return total, err
}

// Axpy computes v += alpha*other server-side (the paper's iaxpy used in
// the DeepWalk update, Figure 6).
func (v *Vector) Axpy(p *simnet.Proc, from *simnet.Node, alpha float64, other *Vector) error {
	cost := v.sess.Master.Cl.Cost
	return v.zipInvoke(p, from, []*Vector{other}, 0, cost.FlopsPerElem, func(sp ShardSpan) {
		linalg.Axpy(alpha, sp.Rows[1], sp.Rows[0])
	})
}

// AddVec computes v += other element-wise, server-side.
func (v *Vector) AddVec(p *simnet.Proc, from *simnet.Node, other *Vector) error {
	return v.elementwise(p, from, other, linalg.Add)
}

// SubVec computes v -= other element-wise, server-side.
func (v *Vector) SubVec(p *simnet.Proc, from *simnet.Node, other *Vector) error {
	return v.elementwise(p, from, other, linalg.Sub)
}

// MulVec computes v *= other element-wise, server-side.
func (v *Vector) MulVec(p *simnet.Proc, from *simnet.Node, other *Vector) error {
	return v.elementwise(p, from, other, linalg.Mul)
}

// DivVec computes v /= other element-wise, server-side. Division by zero
// follows IEEE-754 (±Inf/NaN); algorithms that can hit zero denominators add
// an epsilon, as Adam does.
func (v *Vector) DivVec(p *simnet.Proc, from *simnet.Node, other *Vector) error {
	return v.elementwise(p, from, other, linalg.Div)
}

// CopyFrom overwrites v with other, server-side.
func (v *Vector) CopyFrom(p *simnet.Proc, from *simnet.Node, other *Vector) error {
	return v.elementwise(p, from, other, func(dst, src []float64) { copy(dst, src) })
}

// elementwise dispatches one in-place dense kernel (dst op= src) per shard;
// the kernels are linalg's unrolled, shard-parallel versions.
func (v *Vector) elementwise(p *simnet.Proc, from *simnet.Node, other *Vector, kernel func(dst, src []float64)) error {
	cost := v.sess.Master.Cl.Cost
	return v.zipInvoke(p, from, []*Vector{other}, 0, cost.FlopsPerElem, func(sp ShardSpan) {
		kernel(sp.Rows[0], sp.Rows[1])
	})
}

// Scale multiplies every element by alpha, server-side, returning an error
// (wrapping ps.ErrServerDown or simnet.ErrNodeDown) when a shard stays
// unreachable — in that case the vector may be partially scaled, exactly the
// partial state the error reports.
func (v *Vector) Scale(p *simnet.Proc, from *simnet.Node, alpha float64) error {
	cost := v.sess.Master.Cl.Cost
	return v.zipInvoke(p, from, nil, 0, cost.FlopsPerElem, func(sp ShardSpan) {
		linalg.Scale(alpha, sp.Rows[0])
	})
}

// Fill sets every element to c, server-side — the paper's
// `DCV.derive(weight).fill(0.0)`. On error the vector may be partially filled.
func (v *Vector) Fill(p *simnet.Proc, from *simnet.Node, c float64) error {
	cost := v.sess.Master.Cl.Cost
	return v.zipInvoke(p, from, nil, 0, cost.FlopsPerElem, func(sp ShardSpan) {
		linalg.Fill(sp.Rows[0], c)
	})
}

// Zero resets the vector to zero server-side — `gradient.zero()` in the
// paper's training loops.
func (v *Vector) Zero(p *simnet.Proc, from *simnet.Node) error {
	return v.Fill(p, from, 0)
}

// ZipMap runs fn over every shard with all operand slices aligned in
// server memory — the general server-side computation behind the paper's
// `weight.zip(velocity, square, gradient).mapPartition{ updateModel }`
// (Figure 3). fn may mutate any of the slices; because mutation must land in
// live server memory, every operand is required to be co-located with v.
// workPerElem is the caller's estimate of compute per element per vector.
func (v *Vector) ZipMap(p *simnet.Proc, from *simnet.Node, workPerElem float64,
	fn func(lo int, rows [][]float64), others ...*Vector) error {
	for _, ov := range others {
		if !v.Colocated(ov) {
			return ErrNotColocated
		}
	}
	return v.zipInvoke(p, from, others, 0, workPerElem, func(sp ShardSpan) {
		fn(sp.Lo, sp.Rows)
	})
}

// ZipReduce runs fn over every shard like ZipMap and collects one result per
// shard at the caller, each costing respBytes on the wire. It powers GBDT's
// server-side split finding, where each server returns its best local split.
func ZipReduce[R any](p *simnet.Proc, from *simnet.Node, v *Vector, workPerElem, respBytes float64,
	fn func(span ShardSpan) R, others ...*Vector) ([]R, error) {
	for _, ov := range others {
		if !v.Colocated(ov) {
			return nil, ErrNotColocated
		}
	}
	out := make([]R, v.mat.Part.NumServers())
	err := v.zipInvoke(p, from, others, respBytes, workPerElem, func(sp ShardSpan) {
		out[sp.Shard] = fn(sp)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
