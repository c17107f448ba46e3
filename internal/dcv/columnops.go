package dcv

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// This file declares the column-access operator set, each operator once, as
// a colOp: a kernel over one shard's aligned rows plus what the op costs —
// compute per element, the rows it writes (none for a reduction) and the
// bytes of its result. The Vector methods below run one op alone; a Batch
// (fused.go) records several into one program. Either way a co-located op
// reaches the servers through ps.Matrix.Invoke, and each server computes over
// its local rows so only scalars travel. When an operand is NOT co-located
// the same dimension range of it lives on a different physical server, so
// the shuffle ships the operand's range between servers before running the
// same kernel over the copy — the cost the paper's Figure 4 warns about and
// that the derive operator exists to avoid.

// ShardSpan describes one server's slice of a zip computation: the owned
// dimensions and, for each operand vector, the aligned value slice. Under
// the default contiguous placement the dimensions are the range [Lo, Hi) and
// Cols is nil; under a non-contiguous placement Cols lists the absolute
// dimensions in local storage order and Lo/Hi are 0. Rows[0] is the target
// vector's slice and is always live server memory, the row's dense view;
// Rows[i>0] are live memory for co-located operands and fetched copies for
// shuffled ones.
type ShardSpan struct {
	Shard  int
	Lo, Hi int
	Cols   []int
	Rows   [][]float64
}

// Contiguous reports whether the span covers a dense dimension range.
func (sp ShardSpan) Contiguous() bool { return sp.Cols == nil }

func spanOf(s int, sh *ps.Shard, rows [][]float64) ShardSpan {
	view := sh.View()
	return ShardSpan{Shard: s, Lo: view.Lo, Hi: view.Hi, Cols: view.Cols, Rows: rows}
}

// colOp is one declared column operator over vecs[0], its target, and the
// operands vecs[1:].
type colOp struct {
	name string
	vecs []*Vector
	// work is the compute charged per element of a shard, every row counted.
	work float64
	// writes is how many leading vecs the kernel writes: 0 for a reduction,
	// 1 for an update of the target, len(vecs) for a zip that may write any.
	writes int
	// args is the request payload of the op run alone; result is the bytes
	// of each server's reply beyond the framing.
	args, result float64
	// kernel runs on one shard and returns its partial (0 for an update).
	kernel func(sp ShardSpan) float64
}

func (s *Session) flops() float64 { return s.Master.Cl.Cost.FlopsPerElem }

// update declares an op that writes its target, charging one flop per
// element of each row.
func (s *Session) update(name string, kernel func(rows [][]float64), vecs ...*Vector) colOp {
	return colOp{name: name, vecs: vecs, work: s.flops() * float64(len(vecs)), writes: 1,
		kernel: func(sp ShardSpan) float64 {
			kernel(sp.Rows)
			return 0
		}}
}

// reduction declares a read returning one 8-byte partial per server.
func (s *Session) reduction(name string, partial func(rows [][]float64) float64, vecs ...*Vector) colOp {
	return colOp{name: name, vecs: vecs, work: s.flops() * float64(len(vecs)), result: 8,
		kernel: func(sp ShardSpan) float64 { return partial(sp.Rows) }}
}

// rowReduction declares a reduction of one row. Table 1 lists these as row
// access: run alone, the request names the row (8 bytes).
func (s *Session) rowReduction(name string, partial func(x []float64) float64, v *Vector) colOp {
	op := s.reduction(name, func(rows [][]float64) float64 { return partial(rows[0]) }, v)
	op.args = 8
	return op
}

func (s *Session) fill(v *Vector, c float64) colOp {
	return s.update("fill", func(rows [][]float64) { linalg.Fill(rows[0], c) }, v)
}

func (s *Session) scale(v *Vector, alpha float64) colOp {
	return s.update("scale", func(rows [][]float64) { linalg.Scale(alpha, rows[0]) }, v)
}

func (s *Session) axpy(v *Vector, alpha float64, other *Vector) colOp {
	return s.update("axpy", func(rows [][]float64) { linalg.Axpy(alpha, rows[1], rows[0]) }, v, other)
}

// elementwise declares "v = v op other" for one of linalg's in-place dense
// kernels (dst op= src), which are unrolled and shard-parallel.
func (s *Session) elementwise(name string, kernel func(dst, src []float64), v, other *Vector) colOp {
	return s.update(name, func(rows [][]float64) { kernel(rows[0], rows[1]) }, v, other)
}

func (s *Session) add(v, other *Vector) colOp { return s.elementwise("add", linalg.Add, v, other) }

func (s *Session) sub(v, other *Vector) colOp { return s.elementwise("sub", linalg.Sub, v, other) }

func (s *Session) mul(v, other *Vector) colOp { return s.elementwise("mul", linalg.Mul, v, other) }

func (s *Session) div(v, other *Vector) colOp { return s.elementwise("div", linalg.Div, v, other) }

func (s *Session) copyFrom(v, other *Vector) colOp {
	return s.elementwise("copy", func(dst, src []float64) { copy(dst, src) }, v, other)
}

// dot's partials are chunk-ordered, so a shard's bits do not depend on
// whether linalg's pool kicks in.
func (s *Session) dot(v, other *Vector) colOp {
	return s.reduction("dot", func(rows [][]float64) float64 { return linalg.Dot(rows[0], rows[1]) }, v, other)
}

func (s *Session) sum(v *Vector) colOp { return s.rowReduction("sum", linalg.Sum, v) }

func (s *Session) nnz(v *Vector) colOp {
	return s.rowReduction("nnz", func(x []float64) float64 { return float64(linalg.NnzDense(x)) }, v)
}

// sumSquares totals to the squared Euclidean norm.
func (s *Session) sumSquares(v *Vector) colOp { return s.rowReduction("norm2", linalg.SumSquares, v) }

// zipMap declares the general server-side zip: fn may write any row, so
// every vector is declared written. workPerElem is per element per vector.
func zipMap(v *Vector, workPerElem float64, fn func(lo int, rows [][]float64), others []*Vector) colOp {
	vecs := append([]*Vector{v}, others...)
	return colOp{name: "zipmap", vecs: vecs, work: workPerElem * float64(len(vecs)), writes: len(vecs),
		kernel: func(sp ShardSpan) float64 {
			fn(sp.Lo, sp.Rows)
			return 0
		}}
}

// zipReduce declares zipMap's read-only twin: fn's result for shard s lands
// in out[s], and each server's reply costs respBytes.
func zipReduce[R any](v *Vector, workPerElem, respBytes float64, fn func(span ShardSpan) R, others []*Vector, out []R) colOp {
	vecs := append([]*Vector{v}, others...)
	return colOp{name: "zipreduce", vecs: vecs, work: workPerElem * float64(len(vecs)), result: respBytes,
		kernel: func(sp ShardSpan) float64 {
			out[sp.Shard] = fn(sp)
			return 0
		}}
}

// invoke is op as one step of a ps.Matrix.Invoke program whose request
// carries reqBytes for it. All its vectors share the target's raw matrix.
func (op colOp) invoke(reqBytes float64) ps.InvokeOp {
	rows := make([]int, len(op.vecs))
	for i, v := range op.vecs {
		rows[i] = v.row
	}
	return ps.InvokeOp{
		ReqBytes:  reqBytes,
		RespBytes: op.result,
		Work:      func(w int) float64 { return op.work * float64(w) },
		Mutates:   op.writes > 0,
		DirtyRows: rows[:op.writes],
		Fn: func(s int, sh *ps.Shard) float64 {
			live := make([][]float64, len(rows))
			for i, r := range rows {
				live[i] = sh.Dense(r)
			}
			return op.kernel(spanOf(s, sh, live))
		},
	}
}

// run executes op alone and returns each server's partial. A co-located op
// is a program of one; otherwise the operands are shuffled in. Each shard's
// call rides the PS retry layer under the matrix's route gate, so an op that
// races a server crash blocks until recovery and re-executes against the
// restored shard; only exhausted retries surface as an error.
func (op colOp) run(p *simnet.Proc, from *simnet.Node) ([]float64, error) {
	v := op.vecs[0]
	colocated := true
	for i, ov := range op.vecs[1:] {
		if ov == nil {
			return nil, fmt.Errorf("dcv: operand %d is nil", i)
		}
		if ov.mat.Dim != v.mat.Dim {
			return nil, fmt.Errorf("dcv: dimension mismatch: %d vs %d", v.mat.Dim, ov.mat.Dim)
		}
		if ov.mat == v.mat {
			continue
		}
		// The shuffle pairs logical shard s of the operand with logical
		// shard s of the target, so the placements must carve the dimension
		// identically — otherwise the slices are misaligned (or out of range).
		if !ps.SamePlacement(ov.mat.Part, v.mat.Part) {
			return nil, fmt.Errorf("dcv: operand %d placement %q differs from target placement %q: %w",
				i, ov.mat.Part.Fingerprint(), v.mat.Part.Fingerprint(), ErrPartitionMismatch)
		}
		colocated = false
	}
	if !colocated {
		return op.shuffle(p, from)
	}
	parts, err := v.mat.Invoke(p, from, op.invoke(op.args))
	if err != nil {
		return nil, err
	}
	return parts[0], nil
}

// shuffle runs op on every shard of its target after fetching each operand
// that lives in another matrix: the same logical range from a different
// physical server, copied to the target's server. The compute is charged
// once the copies have landed, and a dead peer makes the whole call retry.
// Only the target is written: the zips that write operands require them
// co-located.
func (op colOp) shuffle(p *simnet.Proc, from *simnet.Node) ([]float64, error) {
	v := op.vecs[0]
	cost := v.sess.Master.Cl.Cost
	var touched []int
	if op.writes > 0 {
		touched = []int{v.row}
	}
	partials := make([]float64, v.mat.Part.NumServers())
	spec := ps.CallSpec{
		Name:      "shuffle",
		ReqBytes:  cost.RequestOverheadB + op.args,
		RespBytes: cost.RequestOverheadB + op.result,
		Mutates:   op.writes > 0,
		Touched:   touched,
	}
	err := v.mat.CallShards(p, from, spec, func(s int, c *ps.CallSpec) bool {
		// Allocated once per shard and reused across the retry loop: the
		// rows table and the copies of shuffled operand slices.
		rows := make([][]float64, len(op.vecs))
		copies := make([][]float64, len(op.vecs))
		c.BlockingFn = func(fp *simnet.Proc, _ int, sh *ps.Shard) error {
			host := v.mat.ServerNode(s)
			for i, ov := range op.vecs {
				if ov.mat == v.mat {
					rows[i] = sh.Dense(ov.row)
					continue
				}
				osh, err := ov.mat.LiveShard(s)
				if err != nil {
					return err
				}
				if err := ov.mat.ServerNode(s).TrySend(fp, host, cost.DenseBytes(sh.Width())); err != nil {
					return err
				}
				copies[i] = append(copies[i][:0], osh.Dense(ov.row)...)
				rows[i] = copies[i]
			}
			host.Compute(fp, op.work*float64(sh.Width()))
			partials[s] = op.kernel(spanOf(s, sh, rows))
			return nil
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return partials, nil
}

// total sums per-server partials in server order, the one order every
// reduction uses.
func total(partials []float64) float64 {
	var t float64
	for _, x := range partials {
		t += x
	}
	return t
}

// reduce runs a reduction alone and returns its total.
func (op colOp) reduce(p *simnet.Proc, from *simnet.Node) (float64, error) {
	parts, err := op.run(p, from)
	if err != nil {
		return 0, err
	}
	return total(parts), nil
}

// exec runs an update alone.
func (op colOp) exec(p *simnet.Proc, from *simnet.Node) error {
	_, err := op.run(p, from)
	return err
}

// Dot returns <v, other>, computed server-side: each server multiplies its
// local stretches and returns one partial scalar. With a derived (co-located)
// operand no vector data crosses the network; otherwise the operand's ranges
// are shuffled between servers first.
func (v *Vector) Dot(p *simnet.Proc, from *simnet.Node, other *Vector) (float64, error) {
	return v.sess.dot(v, other).reduce(p, from)
}

// Axpy computes v += alpha*other server-side (the paper's iaxpy used in
// the DeepWalk update, Figure 6).
func (v *Vector) Axpy(p *simnet.Proc, from *simnet.Node, alpha float64, other *Vector) error {
	return v.sess.axpy(v, alpha, other).exec(p, from)
}

// AddVec computes v += other element-wise, server-side.
func (v *Vector) AddVec(p *simnet.Proc, from *simnet.Node, other *Vector) error {
	return v.sess.add(v, other).exec(p, from)
}

// SubVec computes v -= other element-wise, server-side.
func (v *Vector) SubVec(p *simnet.Proc, from *simnet.Node, other *Vector) error {
	return v.sess.sub(v, other).exec(p, from)
}

// MulVec computes v *= other element-wise, server-side.
func (v *Vector) MulVec(p *simnet.Proc, from *simnet.Node, other *Vector) error {
	return v.sess.mul(v, other).exec(p, from)
}

// DivVec computes v /= other element-wise, server-side. Division by zero
// follows IEEE-754 (±Inf/NaN); algorithms that can hit zero denominators add
// an epsilon, as Adam does.
func (v *Vector) DivVec(p *simnet.Proc, from *simnet.Node, other *Vector) error {
	return v.sess.div(v, other).exec(p, from)
}

// CopyFrom overwrites v with other, server-side.
func (v *Vector) CopyFrom(p *simnet.Proc, from *simnet.Node, other *Vector) error {
	return v.sess.copyFrom(v, other).exec(p, from)
}

// Scale multiplies every element by alpha, server-side, returning an error
// (wrapping ps.ErrServerDown or simnet.ErrNodeDown) when a shard stays
// unreachable — in that case the vector may be partially scaled, exactly the
// partial state the error reports.
func (v *Vector) Scale(p *simnet.Proc, from *simnet.Node, alpha float64) error {
	return v.sess.scale(v, alpha).exec(p, from)
}

// Fill sets every element to c, server-side — the paper's
// `DCV.derive(weight).fill(0.0)`. On error the vector may be partially filled.
func (v *Vector) Fill(p *simnet.Proc, from *simnet.Node, c float64) error {
	return v.sess.fill(v, c).exec(p, from)
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
	return zipMap(v, workPerElem, fn, others).exec(p, from)
}

// ZipReduce runs fn over every shard like ZipMap and collects one result per
// shard at the caller, each costing respBytes on the wire. fn reads the
// slices and must not write them: the call goes out as a read. It powers
// GBDT's server-side split finding, where each server returns its best
// local split.
func ZipReduce[R any](p *simnet.Proc, from *simnet.Node, v *Vector, workPerElem, respBytes float64,
	fn func(span ShardSpan) R, others ...*Vector) ([]R, error) {
	for _, ov := range others {
		if !v.Colocated(ov) {
			return nil, ErrNotColocated
		}
	}
	out := make([]R, v.mat.Part.NumServers())
	if err := zipReduce(v, workPerElem, respBytes, fn, others, out).exec(p, from); err != nil {
		return nil, err
	}
	return out, nil
}
