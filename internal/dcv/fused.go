package dcv

// This file is the operator-fusion layer: a Batch records a program of the
// column ops declared in columnops.go and runs it as ONE ps.Matrix.Invoke —
// one request per server — instead of one per op. Each recorded op charges
// OpCommandBytes in place of the payload it ships alone; the program pays
// the per-RPC framing (RequestOverheadB) once each way plus the ops' summed
// result bytes and server work, so fusing k ops saves (k-1) overheads and
// (k-1) round trips per server at exactly the same per-element compute.
// The program inherits Invoke's retry and dedup machinery atomically.
//
// All vectors in a batch must share one raw matrix (the co-location Derive
// guarantees): the program runs on each server against local shard memory
// only, with no operand shuffle. A non-co-located operand is recorded as an
// error and surfaced by Run.

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// OpCommandBytes is the wire size of one fused op's command descriptor
// (opcode, row ids, scalar arguments). Unfused operators pay a full
// RequestOverheadB per op per server; fused ops share one and pay only this.
const OpCommandBytes = 24

// Scalar is the deferred result of a reducing batch op (Dot). It becomes
// readable after the batch's Run returns nil.
type Scalar struct {
	ready bool
	value float64
}

// Value returns the reduction result. It panics if the owning batch has not
// successfully run.
func (sc *Scalar) Value() float64 {
	if !sc.ready {
		panic("dcv: Scalar read before its batch ran successfully")
	}
	return sc.value
}

// Batch records a program of column ops against one raw matrix and executes
// it with one request per server. Recording is free (no communication);
// validation errors are remembered and returned by Run. A batch is single
// use: Run executes it at most once.
type Batch struct {
	sess    *Session
	mat     *ps.Matrix
	ops     []colOp
	scalars []*Scalar // per op; nil for an update
	err     error
	ran     bool
}

// NewBatch starts an empty batch anchored at anchor's raw matrix; every
// vector subsequently recorded must be co-located with it.
func NewBatch(anchor *Vector) *Batch {
	return &Batch{sess: anchor.sess, mat: anchor.mat}
}

// record appends op with its scalar after checking that every vector is
// co-located with the batch's matrix; the first violation becomes the batch
// error and nothing more is recorded.
func (b *Batch) record(op colOp, sc *Scalar) *Batch {
	if b.err != nil {
		return b
	}
	for i, v := range op.vecs {
		if v == nil {
			b.err = fmt.Errorf("dcv: batch %s: vector %d is nil", op.name, i)
			return b
		}
		if v.mat != b.mat {
			b.err = fmt.Errorf("dcv: batch %s: %w", op.name, ErrNotColocated)
			return b
		}
	}
	b.ops = append(b.ops, op)
	b.scalars = append(b.scalars, sc)
	return b
}

// Fill records "set every element of v to c".
func (b *Batch) Fill(v *Vector, c float64) *Batch { return b.record(b.sess.fill(v, c), nil) }

// Zero records "reset v to zero".
func (b *Batch) Zero(v *Vector) *Batch { return b.Fill(v, 0) }

// SubVec records "v -= other".
func (b *Batch) SubVec(v, other *Vector) *Batch { return b.record(b.sess.sub(v, other), nil) }

// CopyFrom records "v = other".
func (b *Batch) CopyFrom(v, other *Vector) *Batch { return b.record(b.sess.copyFrom(v, other), nil) }

// ZipMap records the general server-side zip: fn runs on every shard with the
// target's and operands' aligned live slices, exactly like Vector.ZipMap but
// sharing the batch's single request. workPerElem is the caller's estimate of
// compute per element per vector.
func (b *Batch) ZipMap(v *Vector, workPerElem float64, fn func(lo int, rows [][]float64), others ...*Vector) *Batch {
	return b.record(zipMap(v, workPerElem, fn, others), nil)
}

// Dot records "<v, other>", readable from the returned Scalar after Run.
func (b *Batch) Dot(v, other *Vector) *Scalar {
	sc := &Scalar{}
	b.record(b.sess.dot(v, other), sc)
	return sc
}

// Run executes the recorded program with one request per server and resolves
// every reduction Scalar. It returns the first recording error (nil-vector,
// co-location violation), an execution error wrapping ps.ErrServerDown or
// simnet.ErrNodeDown when a shard stays unreachable, or nil on success. A
// batch runs at most once.
func (b *Batch) Run(p *simnet.Proc, from *simnet.Node) error {
	if b.err != nil {
		return b.err
	}
	if b.ran {
		return errors.New("dcv: batch already ran; record a fresh one")
	}
	b.ran = true
	if len(b.ops) == 0 {
		return nil
	}
	if t := b.sess.Master.Cl.Sim.Tracer(); t != nil {
		sp := t.Begin(from.ID, from.Name, obs.KBatch, "batch",
			p.TraceParent(), obs.KV{K: "ops", V: strconv.Itoa(len(b.ops))})
		prev := p.SetTraceParent(sp)
		defer func() {
			p.SetTraceParent(prev)
			sp.End()
		}()
	}
	ops := make([]ps.InvokeOp, len(b.ops))
	for i, op := range b.ops {
		ops[i] = op.invoke(OpCommandBytes)
	}
	partials, err := b.mat.Invoke(p, from, ops...)
	if err != nil {
		return err
	}
	for i, sc := range b.scalars {
		if sc != nil {
			sc.value = total(partials[i])
			sc.ready = true
		}
	}
	return nil
}
