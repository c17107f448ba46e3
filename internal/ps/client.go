package ps

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/linalg"
	"repro/internal/simnet"
)

// This file implements the PS-client: the executor-side stub that routes row
// accesses and server-side invocations to the right servers. Since the whole
// system lives in one simulated process space, "the client" is the set of
// methods on Matrix that take the calling process and its machine; the
// routing table is the matrix's partitioner, fetched from the master at
// matrix creation.
//
// Every operator fans out one CallShard per shard (see rpc.go), so all of
// them transparently ride out message loss and server crashes: a request
// that races a crash blocks in retry/backoff until the failure detector has
// swapped in a replacement, then lands on the restored shard.
//
// Every operator has one form: it returns a typed error (wrapping
// ErrServerDown or simnet.ErrNodeDown) when a shard stays unreachable past the
// retry budget, and nil values beside it. Every caller returns that error:
// driver code to the caller of Train*, rdd task bodies to their stage, which
// retries the task when its executor died and otherwise fails with it.
// Argument misuse (bad row, wrong dimension) is a programming error and
// panics, with one exception: a malformed index list (out of range or not
// strictly increasing) is data, not code — sparse indices typically come
// straight from parsed instances — so the index operators validate it up
// front and return ErrBadIndices (wrapped) instead of panicking deep inside a
// server handler.

// ErrBadIndices is returned (wrapped) by the sparse index operators when the
// index list is out of range or not strictly increasing.
var ErrBadIndices = errors.New("ps: invalid index list")

// validateIndices checks that indices are strictly increasing and within
// [0, dim), the contract of every sparse index operator.
func validateIndices(indices []int, dim int) error {
	prev := -1
	for i, col := range indices {
		if col < 0 || col >= dim {
			return fmt.Errorf("ps: index %d at position %d out of range [0,%d): %w", col, i, dim, ErrBadIndices)
		}
		if col <= prev {
			return fmt.Errorf("ps: indices not strictly increasing: %d at position %d follows %d: %w", col, i, prev, ErrBadIndices)
		}
		prev = col
	}
	return nil
}

// PullRow fetches one full row from all servers in parallel and assembles it
// at the caller. Every server ships its [lo,hi) stretch of the row, so the
// transfer parallelizes over servers — the "multiple servers replace the
// single-node driver" effect.
func (mat *Matrix) PullRow(p *simnet.Proc, from *simnet.Node, row int) ([]float64, error) {
	cost := mat.master.Cl.Cost
	return mat.pullRow(p, from, row, CallSpec{Name: "pull"}, func(s int, c *CallSpec) bool {
		c.RespBytes = cost.DenseBytes(mat.Part.Width(s))
		return true
	})
}

// PullRowCompressed fetches a full row but ships only the stored nonzeros of
// each shard as (index, value) pairs — the transfer a sparse server-side
// representation would cost. Used by sparse DCVs.
func (mat *Matrix) PullRowCompressed(p *simnet.Proc, from *simnet.Node, row int) ([]float64, error) {
	cost := mat.master.Cl.Cost
	return mat.pullRow(p, from, row, CallSpec{
		Name: "pull-compressed",
		Work: func(_, w int) float64 { return cost.ElemWork(w) },
		RespBytesFn: func(sh *Shard) float64 {
			var scratch []float64
			return cost.SparseBytes(linalg.NnzDense(sh.values(row, &scratch)))
		},
	}, nil)
}

// pullRow assembles row at the caller from every shard's stretch, each
// shipped as spec and shard price it. The shard views partition the column
// space, so every element of the row is written on success.
func (mat *Matrix) pullRow(p *simnet.Proc, from *simnet.Node, row int, spec CallSpec, shard func(s int, c *CallSpec) bool) ([]float64, error) {
	mat.checkRow(row)
	mat.enterOp(p)
	defer mat.exitOp()
	out := make([]float64, mat.Dim)
	spec.ReqBytes = mat.master.Cl.Cost.RequestOverheadB
	spec.Fn = func(_ int, sh *Shard) error {
		sh.ReadRow(row, out)
		return nil
	}
	if err := mat.fanOut(p, from, spec, shard); err != nil {
		return nil, err
	}
	return out, nil
}

// ServerNode returns the machine hosting logical shard s (exported for the
// DCV layer's shuffle path and for tests).
func (mat *Matrix) ServerNode(s int) *simnet.Node { return mat.srv(s).Node }

// HostShard returns the shard data for logical shard s, read on the host: no
// request, bytes or time, and none of a call's bookkeeping (retries, dedup,
// dirty rows, version stamps). Trainers reach shard memory through an
// operator, Invoke or CallShards; outside this package HostShard is for
// evaluation after a run and the few host-side paths TestHostReadsListed
// names.
func (mat *Matrix) HostShard(s int) *Shard { return mat.shardOn(s) }

// PullRowIndices fetches only the given (strictly increasing) columns of a
// row — sparse pull, the optimization the paper credits for PS2's advantage
// over Petuum ("PS2 supports sparse communication and only pulls the needed
// model parameters"). It assembles the values, aligned with indices, into
// out — len(indices) values, each overwritten on success, so a hot loop
// reuses its scratch — or into a fresh buffer when out is nil, and returns
// the buffer.
func (mat *Matrix) PullRowIndices(p *simnet.Proc, from *simnet.Node, row int, indices []int, out []float64) ([]float64, error) {
	mat.checkRow(row)
	if err := validateIndices(indices, mat.Dim); err != nil {
		return nil, err
	}
	out = sparseOut(out, len(indices))
	mat.enterOp(p)
	defer mat.exitOp()
	return mat.pullRowIndices(p, from, row, indices, out, ClassTrain)
}

// sparseOut returns out, or a fresh buffer when it is nil, for a sparse pull
// of n columns.
func sparseOut(out []float64, n int) []float64 {
	if out == nil {
		return make([]float64, n)
	}
	if len(out) != n {
		panic(fmt.Sprintf("ps: sparse pull of %d columns got a buffer of %d", n, len(out)))
	}
	return out
}

// pullRowIndices is the ungated core of PullRowIndices: validation, the
// buffer and gate registration already done by the caller. The
// HotReplicaSet's cold path calls it from a child of an operator that already
// holds the gate — going through the gated wrapper there would deadlock a
// migration cutover (the parent can't drain until the child finishes, the
// child can't enter while the gate is closing). class tags the calls for
// admission control — the serving tier reads through here with ClassServe.
func (mat *Matrix) pullRowIndices(p *simnet.Proc, from *simnet.Node, row int, indices []int, out []float64, class Class) ([]float64, error) {
	cost := mat.master.Cl.Cost
	split := splitRuns(mat.Part, indices)
	buf := split.buffer(out)
	spec := CallSpec{
		Name:  "pull-sparse",
		Class: class,
		Fn: func(s int, sh *Shard) error {
			sh.Get(row, split.of[s], split.vals(s, buf))
			return nil
		},
	}
	err := mat.fanOut(p, from, spec, func(s int, c *CallSpec) bool {
		// Request carries the indices; response carries the values.
		n := float64(len(split.of[s]))
		c.ReqBytes = cost.RequestOverheadB + 4*n
		c.RespBytes = cost.RequestOverheadB + 8*n
		return n > 0
	})
	if err != nil {
		return nil, err
	}
	split.restore(buf, out)
	return out, nil
}

// PushAdd adds a sparse delta into a row, splitting the update across the
// owning servers. This is the DCV `add` operator used as the gradient push in
// the paper's Figure 3 (line 18); it is also the pull/push-only baselines'
// push primitive.
func (mat *Matrix) PushAdd(p *simnet.Proc, from *simnet.Node, row int, delta *linalg.SparseVector) error {
	mat.checkRow(row)
	if err := validateIndices(delta.Indices, mat.Dim); err != nil {
		return err
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	split := splitRuns(mat.Part, delta.Indices)
	vals := split.order(delta.Values)
	spec := CallSpec{
		Name:      "push-add",
		RespBytes: cost.RequestOverheadB, // ack
		Work:      func(s, _ int) float64 { return cost.ElemWork(len(split.of[s])) },
		Mutates:   true,
		Touched:   []int{row},
		Fn: func(s int, sh *Shard) error {
			sh.Add(row, split.of[s], split.vals(s, vals))
			return nil
		},
	}
	return mat.fanOut(p, from, spec, func(s int, c *CallSpec) bool {
		c.ReqBytes = cost.SparseBytes(len(split.of[s]))
		return len(split.of[s]) > 0
	})
}

// PushAddDense adds a dense delta into a row, shipping each server its full
// column range.
func (mat *Matrix) PushAddDense(p *simnet.Proc, from *simnet.Node, row int, delta []float64) error {
	cost := mat.master.Cl.Cost
	work := func(_, w int) float64 { return cost.ElemWork(w) }
	return mat.writeRow(p, from, CallSpec{Name: "push-dense", Work: work}, row, delta, ColView.GatherAdd)
}

// SetRow overwrites a row (used to initialize models).
func (mat *Matrix) SetRow(p *simnet.Proc, from *simnet.Node, row int, values []float64) error {
	return mat.writeRow(p, from, CallSpec{Name: "set-row"}, row, values, ColView.Gather)
}

// writeRow ships each server its stretch of the full-dimension vector full
// and applies it to the row's dense view with apply (ColView.Gather or
// GatherAdd), acknowledged as spec names and prices it.
func (mat *Matrix) writeRow(p *simnet.Proc, from *simnet.Node, spec CallSpec, row int, full []float64, apply func(ColView, []float64, []float64)) error {
	mat.checkRow(row)
	if len(full) != mat.Dim {
		panic(fmt.Sprintf("ps: %s got %d values for dim %d", spec.Name, len(full), mat.Dim))
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	spec.RespBytes = cost.RequestOverheadB // ack
	spec.Mutates, spec.Touched = true, []int{row}
	spec.Fn = func(_ int, sh *Shard) error {
		apply(sh.view, sh.Dense(row), full)
		return nil
	}
	return mat.fanOut(p, from, spec, func(s int, c *CallSpec) bool {
		c.ReqBytes = cost.DenseBytes(mat.Part.Width(s))
		return true
	})
}

// PullRows fetches several whole rows in one batched request per server —
// the access pattern of embedding workloads, where a worker needs the vectors
// of one center vertex and its sampled contexts together. It assembles into
// out — one len-Dim buffer per requested row, each fully overwritten on
// success, so a hot loop reuses its scratch — or into fresh buffers when out
// is nil, and returns the buffers.
func (mat *Matrix) PullRows(p *simnet.Proc, from *simnet.Node, rows []int, out [][]float64) ([][]float64, error) {
	if out == nil {
		out = make([][]float64, len(rows))
		for i := range out {
			out[i] = make([]float64, mat.Dim)
		}
	}
	if len(out) != len(rows) {
		panic(fmt.Sprintf("ps: PullRows got %d buffers for %d rows", len(out), len(rows)))
	}
	for i, r := range rows {
		mat.checkRow(r)
		if len(out[i]) != mat.Dim {
			panic(fmt.Sprintf("ps: PullRows buffer %d has %d values for dim %d", i, len(out[i]), mat.Dim))
		}
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	spec := CallSpec{
		Name:     "pull-rows",
		ReqBytes: cost.RequestOverheadB + 4*float64(len(rows)),
		Fn: func(_ int, sh *Shard) error {
			for i, r := range rows {
				sh.ReadRow(r, out[i])
			}
			return nil
		},
	}
	err := mat.fanOut(p, from, spec, func(s int, c *CallSpec) bool {
		c.RespBytes = cost.RequestOverheadB + 8*float64(len(rows)*mat.Part.Width(s))
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PushRowsDelta adds one dense delta per row in one batched request per
// server — the mirror of PullRows.
func (mat *Matrix) PushRowsDelta(p *simnet.Proc, from *simnet.Node, rows []int, deltas [][]float64) error {
	if len(rows) != len(deltas) {
		panic(fmt.Sprintf("ps: PushRowsDelta got %d rows, %d deltas", len(rows), len(deltas)))
	}
	for i, r := range rows {
		mat.checkRow(r)
		if len(deltas[i]) != mat.Dim {
			panic(fmt.Sprintf("ps: PushRowsDelta delta %d has %d values for dim %d", i, len(deltas[i]), mat.Dim))
		}
	}
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	spec := CallSpec{
		Name:      "push-rows",
		RespBytes: cost.RequestOverheadB,
		Work:      func(_, w int) float64 { return cost.ElemWork(len(rows) * w) },
		Mutates:   true,
		Touched:   rows,
		Fn: func(_ int, sh *Shard) error {
			for i, r := range rows {
				sh.view.GatherAdd(sh.Dense(r), deltas[i])
			}
			return nil
		},
	}
	return mat.fanOut(p, from, spec, func(s int, c *CallSpec) bool {
		c.ReqBytes = cost.RequestOverheadB + 4*float64(len(rows)) + 8*float64(len(rows)*mat.Part.Width(s))
		return true
	})
}

// InvokeOp is one server-side operation, the unit of an Invoke program.
// ReqBytes/RespBytes are the op's payload beyond the per-request framing;
// Work charges server CPU per shard; Fn runs against the shard and returns
// this op's partial scalar.
type InvokeOp struct {
	ReqBytes  float64
	RespBytes float64
	Work      func(width int) float64
	Mutates   bool
	Fn        func(s int, sh *Shard) float64

	// DirtyRows lists the rows a mutating op writes; the request declares
	// their union as CallSpec.Touched. A mutating op that leaves it nil makes
	// the whole request fall back to conservative (every-row) marking.
	// Declarations also keep the consistency layer's drift accounting exact:
	// commitMutate diffs exactly these rows into the shard's per-row |delta|
	// watermarks (versions.go), which value-bounded policies use to certify
	// dense cache entries without shipping them — an undeclared mutation
	// instead rolls the shard to a new drift generation and every anchored
	// entry revalidates in full.
	DirtyRows []int
}

// Invoke runs a program of ops, in order, against every server's shard with
// ONE request/response per server; a lone op is a program of one. The
// request pays a single RequestOverheadB plus the summed op payloads, the
// server charges the summed work and runs the ops back to back on local
// memory, and the response carries every op's result at once. The returned
// partials are indexed [op][server].
//
// The program rides one CallShard per server, so it inherits the retry
// machinery wholesale: if any op mutates, the request carries one dedup ID
// and a retried program re-executes exactly once per server incarnation —
// the ops run atomically with respect to retries. A program of reads skips
// request-ID allocation and applied-set tracking entirely, so in unreliable
// runs a reduction costs no dedup state. A program of more than one op is a
// fused batch, counted in NetStats and traced as one.
func (mat *Matrix) Invoke(p *simnet.Proc, from *simnet.Node, ops ...InvokeOp) ([][]float64, error) {
	mat.enterOp(p)
	defer mat.exitOp()
	cost := mat.master.Cl.Cost
	spec := CallSpec{Name: "invoke", ReqBytes: cost.RequestOverheadB, RespBytes: cost.RequestOverheadB}
	declared := true
	for _, op := range ops {
		spec.ReqBytes += op.ReqBytes
		spec.RespBytes += op.RespBytes
		if op.Mutates {
			spec.Mutates = true
			declared = declared && op.DirtyRows != nil
			spec.Touched = append(spec.Touched, op.DirtyRows...)
		}
	}
	if !declared {
		spec.Touched = nil // one undeclared mutation ⇒ conservative marking
	}
	spec.Work = func(_, w int) float64 {
		var total float64
		for _, op := range ops {
			if op.Work != nil {
				total += op.Work(w)
			}
		}
		return total
	}
	partials := make([][]float64, len(ops))
	for i := range partials {
		partials[i] = make([]float64, mat.Part.NumServers())
	}
	spec.Fused = len(ops)
	spec.Fn = func(s int, sh *Shard) error {
		for i, op := range ops {
			if op.Fn != nil {
				// Assign into the (op, server) slot — idempotent under
				// re-execution after a server recovery.
				partials[i][s] = op.Fn(s, sh)
			}
		}
		return nil
	}
	err := mat.fanOut(p, from, spec, nil)
	if len(ops) > 1 {
		mat.master.Net.Batches++
		mat.master.Net.FusedOps += uint64(len(ops))
	}
	if err != nil {
		return nil, err
	}
	return partials, nil
}

func (mat *Matrix) checkRow(row int) {
	if row < 0 || row >= mat.Rows {
		panic(fmt.Sprintf("ps: row %d out of range [0,%d) for matrix %d", row, mat.Rows, mat.ID))
	}
}

// sortedUniqueInts returns xs sorted with duplicates removed (nil in, nil
// out): xs itself when it already is, a sorted copy otherwise.
func sortedUniqueInts(xs []int) []int {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			out := slices.Clone(xs)
			slices.Sort(out)
			return slices.Compact(out)
		}
	}
	return xs
}
