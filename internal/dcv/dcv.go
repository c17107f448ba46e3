// Package dcv implements the paper's core abstraction: the Dimension
// Co-located Vector. A DCV is a vector distributed over parameter servers by
// column. DCVs allocated with Dense get a raw matrix with k pre-allocated
// rows; Derive hands out the matrix's free rows, so derived vectors share one
// column partitioner and every dimension of every derived vector lives on the
// same server as that dimension of the original. That co-location is what
// lets element-wise operators (dot, add, mul, axpy, zip) run entirely
// server-side, with only scalars on the wire.
//
// The operator set mirrors the paper's Table 1 and Figure 3:
//
//	Row access:    Pull, PullIndices, Add, AddDense, Set (rows move);
//	               Sum, Nnz, Norm2 (computed server-side)
//	Column access: Fill, Zero, Scale, Axpy, Dot, CopyFrom, AddVec, SubVec,
//	               MulVec, DivVec, ZipMap, ZipReduce
//	Creation:      Dense, Sparse, Derive
//
// Every server-side operator, from Sum to ZipReduce, is declared once
// (columnops.go). A Vector method runs it alone; a Batch records several and
// runs them as one request per server (fused.go).
package dcv

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// DefaultCapacity is the number of rows pre-allocated in a raw matrix when
// Dense is called without an explicit capacity — the paper's "initial size of
// the matrix (i.e., the k) is usually small, for example ten".
const DefaultCapacity = 10

// ErrNoFreeRows is returned by Derive when the raw matrix's pre-allocated
// rows are exhausted; allocate the original with a larger capacity.
var ErrNoFreeRows = errors.New("dcv: no free rows left in the raw matrix; create the original with a larger capacity")

// ErrNotColocated is returned by operators that require their operands to
// share a raw matrix (created via Derive) when they do not.
var ErrNotColocated = errors.New("dcv: vectors are not dimension co-located; create one with Derive from the other")

// ErrPartitionMismatch is returned by column operators whose operand lives in
// a matrix with an incompatible partitioning (different server count, hence
// different shard ranges): the shuffle path would align slices of different
// widths. Operands must share the target's column layout even when they are
// not co-located.
var ErrPartitionMismatch = errors.New("dcv: operand partitioning incompatible with target")

// Session binds DCV bookkeeping to one parameter-server application: it
// tracks how many rows of each raw matrix are in use so Derive can hand out
// free rows.
type Session struct {
	Master *ps.Master
	used   map[*ps.Matrix]int
}

// NewSession creates a DCV session over a PS master.
func NewSession(m *ps.Master) *Session {
	return &Session{Master: m, used: map[*ps.Matrix]int{}}
}

// Vector is one DCV: a row of a column-partitioned raw matrix.
type Vector struct {
	sess   *Session
	mat    *ps.Matrix
	row    int
	sparse bool
}

// Matrix exposes the raw matrix for tests and low-level extensions.
func (v *Vector) Matrix() *ps.Matrix { return v.mat }

// Row returns the vector's row index inside its raw matrix.
func (v *Vector) Row() int { return v.row }

// Colocated reports whether v and other live in the same raw matrix and so
// share a partitioner and physical placement.
func (v *Vector) Colocated(other *Vector) bool { return v.mat == other.mat }

// Dense allocates a new dense DCV of the given dimension, with capacity
// pre-allocated rows in the raw matrix (DefaultCapacity when omitted).
// Corresponds to the paper's DCV.dense(dim, k).
func (s *Session) Dense(p *simnet.Proc, dim int, capacity ...int) (*Vector, error) {
	k := DefaultCapacity
	if len(capacity) > 0 {
		k = capacity[0]
	}
	if k < 1 {
		return nil, fmt.Errorf("dcv: capacity must be at least 1, got %d", k)
	}
	mat, err := s.Master.CreateMatrix(p, k, dim)
	if err != nil {
		return nil, err
	}
	s.used[mat] = 1
	return &Vector{sess: s, mat: mat, row: 0}, nil
}

// Sparse allocates a DCV whose row-pull traffic is charged by the number of
// nonzero entries instead of the dimension, modelling a sparse server-side
// representation. Corresponds to the paper's DCV.sparse.
func (s *Session) Sparse(p *simnet.Proc, dim int, capacity ...int) (*Vector, error) {
	v, err := s.Dense(p, dim, capacity...)
	if err != nil {
		return nil, err
	}
	v.sparse = true
	return v, nil
}

// Derive returns a fresh DCV co-located with v: the next free row of v's raw
// matrix. It is a pure metadata operation — no server communication — which
// is exactly why deriving is the "correct writing" in the paper's Figure 4.
func (v *Vector) Derive() (*Vector, error) {
	next := v.sess.used[v.mat]
	if next >= v.mat.Rows {
		return nil, ErrNoFreeRows
	}
	v.sess.used[v.mat] = next + 1
	return &Vector{sess: v.sess, mat: v.mat, row: next, sparse: v.sparse}, nil
}

// MustDerive is Derive for initialization paths where exhaustion is a
// programming error.
func (v *Vector) MustDerive() *Vector {
	d, err := v.Derive()
	if err != nil {
		panic(err)
	}
	return d
}

// --- Row access operators (worker <-> server data movement) ---
//
// Operators follow the ps client's rule (ps/client.go): each returns a typed
// error when a shard's server stays unreachable (wrapping ps.ErrServerDown) or
// the calling machine is down (wrapping simnet.ErrNodeDown), and argument
// misuse (wrong dimension) panics.

// Pull fetches the whole vector to the caller's machine, panicking on
// availability errors — the one operator that does, kept for the examples
// and experiments that read a trained model back after the run. For sparse
// DCVs the transfer is charged by stored nonzeros.
func (v *Vector) Pull(p *simnet.Proc, from *simnet.Node) []float64 {
	pull := v.mat.PullRow
	if v.sparse {
		pull = v.mat.PullRowCompressed
	}
	row, err := pull(p, from, v.row)
	if err != nil {
		panic(err)
	}
	return row
}

// PullIndices fetches only the given strictly-increasing dimensions — the
// sparse pull used when a mini-batch touches a small feature subset.
func (v *Vector) PullIndices(p *simnet.Proc, from *simnet.Node, indices []int) ([]float64, error) {
	return v.mat.PullRowIndices(p, from, v.row, indices)
}

// Add pushes a sparse delta into the vector (the DCV add used as the
// gradient push in the paper's Figure 3).
func (v *Vector) Add(p *simnet.Proc, from *simnet.Node, delta *linalg.SparseVector) error {
	return v.mat.PushAdd(p, from, v.row, delta)
}

// AddDense pushes a dense delta into the vector.
func (v *Vector) AddDense(p *simnet.Proc, from *simnet.Node, delta []float64) error {
	return v.mat.PushAddDense(p, from, v.row, delta)
}

// Set overwrites the vector with the given values.
func (v *Vector) Set(p *simnet.Proc, from *simnet.Node, values []float64) error {
	return v.mat.SetRow(p, from, v.row, values)
}

// Sum returns the sum of all elements, computed server-side.
func (v *Vector) Sum(p *simnet.Proc, from *simnet.Node) (float64, error) {
	return v.sess.sum(v).reduce(p, from)
}

// Nnz returns the number of nonzero elements, computed server-side.
func (v *Vector) Nnz(p *simnet.Proc, from *simnet.Node) (int, error) {
	n, err := v.sess.nnz(v).reduce(p, from)
	return int(n), err
}

// Norm2 returns the Euclidean norm, computed server-side.
func (v *Vector) Norm2(p *simnet.Proc, from *simnet.Node) (float64, error) {
	sq, err := v.sess.sumSquares(v).reduce(p, from)
	return math.Sqrt(sq), err
}
