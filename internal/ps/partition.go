// Package ps implements the parameter-server module of PS2: a master that
// manages matrix metadata and server lifetime, servers that store
// column-partitioned matrix shards, and a client used by executors to pull
// rows, push updates and invoke server-side computation.
//
// Following the paper (Section 5.1), the parameter server is a separate
// application from the dataflow engine: internal/rdd knows nothing about it,
// and executors talk to servers through a PS client, so the integration does
// not "hack the core of Spark".
package ps

import "fmt"

// Partitioner maps the columns (dimensions) of a matrix onto servers using
// contiguous ranges. Every row of a matrix shares the one partitioner, which
// is what gives DCVs their dimension co-location guarantee: row r and row r'
// of the same matrix store dimension d on the same server.
type Partitioner struct {
	Dim     int
	Servers int
}

// NewPartitioner creates a range partitioner for dim columns over n servers.
func NewPartitioner(dim, n int) (*Partitioner, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("ps: partitioner dim must be positive, got %d", dim)
	}
	if n <= 0 {
		return nil, fmt.Errorf("ps: partitioner needs at least one server, got %d", n)
	}
	return &Partitioner{Dim: dim, Servers: n}, nil
}

// Range returns the half-open column interval [lo, hi) stored by server s.
// Columns are spread as evenly as possible; the first dim%n servers hold one
// extra column.
func (pt *Partitioner) Range(s int) (lo, hi int) {
	base := pt.Dim / pt.Servers
	extra := pt.Dim % pt.Servers
	if s < extra {
		lo = s * (base + 1)
		hi = lo + base + 1
		return lo, hi
	}
	lo = extra*(base+1) + (s-extra)*base
	hi = lo + base
	return lo, hi
}

// Width returns the number of columns on server s.
func (pt *Partitioner) Width(s int) int {
	lo, hi := pt.Range(s)
	return hi - lo
}

// ServerOf returns the server that stores column col.
func (pt *Partitioner) ServerOf(col int) int {
	if col < 0 || col >= pt.Dim {
		panic(fmt.Sprintf("ps: column %d out of range [0,%d)", col, pt.Dim))
	}
	base := pt.Dim / pt.Servers
	extra := pt.Dim % pt.Servers
	boundary := extra * (base + 1)
	if col < boundary {
		return col / (base + 1)
	}
	// base > 0 here: with base 0 the boundary is Dim, past every column.
	return extra + (col-boundary)/base
}

// runs is a strictly increasing column list split by owning server: of[s]
// lists server s's columns, in order, and their values travel at vals(s, buf)
// of one buffer in split order, the runs end to end. Where the runs
// concatenate in the list's own order (the range partitioner's always do)
// that buffer is aligned with the list and perm is nil. Where a placement
// interleaves servers in the list, perm[j] is the list position of the
// split's j-th column, computed once per call, and order and restore move
// values between the two orders.
type runs struct {
	of   [][]int
	perm []int
}

// splitRuns splits indices (strictly increasing) by pl's owning server.
func splitRuns(pl Placement, indices []int) runs {
	r := runs{of: pl.SplitIndices(indices)}
	at := 0
	for _, run := range r.of {
		if n := len(run); n > 0 && (run[0] != indices[at] || run[n-1] != indices[at+n-1]) {
			break
		}
		at += len(run)
	}
	if at == len(indices) {
		return r
	}
	// The runs interleave: each column goes to its server's next place.
	r.perm = make([]int, len(indices))
	next := make([]int, len(r.of))
	for s := 1; s < len(next); s++ {
		next[s] = next[s-1] + len(r.of[s-1])
	}
	for k, col := range indices {
		s := pl.ServerOf(col)
		r.perm[next[s]] = k
		next[s]++
	}
	return r
}

// vals returns server s's stretch of a buffer in split order.
func (r runs) vals(s int, buf []float64) []float64 {
	at := 0
	for _, run := range r.of[:s] {
		at += len(run)
	}
	end := at + len(r.of[s])
	return buf[at:end:end]
}

// order returns vals, aligned with the list, in split order: vals itself
// unless the runs interleave.
func (r runs) order(vals []float64) []float64 {
	if r.perm == nil {
		return vals
	}
	out := make([]float64, len(vals))
	for j, k := range r.perm {
		out[j] = vals[k]
	}
	return out
}

// buffer returns the split-order buffer whose values restore moves into
// out: out itself unless the runs interleave.
func (r runs) buffer(out []float64) []float64 {
	if r.perm == nil {
		return out
	}
	return make([]float64, len(out))
}

// restore moves buf, in split order, into out, aligned with the list; a
// no-op when buffer returned out itself.
func (r runs) restore(buf, out []float64) {
	for j, k := range r.perm {
		out[k] = buf[j]
	}
}

// SplitIndices groups sorted column indices by owning server, returning for
// each server the sub-slice of indices it owns (empty slices for servers
// with no hits). Indices must be strictly increasing, as in
// linalg.SparseVector.
func (pt *Partitioner) SplitIndices(indices []int) [][]int {
	out := make([][]int, pt.Servers)
	start := 0
	for s := 0; s < pt.Servers && start < len(indices); s++ {
		_, hi := pt.Range(s)
		end := start
		for end < len(indices) && indices[end] < hi {
			end++
		}
		out[s] = indices[start:end]
		start = end
	}
	return out
}
