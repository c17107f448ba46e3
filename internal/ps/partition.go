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

import (
	"fmt"
	"sort"
)

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
	if base == 0 {
		return extra - 1 // unreachable when col < Dim, kept for safety
	}
	return extra + (col-boundary)/base
}

// cursor maps the columns of one SplitIndices group back to their positions
// in the sorted list the group was split from. A group keeps the list's
// order, so each lookup resumes at the last hit and, on a miss, binary
// searches only the remaining suffix: a range partition's contiguous group
// maps in O(n), and interleaved groups cost no more than one search per
// column.
type cursor struct {
	all []int
	at  int
}

// pos returns col's position in all; cols must come in increasing order.
func (c *cursor) pos(col int) int {
	if c.at < len(c.all) && c.all[c.at] != col {
		c.at += sort.SearchInts(c.all[c.at:], col)
	}
	c.at++
	return c.at - 1
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
