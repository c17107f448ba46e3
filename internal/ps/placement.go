package ps

// This file is the placement layer: the column→server map behind every
// matrix. The paper's dimension co-location guarantee (§5.2) only requires
// that all rows of one matrix — and hence all DCVs derived from it — share
// the SAME map; it does not require the map to be a contiguous range. The
// Placement interface captures exactly that contract, and three
// implementations ship behind it:
//
//   - Partitioner: contiguous column ranges, one per server, the default;
//   - BlockHashPlacement: fixed-size column blocks hashed to servers —
//     skew-resistant without any access profile, in the spirit of NuPS's
//     relocation-free hashing (Renz-Wieland et al., VLDB 2022);
//   - LoadAwarePlacement: greedy bin-packing of column blocks by sampled
//     access frequency, for workloads skewed enough that even hashing leaves
//     a hot server.
//
// Shards store their columns densely in local order; ColView is the bridge
// between local storage positions and absolute column indices, with a
// contiguous fast path (Cols == nil) that keeps the default placement free
// of per-element indirection.

import (
	"fmt"
	"sort"

	"repro/internal/linalg"
)

// ColView describes the set of columns one server owns, in the local order
// the shard stores them. Cols == nil means the contiguous range [Lo, Hi) —
// the fast path every range-placed shard uses; otherwise Cols lists the
// owned columns in strictly increasing order and Lo/Hi are 0.
type ColView struct {
	Lo, Hi int
	Cols   []int
}

// Width returns the number of columns in the view.
func (v ColView) Width() int {
	if v.Cols != nil {
		return len(v.Cols)
	}
	return v.Hi - v.Lo
}

// Contiguous reports whether the view is a dense range.
func (v ColView) Contiguous() bool { return v.Cols == nil }

// At returns the absolute column index stored at local position i.
func (v ColView) At(i int) int {
	if v.Cols != nil {
		return v.Cols[i]
	}
	return v.Lo + i
}

// Scatter writes the local-order values into their absolute positions of a
// full-dimension vector: full[At(i)] = local[i].
func (v ColView) Scatter(local, full []float64) {
	if v.Cols == nil {
		copy(full[v.Lo:v.Hi], local)
		return
	}
	for i, c := range v.Cols {
		full[c] = local[i]
	}
}

// Gather fills local from the view's absolute positions of a full-dimension
// vector: local[i] = full[At(i)].
func (v ColView) Gather(local, full []float64) {
	if v.Cols == nil {
		copy(local, full[v.Lo:v.Hi])
		return
	}
	for i, c := range v.Cols {
		local[i] = full[c]
	}
}

// GatherAdd accumulates the view's absolute positions of a full-dimension
// vector into local: local[i] += full[At(i)].
func (v ColView) GatherAdd(local, full []float64) {
	if v.Cols == nil {
		// Unrolled kernel; fans wide shards out over the worker pool.
		linalg.Add(local, full[v.Lo:v.Hi])
		return
	}
	for i, c := range v.Cols {
		local[i] += full[c]
	}
}

// Placement is the column→server map of one matrix: which server owns each
// column, and in what local order each server stores its columns. Every row
// of a matrix shares the one placement, which is what gives DCVs their
// dimension co-location guarantee — two vectors derived from the same matrix
// store dimension d on the same server, whatever the map looks like.
//
// Contract: ServerOf(c) == s exactly when c appears in View(s); views are
// disjoint and cover [0, NumCols()); View(s).At is strictly increasing in
// its argument; SplitIndices(idx) groups a strictly increasing index list by
// owning server, preserving order (so each group is itself strictly
// increasing — the local storage order). Fingerprint is a value identity:
// two placements with equal fingerprints place every column identically,
// which is the compatibility check DCV zip ops and cache fencing key on.
type Placement interface {
	NumCols() int
	NumServers() int
	ServerOf(col int) int
	Width(s int) int
	View(s int) ColView
	SplitIndices(indices []int) [][]int
	Fingerprint() string
}

// SamePlacement reports whether two placements map every column to the same
// server (the DCV co-location compatibility check).
func SamePlacement(a, b Placement) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a == b || a.Fingerprint() == b.Fingerprint()
}

// NumCols returns the matrix dimension.
func (pt *Partitioner) NumCols() int { return pt.Dim }

// NumServers returns the server count.
func (pt *Partitioner) NumServers() int { return pt.Servers }

// View returns server s's contiguous column range as a ColView.
func (pt *Partitioner) View(s int) ColView {
	lo, hi := pt.Range(s)
	return ColView{Lo: lo, Hi: hi}
}

// Fingerprint identifies the placement by value: every range placement with
// the same dim and server count maps columns identically.
func (pt *Partitioner) Fingerprint() string {
	return fmt.Sprintf("range:%d/%d", pt.Dim, pt.Servers)
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed hash used to spray column blocks across servers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BlockHashPlacement maps fixed-size column blocks to servers by hash:
// block b = [b*Block, (b+1)*Block) lives on splitmix64(b ^ seed) % servers.
// Skewed workloads whose hot columns cluster in index space (or land
// unluckily under a range split) get spread without any access profile, at
// the cost of non-contiguous shards.
type BlockHashPlacement struct {
	Dim     int
	Servers int
	Block   int
	Seed    uint64

	views []ColView
}

// DefaultPlacementBlock is the column-block granularity used when a block
// size of 0 is requested: small enough to split hot clusters, large enough
// that per-block hashing stays cheap.
const DefaultPlacementBlock = 16

// NewBlockHashPlacement creates a block-hash placement. block <= 0 selects
// DefaultPlacementBlock; seed varies the block→server spray.
func NewBlockHashPlacement(dim, n, block int, seed uint64) (*BlockHashPlacement, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("ps: placement dim must be positive, got %d", dim)
	}
	if n <= 0 {
		return nil, fmt.Errorf("ps: placement needs at least one server, got %d", n)
	}
	if block <= 0 {
		block = DefaultPlacementBlock
	}
	pl := &BlockHashPlacement{Dim: dim, Servers: n, Block: block, Seed: seed}
	pl.views = buildViews(dim, n, pl.ServerOf)
	return pl, nil
}

// NumCols returns the matrix dimension.
func (pl *BlockHashPlacement) NumCols() int { return pl.Dim }

// NumServers returns the server count.
func (pl *BlockHashPlacement) NumServers() int { return pl.Servers }

// ServerOf returns the server owning column col.
func (pl *BlockHashPlacement) ServerOf(col int) int {
	if col < 0 || col >= pl.Dim {
		panic(fmt.Sprintf("ps: column %d out of range [0,%d)", col, pl.Dim))
	}
	return int(splitmix64(uint64(col/pl.Block)^pl.Seed) % uint64(pl.Servers))
}

// Width returns the number of columns on server s.
func (pl *BlockHashPlacement) Width(s int) int { return pl.views[s].Width() }

// View returns server s's owned columns.
func (pl *BlockHashPlacement) View(s int) ColView { return pl.views[s] }

// SplitIndices groups a strictly increasing index list by owning server.
func (pl *BlockHashPlacement) SplitIndices(indices []int) [][]int {
	return splitByServer(pl.Servers, indices, pl.ServerOf)
}

// Fingerprint identifies the placement by its defining parameters.
func (pl *BlockHashPlacement) Fingerprint() string {
	return fmt.Sprintf("blockhash:%d/%d/b%d/s%x", pl.Dim, pl.Servers, pl.Block, pl.Seed)
}

// LoadAwarePlacement assigns column blocks to servers by greedy bin-packing
// of sampled access frequencies: blocks are taken in decreasing weight order
// and each goes to the currently lightest server, so the hottest blocks end
// up spread across servers and the expected per-server load is near-uniform.
// Build one from a profile (feature frequencies counted over a data sample)
// with NewLoadAwarePlacement.
type LoadAwarePlacement struct {
	Dim     int
	Servers int
	Block   int

	blockServer []int // block index → owning server
	views       []ColView
	fingerprint string
}

// NewLoadAwarePlacement bin-packs dim columns over n servers using weight[c]
// as column c's sampled access frequency (len(weight) must equal dim; zero
// weights are fine — unaccessed blocks still spread round-robin by the
// deterministic tie-break). block <= 0 selects DefaultPlacementBlock.
func NewLoadAwarePlacement(dim, n int, weight []float64, block int) (*LoadAwarePlacement, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("ps: placement dim must be positive, got %d", dim)
	}
	if n <= 0 {
		return nil, fmt.Errorf("ps: placement needs at least one server, got %d", n)
	}
	if len(weight) != dim {
		return nil, fmt.Errorf("ps: load profile has %d weights for dim %d", len(weight), dim)
	}
	if block <= 0 {
		block = DefaultPlacementBlock
	}
	nBlocks := (dim + block - 1) / block
	type wb struct {
		block  int
		weight float64
	}
	blocks := make([]wb, nBlocks)
	for b := 0; b < nBlocks; b++ {
		blocks[b].block = b
		for c := b * block; c < min((b+1)*block, dim); c++ {
			blocks[b].weight += weight[c]
		}
	}
	// Heaviest first; equal weights keep block order so the packing is
	// deterministic for any profile.
	sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].weight > blocks[j].weight })
	load := make([]float64, n)
	count := make([]int, n)
	assign := make([]int, nBlocks)
	for _, b := range blocks {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] || (load[s] == load[best] && count[s] < count[best]) {
				best = s
			}
		}
		assign[b.block] = best
		load[best] += b.weight
		count[best]++
	}
	pl := &LoadAwarePlacement{Dim: dim, Servers: n, Block: block, blockServer: assign}
	pl.views = buildViews(dim, n, pl.ServerOf)
	// Value identity: hash the assignment so two placements built from
	// different profiles that happen to pack identically compare equal.
	h := uint64(14695981039346656037)
	for _, s := range assign {
		h = (h ^ uint64(s)) * 1099511628211
	}
	pl.fingerprint = fmt.Sprintf("loadaware:%d/%d/b%d/%016x", dim, n, block, h)
	return pl, nil
}

// NumCols returns the matrix dimension.
func (pl *LoadAwarePlacement) NumCols() int { return pl.Dim }

// NumServers returns the server count.
func (pl *LoadAwarePlacement) NumServers() int { return pl.Servers }

// ServerOf returns the server owning column col.
func (pl *LoadAwarePlacement) ServerOf(col int) int {
	if col < 0 || col >= pl.Dim {
		panic(fmt.Sprintf("ps: column %d out of range [0,%d)", col, pl.Dim))
	}
	return pl.blockServer[col/pl.Block]
}

// Width returns the number of columns on server s.
func (pl *LoadAwarePlacement) Width(s int) int { return pl.views[s].Width() }

// View returns server s's owned columns.
func (pl *LoadAwarePlacement) View(s int) ColView { return pl.views[s] }

// SplitIndices groups a strictly increasing index list by owning server.
func (pl *LoadAwarePlacement) SplitIndices(indices []int) [][]int {
	return splitByServer(pl.Servers, indices, pl.ServerOf)
}

// Fingerprint identifies the placement by its block→server assignment.
func (pl *LoadAwarePlacement) Fingerprint() string { return pl.fingerprint }

// buildViews materializes every server's owned-column list for a placement
// given its ServerOf function, collapsing each to the contiguous fast path
// when the owned set happens to be a dense range.
func buildViews(dim, n int, serverOf func(int) int) []ColView {
	cols := make([][]int, n)
	for c := 0; c < dim; c++ {
		s := serverOf(c)
		cols[s] = append(cols[s], c)
	}
	views := make([]ColView, n)
	for s := range views {
		views[s] = viewFromCols(cols[s])
	}
	return views
}

// viewFromCols wraps a strictly increasing column list as a ColView, using
// the contiguous representation when possible.
func viewFromCols(cols []int) ColView {
	if len(cols) == 0 {
		return ColView{}
	}
	if cols[len(cols)-1]-cols[0] == len(cols)-1 {
		return ColView{Lo: cols[0], Hi: cols[0] + len(cols)}
	}
	return ColView{Cols: cols}
}

// splitByServer groups a strictly increasing index list by owning server,
// preserving order within each group.
func splitByServer(n int, indices []int, serverOf func(int) int) [][]int {
	out := make([][]int, n)
	if len(indices) == 0 {
		return out
	}
	counts := make([]int, n)
	for _, col := range indices {
		counts[serverOf(col)]++
	}
	// One backing array, sliced per server — mirrors the range splitter's
	// zero-copy sub-slicing shape.
	buf := make([]int, len(indices))
	offs := make([]int, n)
	pos := 0
	for s := 0; s < n; s++ {
		offs[s] = pos
		out[s] = buf[pos:pos]
		pos += counts[s]
	}
	for _, col := range indices {
		s := serverOf(col)
		buf[offs[s]] = col
		offs[s]++
		out[s] = out[s][:len(out[s])+1]
	}
	return out
}
