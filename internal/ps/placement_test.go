package ps

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/linalg"
	"repro/internal/simnet"
)

// testPlacements builds one of each placement kind for a (dim, servers)
// pair, with a deterministic pseudo-profile for the load-aware one.
func testPlacements(t *testing.T, dim, n int) map[string]Placement {
	t.Helper()
	weight := make([]float64, dim)
	for c := range weight {
		weight[c] = float64((c*2654435761)%97) + 1
	}
	rp, err := NewPartitioner(dim, n)
	if err != nil {
		t.Fatal(err)
	}
	bh, err := NewBlockHashPlacement(dim, n, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	la, err := NewLoadAwarePlacement(dim, n, weight, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Placement{"range": rp, "blockhash": bh, "loadaware": la}
}

// TestPlacementContract checks every implementation against the interface
// contract: views partition the dimension, ServerOf agrees with the views,
// SplitIndices routes exactly like ServerOf, and widths sum to the dim.
func TestPlacementContract(t *testing.T) {
	for _, tc := range []struct{ dim, n int }{{1, 1}, {10, 3}, {64, 8}, {100, 7}, {3, 8}, {7, 7}} {
		for name, pl := range testPlacements(t, tc.dim, tc.n) {
			label := fmt.Sprintf("%s dim=%d n=%d", name, tc.dim, tc.n)
			if pl.NumCols() != tc.dim || pl.NumServers() != tc.n {
				t.Fatalf("%s: NumCols/NumServers = %d/%d", label, pl.NumCols(), pl.NumServers())
			}
			owner := make([]int, tc.dim)
			for c := 0; c < tc.dim; c++ {
				owner[c] = -1
			}
			total := 0
			for s := 0; s < tc.n; s++ {
				v := pl.View(s)
				if v.Width() != pl.Width(s) {
					t.Fatalf("%s: server %d View width %d != Width %d", label, s, v.Width(), pl.Width(s))
				}
				total += v.Width()
				prev := -1
				for i := 0; i < v.Width(); i++ {
					c := v.At(i)
					if c <= prev {
						t.Fatalf("%s: server %d columns not ascending at %d", label, s, i)
					}
					prev = c
					if owner[c] != -1 {
						t.Fatalf("%s: column %d owned by servers %d and %d", label, c, owner[c], s)
					}
					owner[c] = s
					if got := pl.ServerOf(c); got != s {
						t.Fatalf("%s: ServerOf(%d) = %d, view says %d", label, c, got, s)
					}
				}
			}
			if total != tc.dim {
				t.Fatalf("%s: views cover %d of %d columns", label, total, tc.dim)
			}
			all := make([]int, tc.dim)
			for c := range all {
				all[c] = c
			}
			parts := pl.SplitIndices(all)
			if len(parts) != tc.n {
				t.Fatalf("%s: SplitIndices returned %d groups", label, len(parts))
			}
			for s, grp := range parts {
				for _, c := range grp {
					if owner[c] != s {
						t.Fatalf("%s: SplitIndices put column %d on %d, owner is %d", label, c, s, owner[c])
					}
				}
			}
		}
	}
}

// TestSamePlacementFingerprints pins compatibility semantics: same
// construction compares equal (cross-matrix zips allowed), anything that
// changes the column→server map does not.
func TestSamePlacementFingerprints(t *testing.T) {
	r1, _ := NewPartitioner(100, 4)
	r2, _ := NewPartitioner(100, 4)
	r3, _ := NewPartitioner(100, 5)
	b1, _ := NewBlockHashPlacement(100, 4, 8, 1)
	b2, _ := NewBlockHashPlacement(100, 4, 8, 1)
	b3, _ := NewBlockHashPlacement(100, 4, 8, 2)
	if !SamePlacement(r1, r2) || !SamePlacement(b1, b2) {
		t.Fatal("identically constructed placements must compare equal")
	}
	if SamePlacement(r1, r3) || SamePlacement(b1, b3) || SamePlacement(r1, b1) {
		t.Fatal("different column→server maps must not compare equal")
	}
	w := make([]float64, 100)
	for i := range w {
		w[i] = float64(i % 7)
	}
	l1, _ := NewLoadAwarePlacement(100, 4, w, 8)
	l2, _ := NewLoadAwarePlacement(100, 4, w, 8)
	if !SamePlacement(l1, l2) {
		t.Fatal("loadaware placements from the same profile must compare equal")
	}
}

// TestPlacementOpsMatchOracle is the co-location property test: the same
// operation sequence against a single-server matrix (the oracle — every op
// trivially exact) and against each placement on six servers must read back
// identical values at every step, including fused programs and reductions.
func TestPlacementOpsMatchOracle(t *testing.T) {
	const dim, rows = 37, 3
	weight := make([]float64, dim)
	for c := range weight {
		weight[c] = float64((c * 13) % 11)
	}
	la, _ := NewLoadAwarePlacement(dim, 6, weight, 4)
	bh, _ := NewBlockHashPlacement(dim, 6, 4, 9)
	rp, _ := NewPartitioner(dim, 6)

	// One simulation per arm keeps virtual-time bookkeeping independent.
	// Each of lists is pushed into row 2 and pulled back after the fixed
	// sequence, its reads appended to the results.
	runArm := func(pl Placement, lists ...[]int) [][]float64 {
		sim, cl, m := testMaster(6)
		if pl == nil {
			sim, cl, m = testMaster(1)
		}
		var out [][]float64
		run(sim, func(p *simnet.Proc) {
			worker := cl.Executors[0]
			var mat *Matrix
			var err error
			if pl == nil {
				mat, err = m.CreateMatrix(p, rows, dim)
			} else {
				mat, err = m.CreateMatrixPlaced(p, rows, dim, pl)
			}
			if err != nil {
				panic(err)
			}
			init := make([]float64, dim)
			for c := range init {
				init[c] = math.Sin(float64(c))
			}
			mustOK(mat.SetRow(p, worker, 0, init))
			sv, _ := linalg.NewSparse([]int{1, 5, 17, 30, 36}, []float64{0.5, -2, 3.25, 1, -0.125})
			mustOK(mat.PushAdd(p, worker, 0, sv))
			dense := make([]float64, dim)
			for c := range dense {
				dense[c] = float64(c%5) * 0.25
			}
			mustOK(mat.PushAddDense(p, worker, 1, dense))
			part := make([]float64, dim)
			copy(part[10:25], init[10:25])
			mustOK(mat.SetRow(p, worker, 2, part))
			// A fused program: scale row 0, then reduce its sum — exercises
			// the per-shard program path under every placement.
			partials, err := mat.Invoke(p, worker, []InvokeOp{
				{ReqBytes: 16, Mutates: true, DirtyRows: []int{0},
					Work: func(w int) float64 { return float64(w) },
					Fn: func(_ int, sh *Shard) float64 {
						for i := range sh.Rows[0] {
							sh.Rows[0][i] *= 1.5
						}
						return 0
					}},
				{ReqBytes: 16, RespBytes: 8,
					Work: func(w int) float64 { return float64(w) },
					Fn: func(_ int, sh *Shard) float64 {
						var s float64
						for _, x := range sh.Rows[0] {
							s += x
						}
						return s
					}},
			}...)
			if err != nil {
				panic(err)
			}
			var fusedSum float64
			for _, x := range partials[1] {
				fusedSum += x
			}
			r0 := must(mat.PullRow(p, worker, 0))
			r1 := must(mat.PullRowIndices(p, worker, 1, []int{0, 4, 9, 20, 36}, nil))
			span := make([]int, 22)
			for i := range span {
				span[i] = 8 + i
			}
			r2 := must(mat.PullRowIndices(p, worker, 2, span, nil))
			// A longer list whose columns interleave the server groups of
			// the hashed placements: pushed, then pulled back.
			var long []int
			for c := 0; c < dim; c++ {
				if c%3 != 1 {
					long = append(long, c)
				}
			}
			lv := make([]float64, len(long))
			for i := range lv {
				lv[i] = float64(i) - 7.5
			}
			mustOK(mat.PushAdd(p, worker, 1, must(linalg.NewSparse(long, lv))))
			r3 := must(mat.PullRowIndices(p, worker, 1, long, nil))
			out = [][]float64{r0, r1, r2, {fusedSum}, r3}
			for _, cols := range lists {
				vals := make([]float64, len(cols))
				for i, c := range cols {
					vals[i] = 0.75*float64(c) - 3
				}
				mustOK(mat.PushAdd(p, worker, 2, must(linalg.NewSparse(cols, vals))))
				out = append(out, must(mat.PullRowIndices(p, worker, 2, cols, nil)))
			}
		})
		return out
	}

	oracle := runArm(nil)
	for _, a := range []struct {
		name string
		pl   Placement
	}{{"range", rp}, {"blockhash", bh}, {"loadaware", la}} {
		got := runArm(a.pl)
		for _, i := range []int{0, 1, 2, 4} { // element reads: exact under any placement
			if len(got[i]) != len(oracle[i]) {
				t.Fatalf("%s: result %d length %d != oracle %d", a.name, i, len(got[i]), len(oracle[i]))
			}
			for j := range oracle[i] {
				if got[i][j] != oracle[i][j] {
					t.Fatalf("%s: result %d[%d] = %v, oracle %v", a.name, i, j, got[i][j], oracle[i][j])
				}
			}
		}
		// The fused reduction sums per-shard partials, so a different shard
		// carve regroups the float additions; only near-equality is promised
		// across server counts.
		if diff := math.Abs(got[3][0] - oracle[3][0]); diff > 1e-9*math.Abs(oracle[3][0]) {
			t.Fatalf("%s: fused sum %v vs oracle %v", a.name, got[3][0], oracle[3][0])
		}
	}

	// Sparse pushes and pulls whose columns all land on one server of the
	// placement (every server's own columns in turn), and one that spans all
	// six servers (each server's first and last two columns): exact against
	// the oracle on the same lists. bh leaves server 0 without columns at
	// this width; seed 16 gives every server some.
	bhAll, _ := NewBlockHashPlacement(dim, 6, 4, 16)
	for _, a := range []struct {
		name string
		pl   Placement
	}{{"range", rp}, {"blockhash", bhAll}, {"loadaware", la}} {
		var lists [][]int
		var spanning []int
		for s := 0; s < a.pl.NumServers(); s++ {
			v := a.pl.View(s)
			if v.Width() < 2 {
				t.Fatalf("%s: server %d owns %d columns, want at least 2", a.name, s, v.Width())
			}
			own := make([]int, v.Width())
			for i := range own {
				own[i] = v.At(i)
			}
			lists = append(lists, own)
			spanning = append(spanning, own[:2]...)
			spanning = append(spanning, own[len(own)-2:]...)
		}
		sort.Ints(spanning)
		lists = append(lists, slices.Compact(spanning))
		want, got := runArm(nil, lists...), runArm(a.pl, lists...)
		for i := 5; i < len(want); i++ {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: columns %v read back %v, oracle %v", a.name, lists[i-5], got[i], want[i])
			}
		}
	}
}

// TestZeroWidthShards drives dim < servers — most shards own no columns —
// through pull, push, fused invoke, checkpoint and restore.
func TestZeroWidthShards(t *testing.T) {
	for name, pl := range testPlacements(t, 3, 8) {
		sim, cl, m := testMaster(8)
		run(sim, func(p *simnet.Proc) {
			worker := cl.Executors[0]
			mat, err := m.CreateMatrixPlaced(p, 2, 3, pl)
			if err != nil {
				panic(err)
			}
			mustOK(mat.SetRow(p, worker, 0, []float64{1, 2, 3}))
			sv, _ := linalg.NewSparse([]int{0, 2}, []float64{10, 30})
			mustOK(mat.PushAdd(p, worker, 0, sv))
			if _, err := mat.Invoke(p, worker, InvokeOp{ReqBytes: 8, Mutates: true, DirtyRows: []int{0},
				Work: func(w int) float64 { return float64(w) },
				Fn: func(_ int, sh *Shard) float64 {
					for i := range sh.Rows[0] {
						sh.Rows[0][i] += 1
					}
					return 0
				}}); err != nil {
				panic(err)
			}
			m.Checkpoint(p, mat)
			m.CrashServer(0)
			m.RecoverServer(p, 0)
			got := must(mat.PullRow(p, worker, 0))
			want := []float64{12, 3, 34}
			for c := range want {
				if got[c] != want[c] {
					t.Errorf("%s: after restore row[%d] = %v, want %v", name, c, got[c], want[c])
				}
			}
		})
	}
}

// TestNonContiguousCheckpointRestore crashes a server under a block-hash
// placement and checks the restored shard reassembles the exact pre-crash
// values — the shard view (not a contiguous range) must round-trip through
// the checkpoint store.
func TestNonContiguousCheckpointRestore(t *testing.T) {
	pl, _ := NewBlockHashPlacement(40, 4, 4, 7)
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrixPlaced(p, 2, 40, pl)
		if err != nil {
			panic(err)
		}
		vals := make([]float64, 40)
		for c := range vals {
			vals[c] = float64(c) + 0.5
		}
		mustOK(mat.SetRow(p, worker, 1, vals))
		m.Checkpoint(p, mat)
		m.CrashServer(2)
		m.RecoverServer(p, 2)
		got := must(mat.PullRow(p, worker, 1))
		for c := range vals {
			if got[c] != vals[c] {
				t.Fatalf("restored row[%d] = %v, want %v", c, got[c], vals[c])
			}
		}
	})
}

// TestHotReplicaBitIdenticalAtClockBoundZero interleaves writes, clock ticks
// and replica-served reads, comparing every read against the owner-routed
// pull: at staleness 0 the replica layer must be invisible to the values.
func TestHotReplicaBitIdenticalAtClockBoundZero(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 1, 32)
		if err != nil {
			panic(err)
		}
		rs, err := NewHotReplicaSet(mat, ReplicaConfig{HotCols: []int{0, 3, 7, 15, 31}})
		if err != nil {
			panic(err)
		}
		idx := []int{0, 2, 3, 7, 12, 15, 20, 31}
		for round := 0; round < 6; round++ {
			sv, _ := linalg.NewSparse([]int{3, 15, 20}, []float64{float64(round) + 0.25, -1, 2})
			mustOK(mat.PushAdd(p, worker, 0, sv))
			mat.TickClock()
			// More pulls than servers: the round-robin rotation revisits
			// stores within the clock, so later pulls must hit locally.
			for rep := 0; rep < 8; rep++ {
				got := must(rs.PullRowIndices(p, worker, 0, idx, nil))
				want := must(mat.PullRowIndices(p, worker, 0, idx, nil))
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("round %d rep %d: replica read col %d = %v, owner %v",
							round, rep, idx[k], got[k], want[k])
					}
				}
			}
		}
		st := rs.Stats()
		if st.Reads == 0 || st.LocalHits == 0 {
			t.Fatalf("replica layer not exercised: %+v", st)
		}
		if st.OwnerFetches == 0 || st.ChangedVals == 0 {
			t.Fatalf("revalidation never happened: %+v", st)
		}
	})
}

// TestHotReplicaSurvivesRecovery fences replica state across a server crash:
// reads after the owner (and a serving store) die and recover must still
// match the owner-routed values. The recovery rolls the owner back past a
// write the copies hold, and the reads come at the same model clock as the
// copies' validation, so only the epoch fence keeps the copies from being
// served.
func TestHotReplicaSurvivesRecovery(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 1, 32)
		if err != nil {
			panic(err)
		}
		vals := make([]float64, 32)
		for c := range vals {
			vals[c] = float64(c) * 1.25
		}
		mustOK(mat.SetRow(p, worker, 0, vals))
		m.Checkpoint(p, mat)
		sv, _ := linalg.NewSparse([]int{0, 1, 2, 3}, []float64{1, 1, 1, 1})
		mustOK(mat.PushAdd(p, worker, 0, sv)) // lost with the owner: after the checkpoint
		rs, err := NewHotReplicaSet(mat, ReplicaConfig{HotCols: []int{0, 1, 2, 3}})
		if err != nil {
			panic(err)
		}
		idx := []int{0, 1, 2, 3, 10}
		for i := 0; i < 4; i++ { // warm every rotating store
			must(rs.PullRowIndices(p, worker, 0, idx, nil))
		}
		m.CrashServer(0) // owner of the hot prefix under range placement
		m.RecoverServer(p, 0)
		for i := 0; i < 4; i++ { // every store must refetch and agree
			got := must(rs.PullRowIndices(p, worker, 0, idx, nil))
			want := must(mat.PullRowIndices(p, worker, 0, idx, nil))
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("post-recovery replica read col %d = %v, owner %v", idx[k], got[k], want[k])
				}
			}
		}
		if rs.Stats().EpochFences == 0 {
			t.Fatal("recovery did not fence any replica state")
		}
	})
}
