package ps

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/linalg"
	"repro/internal/simnet"
)

func testMaster(servers int) (*simnet.Sim, *cluster.Cluster, *Master) {
	sim := simnet.New()
	cfg := cluster.DefaultConfig()
	cfg.Executors = 4
	cfg.Servers = servers
	cl := cluster.New(sim, cfg)
	return sim, cl, NewMaster(cl)
}

func run(sim *simnet.Sim, fn func(p *simnet.Proc)) {
	sim.Spawn("coordinator", fn)
	sim.Run()
}

// must returns v, panicking with err, which fails the run, when it is not
// nil; mustOK is must for operators that return only an error.
func must[T any](v T, err error) T {
	mustOK(err)
	return v
}

func mustOK(err error) {
	if err != nil {
		panic(err)
	}
}

func TestPartitionerCoversDisjoint(t *testing.T) {
	for _, tc := range []struct{ dim, n int }{{10, 3}, {1, 1}, {7, 7}, {100, 9}, {5, 8}} {
		pt, err := NewPartitioner(tc.dim, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]int, tc.dim)
		for s := 0; s < tc.n; s++ {
			lo, hi := pt.Range(s)
			if lo > hi {
				t.Fatalf("dim=%d n=%d server %d: lo %d > hi %d", tc.dim, tc.n, s, lo, hi)
			}
			for c := lo; c < hi; c++ {
				covered[c]++
				if got := pt.ServerOf(c); got != s {
					t.Fatalf("dim=%d n=%d: ServerOf(%d) = %d, want %d", tc.dim, tc.n, c, got, s)
				}
			}
		}
		for c, n := range covered {
			if n != 1 {
				t.Fatalf("dim=%d n=%d: column %d covered %d times", tc.dim, tc.n, c, n)
			}
		}
	}
}

func TestPartitionerRejectsBadArgs(t *testing.T) {
	if _, err := NewPartitioner(0, 3); err == nil {
		t.Fatal("dim=0 accepted")
	}
	if _, err := NewPartitioner(5, 0); err == nil {
		t.Fatal("servers=0 accepted")
	}
}

// Property: for any dim and server count, ranges are balanced within one
// column and ServerOf agrees with Range.
func TestPartitionerProperty(t *testing.T) {
	f := func(dimRaw uint16, nRaw uint8) bool {
		dim := int(dimRaw%5000) + 1
		n := int(nRaw%64) + 1
		pt, err := NewPartitioner(dim, n)
		if err != nil {
			return false
		}
		minW, maxW := dim+1, -1
		total := 0
		for s := 0; s < n; s++ {
			w := pt.Width(s)
			total += w
			if w < minW {
				minW = w
			}
			if w > maxW {
				maxW = w
			}
		}
		if total != dim || maxW-minW > 1 {
			return false
		}
		// Spot-check ServerOf on boundaries.
		for s := 0; s < n; s++ {
			lo, hi := pt.Range(s)
			if lo < hi && (pt.ServerOf(lo) != s || pt.ServerOf(hi-1) != s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndices(t *testing.T) {
	pt, _ := NewPartitioner(100, 4) // ranges of 25
	idx := []int{0, 10, 24, 25, 30, 75, 99}
	split := pt.SplitIndices(idx)
	want := [][]int{{0, 10, 24}, {25, 30}, {}, {75, 99}}
	for s := range want {
		if len(split[s]) != len(want[s]) {
			t.Fatalf("server %d got %v, want %v", s, split[s], want[s])
		}
		for k := range want[s] {
			if split[s][k] != want[s][k] {
				t.Fatalf("server %d got %v, want %v", s, split[s], want[s])
			}
		}
	}
}

// Property: SplitIndices preserves order and loses nothing.
func TestSplitIndicesProperty(t *testing.T) {
	f := func(raw []uint16, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		dim := 2000
		pt, _ := NewPartitioner(dim, n)
		set := map[int]bool{}
		for _, r := range raw {
			set[int(r)%dim] = true
		}
		idx := make([]int, 0, len(set))
		for v := range set {
			idx = append(idx, v)
		}
		sort.Ints(idx)
		split := pt.SplitIndices(idx)
		var rejoined []int
		for s, part := range split {
			lo, hi := pt.Range(s)
			for _, c := range part {
				if c < lo || c >= hi {
					return false
				}
			}
			rejoined = append(rejoined, part...)
		}
		if len(rejoined) != len(idx) {
			return false
		}
		for i := range idx {
			if rejoined[i] != idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCreatePullPushRoundTrip(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 2, 100)
		if err != nil {
			t.Error(err)
			return
		}
		worker := cl.Executors[0]
		row := must(mat.PullRow(p, worker, 0))
		if len(row) != 100 || linalg.Sum(row) != 0 {
			t.Errorf("fresh matrix row not zero: sum=%v", linalg.Sum(row))
		}
		sv, _ := linalg.NewSparse([]int{3, 26, 99}, []float64{1, 2, 3})
		mustOK(mat.PushAdd(p, worker, 0, sv))
		mustOK(mat.PushAdd(p, worker, 0, sv))
		row = must(mat.PullRow(p, worker, 0))
		if row[3] != 2 || row[26] != 4 || row[99] != 6 {
			t.Errorf("push-add wrong: %v %v %v", row[3], row[26], row[99])
		}
		vals := must(mat.PullRowIndices(p, worker, 0, []int{3, 26, 99}, nil))
		if vals[0] != 2 || vals[1] != 4 || vals[2] != 6 {
			t.Errorf("sparse pull wrong: %v", vals)
		}
	})
}

func TestPushAddDenseAndSetRow(t *testing.T) {
	sim, cl, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 10)
		worker := cl.Executors[0]
		init := make([]float64, 10)
		for i := range init {
			init[i] = float64(i)
		}
		mustOK(mat.SetRow(p, worker, 0, init))
		delta := make([]float64, 10)
		linalg.Fill(delta, 1)
		mustOK(mat.PushAddDense(p, worker, 0, delta))
		row := must(mat.PullRow(p, worker, 0))
		for i := range row {
			if row[i] != float64(i)+1 {
				t.Errorf("row[%d] = %v, want %v", i, row[i], float64(i)+1)
			}
		}
	})
}

// TestRowAggregates runs three row reductions as one read program: each op's
// partials come back in its own slot and total to the row's aggregate.
func TestRowAggregates(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 50)
		worker := cl.Executors[1]
		sv, _ := linalg.NewSparse([]int{0, 10, 30, 49}, []float64{3, 4, 0, -12})
		mustOK(mat.PushAdd(p, worker, 0, sv))
		reduce := func(f func(x []float64) float64) InvokeOp {
			return InvokeOp{RespBytes: 8, Fn: func(_ int, sh *Shard) float64 { return f(sh.Rows[0]) }}
		}
		parts := must(mat.Invoke(p, worker,
			reduce(linalg.Sum),
			reduce(func(x []float64) float64 { return float64(linalg.NnzDense(x)) }),
			reduce(linalg.SumSquares)))
		if got := linalg.Sum(parts[0]); math.Abs(got-(-5)) > 1e-9 {
			t.Errorf("sum = %v, want -5", got)
		}
		if got := linalg.Sum(parts[1]); got != 3 {
			t.Errorf("nnz = %v, want 3 (zero-valued push does not count)", got)
		}
		if got := math.Sqrt(linalg.Sum(parts[2])); math.Abs(got-13) > 1e-9 {
			t.Errorf("norm2 = %v, want 13", got)
		}
	})
}

func TestSparsePullCheaperThanFull(t *testing.T) {
	// Pulling 10 of 1e6 dimensions must move far fewer bytes and take far
	// less virtual time than pulling the full row — the PS2-vs-Petuum delta.
	timeAndBytes := func(sparse bool) (float64, float64) {
		sim, cl, m := testMaster(4)
		var elapsed float64
		run(sim, func(p *simnet.Proc) {
			mat, _ := m.CreateMatrix(p, 1, 1_000_000)
			worker := cl.Executors[0]
			start := p.Now()
			if sparse {
				must(mat.PullRowIndices(p, worker, 0, []int{1, 5, 100, 5000, 10000, 250000, 400000, 700000, 900000, 999999}, nil))
			} else {
				must(mat.PullRow(p, worker, 0))
			}
			elapsed = p.Now() - start
		})
		return elapsed, cl.TotalBytesOnWire()
	}
	st, sb := timeAndBytes(true)
	ft, fb := timeAndBytes(false)
	if st*100 > ft {
		t.Fatalf("sparse pull (%v) not ≫ faster than full pull (%v)", st, ft)
	}
	if sb*100 > fb {
		t.Fatalf("sparse pull bytes (%v) not ≪ full pull bytes (%v)", sb, fb)
	}
}

func TestMoreServersServeRowPullFaster(t *testing.T) {
	pullTime := func(servers int) float64 {
		sim, cl, m := testMaster(servers)
		var elapsed float64
		run(sim, func(p *simnet.Proc) {
			mat, _ := m.CreateMatrix(p, 1, 2_000_000)
			// All four workers pull simultaneously: with one server the
			// server's egress serializes; with eight it parallelizes.
			g := p.Sim().NewGroup()
			start := p.Now()
			for _, w := range cl.Executors {
				w := w
				g.Go("puller", func(wp *simnet.Proc) { must(mat.PullRow(wp, w, 0)) })
			}
			g.Wait(p)
			elapsed = p.Now() - start
		})
		return elapsed
	}
	one := pullTime(1)
	eight := pullTime(8)
	if eight*2 > one {
		t.Fatalf("8 servers (%v) not meaningfully faster than 1 (%v)", eight, one)
	}
}

func TestInvokePartials(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 40)
		worker := cl.Executors[0]
		ones := make([]float64, 40)
		linalg.Fill(ones, 1)
		mustOK(mat.SetRow(p, worker, 0, ones))
		partials := must(mat.Invoke(p, worker, InvokeOp{ReqBytes: 8, RespBytes: 8, Mutates: true,
			Fn: func(s int, sh *Shard) float64 { return linalg.Sum(sh.Rows[0]) }}))[0]
		if len(partials) != 4 {
			t.Fatalf("partials = %v", partials)
		}
		if linalg.Sum(partials) != 40 {
			t.Fatalf("sum of partials = %v, want 40", linalg.Sum(partials))
		}
	})
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	sim, cl, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 2, 30)
		worker := cl.Executors[0]
		vals := make([]float64, 30)
		for i := range vals {
			vals[i] = float64(i) * 0.5
		}
		mustOK(mat.SetRow(p, worker, 0, vals))
		mustOK(mat.SetRow(p, worker, 1, vals))
		m.Checkpoint(p, mat)

		// Mutate after the checkpoint, then crash a server.
		sv, _ := linalg.NewSparse([]int{0, 29}, []float64{100, 100})
		mustOK(mat.PushAdd(p, worker, 0, sv))
		m.KillServer(1)
		if m.Alive(1) {
			t.Error("killed server still alive")
		}
		m.RecoverServer(p, 1)
		if !m.Alive(1) {
			t.Error("recovered server not alive")
		}

		row := must(mat.PullRow(p, worker, 0))
		lo, hi := mat.Part.(*Partitioner).Range(1)
		for c := lo; c < hi; c++ {
			if row[c] != vals[c] {
				t.Errorf("recovered col %d = %v, want checkpoint value %v", c, row[c], vals[c])
			}
		}
		// Columns on surviving servers keep post-checkpoint updates.
		if row[0] != vals[0]+100 {
			t.Errorf("col 0 = %v, want %v", row[0], vals[0]+100)
		}
	})
}

func TestRecoverWithoutCheckpointZeroes(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 20)
		worker := cl.Executors[0]
		ones := make([]float64, 20)
		linalg.Fill(ones, 1)
		mustOK(mat.SetRow(p, worker, 0, ones))
		m.KillServer(0)
		m.RecoverServer(p, 0)
		row := must(mat.PullRow(p, worker, 0))
		lo, hi := mat.Part.(*Partitioner).Range(0)
		for c := lo; c < hi; c++ {
			if row[c] != 0 {
				t.Errorf("col %d = %v, want 0 after uncheckpointed recovery", c, row[c])
			}
		}
	})
}

func TestCreateMatrixValidation(t *testing.T) {
	sim, _, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		if _, err := m.CreateMatrix(p, 0, 10); err == nil {
			t.Error("rows=0 accepted")
		}
		if _, err := m.CreateMatrix(p, 1, 0); err == nil {
			t.Error("dim=0 accepted")
		}
	})
}

// Property: a sequence of random sparse pushes followed by a full pull equals
// the dense oracle accumulation.
func TestPushPullProperty(t *testing.T) {
	f := func(pushesRaw []uint16, nRaw uint8) bool {
		servers := int(nRaw%7) + 1
		dim := 257
		sim, cl, m := testMaster(servers)
		oracle := make([]float64, dim)
		ok := true
		run(sim, func(p *simnet.Proc) {
			mat, err := m.CreateMatrix(p, 1, dim)
			if err != nil {
				ok = false
				return
			}
			worker := cl.Executors[0]
			for i, r := range pushesRaw {
				idx := int(r) % dim
				val := float64(i%13) - 6
				sv, _ := linalg.NewSparse([]int{idx}, []float64{val})
				mustOK(mat.PushAdd(p, worker, 0, sv))
				oracle[idx] += val
			}
			got := must(mat.PullRow(p, worker, 0))
			for c := range oracle {
				if math.Abs(got[c]-oracle[c]) > 1e-9 {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPullRowsBatched(t *testing.T) {
	sim, cl, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 4, 30)
		worker := cl.Executors[0]
		for r := 0; r < 4; r++ {
			vals := make([]float64, 30)
			for c := range vals {
				vals[c] = float64(r*100 + c)
			}
			mustOK(mat.SetRow(p, worker, r, vals))
		}
		rows := must(mat.PullRows(p, worker, []int{3, 0, 2}, nil))
		if rows[0][5] != 305 || rows[1][5] != 5 || rows[2][29] != 229 {
			t.Errorf("PullRows wrong: %v %v %v", rows[0][5], rows[1][5], rows[2][29])
		}
	})
}

func TestPushRowsDelta(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 3, 20)
		worker := cl.Executors[1]
		d0 := make([]float64, 20)
		d2 := make([]float64, 20)
		for i := range d0 {
			d0[i] = 1
			d2[i] = float64(i)
		}
		mustOK(mat.PushRowsDelta(p, worker, []int{0, 2}, [][]float64{d0, d2}))
		mustOK(mat.PushRowsDelta(p, worker, []int{0, 2}, [][]float64{d0, d2}))
		r0 := must(mat.PullRow(p, worker, 0))
		r1 := must(mat.PullRow(p, worker, 1))
		r2 := must(mat.PullRow(p, worker, 2))
		for i := range r0 {
			if r0[i] != 2 || r1[i] != 0 || r2[i] != 2*float64(i) {
				t.Fatalf("PushRowsDelta wrong at %d: %v %v %v", i, r0[i], r1[i], r2[i])
			}
		}
	})
}

func TestPullRowCompressedCheaper(t *testing.T) {
	bytesFor := func(compressed bool) float64 {
		sim, cl, m := testMaster(4)
		run(sim, func(p *simnet.Proc) {
			mat, _ := m.CreateMatrix(p, 1, 100000)
			worker := cl.Executors[0]
			sv, _ := linalg.NewSparse([]int{3, 70000}, []float64{1, 2})
			mustOK(mat.PushAdd(p, worker, 0, sv))
			cl.Executors[1].BytesRecv = 0
			if compressed {
				got := must(mat.PullRowCompressed(p, cl.Executors[1], 0))
				if got[3] != 1 || got[70000] != 2 {
					t.Errorf("compressed pull values wrong")
				}
			} else {
				must(mat.PullRow(p, cl.Executors[1], 0))
			}
		})
		return cl.Executors[1].BytesRecv
	}
	if c, d := bytesFor(true), bytesFor(false); c*100 > d {
		t.Fatalf("compressed pull (%v B) not far cheaper than dense (%v B)", c, d)
	}
}

func TestStatsBalancedAcrossServers(t *testing.T) {
	sim, _, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		if _, err := m.CreateMatrix(p, 2, 100); err != nil {
			t.Fatal(err)
		}
		stats := m.Stats()
		for _, st := range stats {
			if st.Elements != 50 { // 100/4 cols x 2 rows
				t.Fatalf("server %d holds %d elements, want 50", st.Server, st.Elements)
			}
		}
	})
}

// TestDuplicateTouchedRowDriftsOnce pins CallSpec.Touched's "duplicates ok":
// a row listed twice is one row, so its drift watermark grows by the true
// max |delta| of the mutation, not once per listing.
func TestDuplicateTouchedRowDriftsOnce(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		mat.EnableVersioning()
		err = mat.CallShards(p, cl.Executors[0], CallSpec{Name: "inc", Mutates: true, Touched: []int{0, 1, 0},
			Fn: func(_ int, sh *Shard) error {
				linalg.Fill(sh.Rows[0], 1)
				return nil
			}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 2; s++ {
			if got := mat.HostShard(s).RowDrift(0); got != 1 {
				t.Errorf("shard %d: RowDrift(0) = %v after one +1 write, want 1", s, got)
			}
		}
	})
}
