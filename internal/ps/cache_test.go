package ps

import (
	"errors"
	"testing"

	"repro/internal/consistency"
	"repro/internal/linalg"
	"repro/internal/simnet"
)

// fillRow writes deterministic values into a matrix row.
func fillRow(p *simnet.Proc, mat *Matrix, from *simnet.Node, row int, f func(c int) float64) {
	vals := make([]float64, mat.Dim)
	for c := range vals {
		vals[c] = f(c)
	}
	mustOK(mat.SetRow(p, from, row, vals))
}

// TestCachedPullMatchesUncached asserts the cached sparse pull returns the
// exact same values as the raw operator across misses, hits, validations and
// refetches after mutations.
func TestCachedPullMatchesUncached(t *testing.T) {
	sim, cl, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 2, 90)
		if err != nil {
			t.Fatal(err)
		}
		worker := cl.Executors[0]
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) * 1.5 })
		cc := NewCachedClient(mat, CacheConfig{})
		idx := []int{0, 10, 30, 45, 60, 89}

		check := func(label string) {
			want := must(mat.PullRowIndices(p, worker, 0, idx))
			got := must(cc.PullRowIndices(p, worker, 0, idx))
			for k := range idx {
				if got[k] != want[k] {
					t.Fatalf("%s: idx %d = %v, want %v", label, idx[k], got[k], want[k])
				}
			}
		}

		check("cold")
		before := m.Cache
		check("same clock") // second pull: pure hits, zero RPC bytes
		if m.Cache.Hits <= before.Hits {
			t.Fatalf("repeat pull did not hit: %+v -> %+v", before, m.Cache)
		}
		if m.Cache.PulledBytes != before.PulledBytes {
			t.Fatalf("pure hit paid %v wire bytes", m.Cache.PulledBytes-before.PulledBytes)
		}

		// Next clock with nothing changed: validations, all unchanged.
		cc.Tick()
		before = m.Cache
		check("validate unchanged")
		gotVal := m.Cache.Validations - before.Validations
		if gotVal != uint64(len(idx)) {
			t.Fatalf("validated %d indices, want %d", gotVal, len(idx))
		}
		if hits := m.Cache.ValidationHits - before.ValidationHits; hits != gotVal {
			t.Fatalf("%d of %d validations unchanged, want all", hits, gotVal)
		}

		// Mutate two indices; the next validation must ship exactly those.
		sv, _ := linalg.NewSparse([]int{10, 60}, []float64{5, 7})
		mustOK(mat.PushAdd(p, worker, 0, sv))
		cc.Tick()
		before = m.Cache
		check("validate changed")
		if hits := m.Cache.ValidationHits - before.ValidationHits; hits != uint64(len(idx)-2) {
			t.Fatalf("%d validations unchanged, want %d", hits, len(idx)-2)
		}
		if m.Cache.PulledBytes >= m.Cache.BaselineBytes {
			t.Fatalf("cache paid %v of baseline %v bytes; no saving",
				m.Cache.PulledBytes, m.Cache.BaselineBytes)
		}
	})
}

// TestCachedPullClockBound asserts a positive staleness bound serves
// values without validation for exactly that many clocks, then revalidates.
func TestCachedPullClockBound(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 20)
		worker := cl.Executors[0]
		fillRow(p, mat, worker, 0, func(c int) float64 { return 1 })
		cc := NewCachedClient(mat, CacheConfig{Policy: consistency.NewClockBounded(2)})
		idx := []int{3, 12}

		must(cc.PullRowIndices(p, worker, 0, idx)) // fill at clock 0
		sv, _ := linalg.NewSparse(idx, []float64{10, 10})
		mustOK(mat.PushAdd(p, worker, 0, sv)) // now server holds 11

		// Clocks 1 and 2 are within the bound: served stale, zero RPC.
		for tick := 1; tick <= 2; tick++ {
			cc.Tick()
			before := m.Cache
			got := must(cc.PullRowIndices(p, worker, 0, idx))
			if got[0] != 1 || got[1] != 1 {
				t.Fatalf("clock %d: got %v, want stale value 1", tick, got)
			}
			if m.Cache.Misses != before.Misses {
				t.Fatalf("clock %d: within-bound pull issued an RPC", tick)
			}
		}
		// Clock 3 exceeds the bound: validated, new value fetched.
		cc.Tick()
		got := must(cc.PullRowIndices(p, worker, 0, idx))
		if got[0] != 11 || got[1] != 11 {
			t.Fatalf("beyond bound: got %v, want 11", got)
		}
	})
}

// TestCacheEpochFencesStaleEntriesAfterRecovery is the coherence criterion:
// a crash + recovery rolls a shard back to its checkpoint and resets its
// version counters, so stamp comparison alone would serve the cache's newer
// pre-crash value as "unchanged". The recovery epoch bump must fence those
// entries — no stale read crosses a recovery.
func TestCacheEpochFencesStaleEntriesAfterRecovery(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 2, 40)
		worker := cl.Executors[0]
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) })
		fillRow(p, mat, worker, 1, func(c int) float64 { return float64(c) })
		m.Checkpoint(p, mat)

		cc := NewCachedClient(mat, CacheConfig{})
		idx := []int{1, 5, 25, 39}
		// Warm the cache with post-checkpoint updates, in both forms.
		sv, _ := linalg.NewSparse(idx, []float64{100, 100, 100, 100})
		mustOK(mat.PushAdd(p, worker, 0, sv))
		must(cc.PullRowIndices(p, worker, 0, idx))
		must(cc.PullRows(p, worker, []int{1}))

		// Lose server 0: the restore replays the checkpoint (the +100 update
		// is lost) and starts fresh version counters.
		m.KillServer(0)
		m.RecoverServer(p, 0)

		cc.Tick()
		fences := m.Cache.EpochFences
		got := must(cc.PullRowIndices(p, worker, 0, idx))
		rows := must(cc.PullRows(p, worker, []int{1}))
		want := must(mat.PullRowIndices(p, worker, 0, idx))
		wantRow := must(mat.PullRows(p, worker, []int{1}, nil))[0]
		for k := range idx {
			if got[k] != want[k] {
				t.Fatalf("idx %d = %v after recovery, want restored %v (stale read crossed the epoch)",
					idx[k], got[k], want[k])
			}
		}
		for c, v := range rows[0] {
			if v != wantRow[c] {
				t.Fatalf("row 1 col %d = %v after recovery, want restored %v", c, v, wantRow[c])
			}
		}
		lo, _ := mat.Part.(*Partitioner).Range(0)
		if got[0] != float64(idx[0]) || rows[0][lo] != float64(lo) {
			t.Fatalf("restored values should have lost the +100 update: got %v / %v", got[0], rows[0][lo])
		}
		if m.Cache.EpochFences == fences {
			t.Fatal("no cache entry was epoch-fenced by the recovery")
		}
	})
}

// TestCacheEpochFencesRecoveryMidCall: a recovery that lands while a cached
// pull's call to the server is in flight restarts the shard's stamps under
// the call, so the reply's "unchanged" verdicts compare stamps of two
// incarnations. The pull must fence the shard's entries and read the shard
// again: it returns the restored values, counts one fence, and keeps no entry
// of the old incarnation. Both the sparse and the dense form.
func TestCacheEpochFencesRecoveryMidCall(t *testing.T) {
	for _, dense := range []bool{false, true} {
		sim, cl, m := testMaster(2)
		run(sim, func(p *simnet.Proc) {
			mat := must(m.CreateMatrix(p, 1, 40))
			worker := cl.Executors[0]
			fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) })
			m.Checkpoint(p, mat)
			cc := NewCachedClient(mat, CacheConfig{})
			idx := []int{1, 5, 25, 39}
			pull := func() []float64 {
				if !dense {
					return must(cc.PullRowIndices(p, worker, 0, idx))
				}
				row := must(cc.PullRows(p, worker, []int{0}))[0]
				vals := make([]float64, len(idx))
				for k, c := range idx {
					vals[k] = row[c]
				}
				return vals
			}
			// Cache values the restore will lose.
			mustOK(mat.PushAdd(p, worker, 0, must(linalg.NewSparse(idx, []float64{100, 100, 100, 100}))))
			pull()
			cc.Tick()
			fences := m.Cache.EpochFences
			// The next pull validates; its request to server 0 is on the wire
			// when the server is lost and replaced.
			p.Sim().Spawn("killer", func(kp *simnet.Proc) {
				kp.Sleep(1e-6)
				m.KillServer(0)
				m.RecoverServer(kp, 0)
			})
			got := pull()
			want := must(mat.PullRowIndices(p, worker, 0, idx))
			for k, c := range idx {
				if got[k] != want[k] {
					t.Fatalf("dense=%v: col %d = %v, want the restored %v", dense, c, got[k], want[k])
				}
			}
			if got[0] != 1 || got[3] != 139 {
				t.Fatalf("dense=%v: got %v, want shard 0 restored to the checkpoint (1) and shard 1 kept (139)", dense, got)
			}
			if n := m.Cache.EpochFences - fences; n != 1 {
				t.Fatalf("dense=%v: %d epoch fences, want 1 (the call's)", dense, n)
			}
			for k, e := range cc.node(worker).entries {
				if e.epoch != mat.ShardEpoch(k.shard) {
					t.Fatalf("dense=%v: entry %+v kept epoch %d, shard's is %d", dense, k, e.epoch, mat.ShardEpoch(k.shard))
				}
			}
		})
	}
}

// TestCacheEpochFencesUnderChaosSoak hammers the cached pull path with
// message loss and repeated crash/recovery cycles and checks every pull
// agrees with the server's live state at read time.
func TestCacheEpochFencesUnderChaosSoak(t *testing.T) {
	sim, cl, m := testMaster(3)
	sim.EnableChaos(7, 0.05)
	m.Unreliable = true
	m.Retry = RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.005, MaxBackoffSec: 0.05, MaxRetries: 400}
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 60)
		worker := cl.Executors[0]
		fillRow(p, mat, worker, 0, func(c int) float64 { return float64(c) })
		m.Checkpoint(p, mat)
		cc := NewCachedClient(mat, CacheConfig{})
		idx := []int{0, 7, 20, 33, 41, 59}
		for round := 0; round < 30; round++ {
			sv, _ := linalg.NewSparse([]int{idx[round%len(idx)]}, []float64{1})
			mustOK(mat.PushAdd(p, worker, 0, sv))
			if round%7 == 3 {
				s := round % 3
				m.KillServer(s)
				m.RecoverServer(p, s)
			}
			cc.Tick()
			got := must(cc.PullRowIndices(p, worker, 0, idx))
			want := must(mat.PullRowIndices(p, worker, 0, idx))
			for k := range idx {
				if got[k] != want[k] {
					t.Fatalf("round %d: idx %d = %v, want %v", round, idx[k], got[k], want[k])
				}
			}
		}
	})
}

// TestCacheCapacityEvicts asserts the byte-capacity LRU evicts under
// pressure without ever serving a wrong value.
func TestCacheCapacityEvicts(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 8, 40)
		worker := cl.Executors[0]
		for r := 0; r < 8; r++ {
			r := r
			fillRow(p, mat, worker, r, func(c int) float64 { return float64(100*r + c) })
		}
		// Room for roughly one row's sparse entries per shard.
		cc := NewCachedClient(mat, CacheConfig{Policy: consistency.NewClockBounded(4), CapacityBytes: 256})
		idx := []int{0, 5, 10, 15, 20, 25, 30, 35}
		for round := 0; round < 3; round++ {
			for r := 0; r < 8; r++ {
				got := must(cc.PullRowIndices(p, worker, r, idx))
				for k, c := range idx {
					if want := float64(100*r + c); got[k] != want {
						t.Fatalf("round %d row %d idx %d = %v, want %v", round, r, c, got[k], want)
					}
				}
			}
		}
		if m.Cache.Evictions == 0 {
			t.Fatal("no evictions under a 256-byte budget")
		}
	})
}

// TestCachedPullRowsHandlesDuplicates asserts the dense cached pull serves
// duplicate row requests from one fetch and still fills every output slot.
func TestCachedPullRowsHandlesDuplicates(t *testing.T) {
	sim, cl, m := testMaster(3)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 4, 33)
		worker := cl.Executors[0]
		for r := 0; r < 4; r++ {
			r := r
			fillRow(p, mat, worker, r, func(c int) float64 { return float64(10*r) + float64(c)/100 })
		}
		cc := NewCachedClient(mat, CacheConfig{})
		rows := []int{2, 0, 2, 3, 0}
		got := must(cc.PullRows(p, worker, rows))
		want := must(mat.PullRows(p, worker, rows, nil))
		for i := range rows {
			for c := range got[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("rows[%d]=%d col %d: got %v want %v", i, rows[i], c, got[i][c], want[i][c])
				}
			}
		}
		// Output slices must be private copies: mutating one must not corrupt
		// the cache or the duplicate's slot.
		got[0][0] += 1000
		again := must(cc.PullRows(p, worker, rows))
		if again[0][0] != want[0][0] || again[2][0] != want[2][0] {
			t.Fatal("pulled rows alias cache memory")
		}
	})
}

// TestCachedClientRejectsBadIndices asserts the cached pull validates index
// lists like the raw operator (typed error, no panic).
func TestCachedClientRejectsBadIndices(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 10)
		cc := NewCachedClient(mat, CacheConfig{})
		worker := cl.Executors[0]
		for _, bad := range [][]int{{3, 1}, {2, 2}, {-1}, {10}} {
			if _, err := cc.PullRowIndices(p, worker, 0, bad); !errors.Is(err, ErrBadIndices) {
				t.Fatalf("indices %v: got %v, want ErrBadIndices", bad, err)
			}
		}
	})
}

// TestDirtySkipKeepsCheckpointSizes asserts the dirty-row fast path changes
// only the scan cost, never the wire size: the delta a checkpoint ships is
// byte-identical to the full element-compare it replaces.
func TestDirtySkipKeepsCheckpointSizes(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 6, 100)
		worker := cl.Executors[0]
		for r := 0; r < 6; r++ {
			r := r
			fillRow(p, mat, worker, r, func(c int) float64 { return float64(r + c) })
		}
		m.Checkpoint(p, mat) // base snapshot; clears every dirty flag

		// Mutate 3 elements in row 2 (one per shard boundary side) and
		// rewrite row 4 with identical values (dirty but zero diff).
		sv, _ := linalg.NewSparse([]int{0, 49, 99}, []float64{1, 1, 1})
		mustOK(mat.PushAdd(p, worker, 2, sv))
		fillRow(p, mat, worker, 4, func(c int) float64 { return float64(4 + c) })

		before := m.Recovery.CheckpointBytesWritten
		m.Checkpoint(p, mat)
		wrote := m.Recovery.CheckpointBytesWritten - before
		// Exactly what a full scan would ship: per shard, SparseBytes(number
		// of changed elements on that shard) — rows 0,1,3,5 skipped by the
		// dirty flags, row 4 dirty but unchanged, row 2 changed at 3 places.
		var want float64
		for s := 0; s < 2; s++ {
			lo, hi := mat.Part.(*Partitioner).Range(s)
			n := 0
			for _, c := range []int{0, 49, 99} {
				if c >= lo && c < hi {
					n++
				}
			}
			want += m.Cl.Cost.SparseBytes(n)
		}
		if wrote != want {
			t.Fatalf("delta checkpoint shipped %v bytes, want full-scan-identical %v", wrote, want)
		}
	})
}
