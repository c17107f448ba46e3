package ps

import (
	"errors"
	"math"
	"testing"

	"repro/internal/consistency"
	"repro/internal/linalg"
	"repro/internal/simnet"
)

// fingerprint-of is shorthand used throughout: migrations are CAS'd on the
// matrix's current placement fingerprint.
func fp(mat *Matrix) string { return mat.Part.Fingerprint() }

// TestMigrateValidation covers the typed error paths, mirroring the
// ErrBadIndices convention: structural mistakes are ErrBadMigration, a lost
// CAS race is ErrStaleMigration, and nothing touches matrix state.
func TestMigrateValidation(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 2, 16)
		if err != nil {
			panic(err)
		}
		mustOK(mat.SetRow(p, worker, 0, make([]float64, 16)))
		good, _ := NewPartitioner(16, 2)

		if err := m.MigrateMatrix(p, mat, nil, fp(mat)); !errors.Is(err, ErrBadMigration) {
			t.Fatalf("nil target: got %v, want ErrBadMigration", err)
		}
		if err := m.MigrateMatrix(p, mat, good, "bogus-fingerprint"); !errors.Is(err, ErrStaleMigration) {
			t.Fatalf("stale fingerprint: got %v, want ErrStaleMigration", err)
		}
		wrongCols, _ := NewPartitioner(17, 2)
		if err := m.MigrateMatrix(p, mat, wrongCols, fp(mat)); !errors.Is(err, ErrBadMigration) {
			t.Fatalf("wrong column count: got %v, want ErrBadMigration", err)
		}
		tooWide, _ := NewPartitioner(16, 5)
		if err := m.MigrateMatrix(p, mat, tooWide, fp(mat)); !errors.Is(err, ErrBadMigration) {
			t.Fatalf("target wider than cluster: got %v, want ErrBadMigration", err)
		}
		// dim 3 on 4 servers leaves a zero-width target shard under range.
		small, err := m.CreateMatrix(p, 1, 3)
		if err != nil {
			panic(err)
		}
		zero, _ := NewPartitioner(3, 4)
		if err := m.MigrateMatrix(p, small, zero, fp(small)); !errors.Is(err, ErrBadMigration) {
			t.Fatalf("zero-width target shard: got %v, want ErrBadMigration", err)
		}
		if m.Migration.Migrations != 0 || m.Migration.Aborts != 0 {
			t.Fatalf("validation errors must not count as migrations: %+v", m.Migration)
		}
		// A migration to an equivalent placement is a no-op, not an error.
		same, _ := NewPartitioner(16, 4)
		if err := m.MigrateMatrix(p, mat, same, fp(mat)); err != nil {
			t.Fatalf("same-placement migration: %v", err)
		}
		if m.Migration.Migrations != 0 {
			t.Fatal("no-op migration must not count")
		}
	})
}

// TestMigrateDeadServerErrors drives migrations against dead endpoints: a
// down server fails the migration up front with ErrServerDown, the matrix
// keeps serving its old placement, and the same migration succeeds once the
// cluster heals.
func TestMigrateDeadServerErrors(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 1, 16)
		if err != nil {
			panic(err)
		}
		vals := make([]float64, 16)
		for c := range vals {
			vals[c] = float64(c) + 0.25
		}
		mustOK(mat.SetRow(p, worker, 0, vals))
		m.Checkpoint(p, mat)

		target, _ := NewBlockHashPlacement(16, 4, 2, 7)
		m.KillServer(2)
		if err := m.MigrateMatrix(p, mat, target, fp(mat)); !errors.Is(err, ErrServerDown) {
			t.Fatalf("migration with dead server: got %v, want ErrServerDown", err)
		}
		// Old placement still serves reads of the surviving shards: column 0
		// lives on server 0 under range placement.
		if got := must(mat.PullRowIndices(p, worker, 0, []int{0, 1}, nil))[0]; got != vals[0] {
			t.Fatalf("old placement read = %v, want %v", got, vals[0])
		}
		m.RecoverServer(p, 2)
		if err := m.MigrateMatrix(p, mat, target, fp(mat)); err != nil {
			t.Fatalf("retry after recovery: %v", err)
		}
		got := must(mat.PullRow(p, worker, 0))
		for c := range vals {
			if got[c] != vals[c] {
				t.Fatalf("post-migration row[%d] = %v, want %v", c, got[c], vals[c])
			}
		}
	})
}

// TestMigratePreservesValues migrates a matrix through a chain of placements
// — scale-out, skewed, non-contiguous, scale-in — checking after each hop
// that every value (dense and sparse reads alike) matches the host-side
// oracle, and that pushes after the hop land on the new owners.
func TestMigratePreservesValues(t *testing.T) {
	const dim, rows = 37, 3
	sim, cl, m := testMaster(8)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrixPlaced(p, rows, dim, mustRange(dim, 4))
		if err != nil {
			panic(err)
		}
		oracle := make([][]float64, rows)
		for r := range oracle {
			oracle[r] = make([]float64, dim)
			for c := range oracle[r] {
				oracle[r][c] = math.Sin(float64(r*dim + c))
			}
			mustOK(mat.SetRow(p, worker, r, oracle[r]))
		}
		weight := make([]float64, dim)
		for c := range weight {
			weight[c] = float64((c*31)%13) + 1
		}
		la, _ := NewLoadAwarePlacement(dim, 6, weight, 4)
		bh, _ := NewBlockHashPlacement(dim, 8, 2, 3)
		hops := []Placement{mustRange(dim, 8), la, bh, mustRange(dim, 2)}
		sparseIdx := []int{0, 3, 11, 17, 29, 36}
		for h, target := range hops {
			if err := m.MigrateMatrix(p, mat, target, fp(mat)); err != nil {
				t.Fatalf("hop %d: %v", h, err)
			}
			for r := 0; r < rows; r++ {
				got := must(mat.PullRow(p, worker, r))
				for c := range oracle[r] {
					if got[c] != oracle[r][c] {
						t.Fatalf("hop %d row %d col %d = %v, want %v", h, r, c, got[c], oracle[r][c])
					}
				}
				sp := must(mat.PullRowIndices(p, worker, r, sparseIdx, nil))
				for k, c := range sparseIdx {
					if sp[k] != oracle[r][c] {
						t.Fatalf("hop %d sparse row %d col %d = %v, want %v", h, r, c, sp[k], oracle[r][c])
					}
				}
			}
			// Mutate through the new placement so the next hop carries a
			// post-migration write set.
			sv, _ := linalg.NewSparse([]int{2, 17, 36}, []float64{1, -0.5, float64(h)})
			mustOK(mat.PushAdd(p, worker, h%rows, sv))
			for k, c := range []int{2, 17, 36} {
				oracle[h%rows][c] += []float64{1, -0.5, float64(h)}[k]
			}
		}
		if m.Migration.Migrations != len(hops) {
			t.Fatalf("Migrations = %d, want %d", m.Migration.Migrations, len(hops))
		}
		if m.Migration.BulkBytes <= 0 {
			t.Fatal("bulk copy moved no bytes")
		}
		if !m.DedupSettled() {
			t.Fatal("dedup watermark did not settle")
		}
	})
}

func mustRange(dim, n int) Placement {
	pl, err := NewPartitioner(dim, n)
	if err != nil {
		panic(err)
	}
	return pl
}

// TestMigrateZeroWidthSourceHandoff migrates a matrix whose source placement
// leaves most shards empty (dim < servers): the pairs enumeration must skip
// zero-width sources cleanly and the surviving columns must land intact.
func TestMigrateZeroWidthSourceHandoff(t *testing.T) {
	sim, cl, m := testMaster(8)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		bh, _ := NewBlockHashPlacement(3, 8, 1, 5) // 5 of 8 shards own nothing
		mat, err := m.CreateMatrixPlaced(p, 2, 3, bh)
		if err != nil {
			panic(err)
		}
		mustOK(mat.SetRow(p, worker, 0, []float64{1.5, -2.5, 3.5}))
		mustOK(mat.SetRow(p, worker, 1, []float64{4, 5, 6}))
		if err := m.MigrateMatrix(p, mat, mustRange(3, 3), fp(mat)); err != nil {
			t.Fatal(err)
		}
		want := [][]float64{{1.5, -2.5, 3.5}, {4, 5, 6}}
		for r := range want {
			got := must(mat.PullRow(p, worker, r))
			for c := range want[r] {
				if got[c] != want[r][c] {
					t.Fatalf("row %d col %d = %v, want %v", r, c, got[c], want[r][c])
				}
			}
		}
	})
}

// TestMigrateUnderConcurrentTraffic runs a pusher loop and a migration in
// parallel: the route gate must serialize the cutover against in-flight
// operators so every push lands exactly once — on the old owner (and ride
// the copy) or on the new one, never both, never dropped.
func TestMigrateUnderConcurrentTraffic(t *testing.T) {
	const dim, pushes = 24, 40
	sim, cl, m := testMaster(8)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrixPlaced(p, 1, dim, mustRange(dim, 4))
		if err != nil {
			panic(err)
		}
		mustOK(mat.SetRow(p, worker, 0, make([]float64, dim)))
		startFP := fp(mat)
		var migErr error
		g := p.Sim().NewGroup()
		g.Go("pusher", func(cp *simnet.Proc) {
			for i := 0; i < pushes; i++ {
				sv, _ := linalg.NewSparse([]int{i % dim, (i*7 + 3) % dim}, []float64{1, 1})
				if (i*7+3)%dim == i%dim {
					sv, _ = linalg.NewSparse([]int{i % dim}, []float64{2})
				}
				mustOK(mat.PushAdd(cp, cl.Executors[1], 0, sv))
			}
		})
		g.Go("migrator", func(cp *simnet.Proc) {
			cp.Sleep(0.0001) // land mid-pusher-loop
			migErr = m.MigrateMatrix(cp, mat, mustRange(dim, 8), startFP)
		})
		g.Wait(p)
		if migErr != nil {
			t.Fatalf("migration under load: %v", migErr)
		}
		// Exactly-once accounting: each push i contributed 1 to i%dim and 1 to
		// (i*7+3)%dim.
		want := make([]float64, dim)
		for i := 0; i < pushes; i++ {
			want[i%dim]++
			want[(i*7+3)%dim]++
		}
		got := must(mat.PullRow(p, worker, 0))
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("col %d = %v, want %v (pushes lost or double-applied)", c, got[c], want[c])
			}
		}
		if !m.DedupSettled() {
			t.Fatal("dedup watermark did not settle")
		}
	})
}

// TestMigrateThenCrashRecovers pins the checkpoint handoff: MigrateMatrix
// takes a fresh checkpoint under the new placement, so a crash right after
// the swap restores new-placement state, not zeros.
func TestMigrateThenCrashRecovers(t *testing.T) {
	sim, cl, m := testMaster(8)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrixPlaced(p, 2, 32, mustRange(32, 4))
		if err != nil {
			panic(err)
		}
		vals := make([]float64, 32)
		for c := range vals {
			vals[c] = float64(c)*0.5 + 1
		}
		mustOK(mat.SetRow(p, worker, 0, vals))
		m.Checkpoint(p, mat)
		if err := m.MigrateMatrix(p, mat, mustRange(32, 8), fp(mat)); err != nil {
			t.Fatal(err)
		}
		// Crash a server that owns columns only under the NEW placement.
		m.CrashServer(6)
		m.RecoverServer(p, 6)
		got := must(mat.PullRow(p, worker, 0))
		for c := range vals {
			if got[c] != vals[c] {
				t.Fatalf("post-crash row[%d] = %v, want %v", c, got[c], vals[c])
			}
		}
		if m.Recovery.ZeroRestoredShards != 0 {
			t.Fatalf("recovery zero-restored %d shards; migration checkpoint missing", m.Recovery.ZeroRestoredShards)
		}
	})
}

// TestCachedClientSurvivesMigration reads through the worker-side cache
// before and after a migration: the placement-generation bump must fence
// every cached entry (reads revalidate against the new owners and stay
// correct), exactly like a recovery would.
func TestCachedClientSurvivesMigration(t *testing.T) {
	sim, cl, m := testMaster(8)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrixPlaced(p, 1, 24, mustRange(24, 4))
		if err != nil {
			panic(err)
		}
		vals := make([]float64, 24)
		for c := range vals {
			vals[c] = float64(c) * 1.5
		}
		mustOK(mat.SetRow(p, worker, 0, vals))
		cc := NewCachedClient(mat, CacheConfig{Policy: consistency.NewClockBounded(2)})
		idx := []int{0, 5, 11, 17, 23}
		must(cc.PullRowIndices(p, worker, 0, idx, nil)) // warm the cache under placement A
		if err := m.MigrateMatrix(p, mat, mustRange(24, 6), fp(mat)); err != nil {
			t.Fatal(err)
		}
		// Mutate through the new placement, then read through the cache while
		// still inside the staleness window: without the generation fence the
		// stale copy would serve.
		sv, _ := linalg.NewSparse([]int{5, 17}, []float64{100, 200})
		mustOK(mat.PushAdd(p, worker, 0, sv))
		vals[5] += 100
		vals[17] += 200
		got := must(cc.PullRowIndices(p, worker, 0, idx, nil))
		for k, c := range idx {
			if got[k] != vals[c] {
				t.Fatalf("cached col %d = %v, want %v (stale cross-placement entry served)", c, got[k], vals[c])
			}
		}
		if m.Cache.EpochFences == 0 {
			t.Fatal("migration did not fence any cache entry")
		}
	})
}

// TestHotReplicaSurvivesMigration revalidates replica state immediately
// after an ownership change: stores sized for the old server count rebuild,
// and every replica-served read matches the owner-routed value.
func TestHotReplicaSurvivesMigration(t *testing.T) {
	sim, cl, m := testMaster(8)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrixPlaced(p, 1, 32, mustRange(32, 4))
		if err != nil {
			panic(err)
		}
		vals := make([]float64, 32)
		for c := range vals {
			vals[c] = float64(c) + 0.125
		}
		mustOK(mat.SetRow(p, worker, 0, vals))
		rs, err := NewHotReplicaSet(mat, ReplicaConfig{HotCols: []int{0, 1, 2, 3, 16, 17}})
		if err != nil {
			panic(err)
		}
		idx := []int{0, 1, 2, 3, 9, 16, 17, 30}
		for i := 0; i < 4; i++ { // warm every rotating store under placement A
			must(rs.PullRowIndices(p, worker, 0, idx, nil))
		}
		if err := m.MigrateMatrix(p, mat, mustRange(32, 8), fp(mat)); err != nil {
			t.Fatal(err)
		}
		// Write through the new owners, then read via replicas at the same
		// model clock, where the old copies, validated this clock, would be
		// served with no RPC had the placement fence not dropped them.
		sv, _ := linalg.NewSparse([]int{1, 16}, []float64{50, -50})
		mustOK(mat.PushAdd(p, worker, 0, sv))
		vals[1] += 50
		vals[16] -= 50
		for i := 0; i < 8; i++ { // hit every post-migration store
			got := must(rs.PullRowIndices(p, worker, 0, idx, nil))
			want := must(mat.PullRowIndices(p, worker, 0, idx, nil))
			for k, c := range idx {
				if got[k] != want[k] || got[k] != vals[c] {
					t.Fatalf("replica col %d = %v, owner %v, oracle %v", c, got[k], want[k], vals[c])
				}
			}
		}
	})
}

// TestAddRemoveServers covers the membership operators: joins grow the fleet
// and serve new placements, removals are validated against live placements,
// and the typed errors mirror ErrBadMigration.
func TestAddRemoveServers(t *testing.T) {
	sim, cl, m := testMaster(4)
	run(sim, func(p *simnet.Proc) {
		worker := cl.Executors[0]
		mat, err := m.CreateMatrix(p, 1, 16)
		if err != nil {
			panic(err)
		}
		vals := make([]float64, 16)
		for c := range vals {
			vals[c] = float64(c * c)
		}
		mustOK(mat.SetRow(p, worker, 0, vals))

		if err := m.AddServers(p, 0); !errors.Is(err, ErrBadMigration) {
			t.Fatalf("AddServers(0): got %v, want ErrBadMigration", err)
		}
		if err := m.AddServers(p, 4); err != nil {
			t.Fatal(err)
		}
		if len(cl.Servers) != 8 {
			t.Fatalf("cluster has %d servers, want 8", len(cl.Servers))
		}
		if err := m.MigrateMatrix(p, mat, mustRange(16, 8), fp(mat)); err != nil {
			t.Fatal(err)
		}
		// The matrix spans all 8: removal must be refused until it shrinks.
		if err := m.RemoveServers(p, 4); !errors.Is(err, ErrBadMigration) {
			t.Fatalf("RemoveServers with spanning matrix: got %v, want ErrBadMigration", err)
		}
		if err := m.MigrateMatrix(p, mat, mustRange(16, 4), fp(mat)); err != nil {
			t.Fatal(err)
		}
		if err := m.RemoveServers(p, 4); err != nil {
			t.Fatal(err)
		}
		if len(cl.Servers) != 4 || len(cl.Retired) != 4 {
			t.Fatalf("servers/retired = %d/%d, want 4/4", len(cl.Servers), len(cl.Retired))
		}
		if err := m.RemoveServers(p, 4); !errors.Is(err, ErrBadMigration) {
			t.Fatalf("RemoveServers leaving zero: got %v, want ErrBadMigration", err)
		}
		got := must(mat.PullRow(p, worker, 0))
		for c := range vals {
			if got[c] != vals[c] {
				t.Fatalf("after scale-in row[%d] = %v, want %v", c, got[c], vals[c])
			}
		}
		if m.Migration.ServersAdded != 4 || m.Migration.ServersRemoved != 4 {
			t.Fatalf("membership counters: %+v", m.Migration)
		}
	})
}
