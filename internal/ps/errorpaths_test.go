package ps

import (
	"errors"
	"testing"

	"repro/internal/linalg"
	"repro/internal/simnet"
)

// lostServerMaster returns a master whose server 0 is dead with no recovery
// coming and a retry policy that gives up quickly.
func lostServerMaster(t *testing.T) (*simnet.Sim, *Matrix, *simnet.Node) {
	t.Helper()
	sim, cl, m := testMaster(2)
	m.Retry = RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.005, MaxBackoffSec: 0.05, MaxRetries: 3}
	var mat *Matrix
	run(sim, func(p *simnet.Proc) {
		var err error
		mat, err = m.CreateMatrix(p, 2, 40)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, 40)
		for c := range vals {
			vals[c] = float64(c)
		}
		mustOK(mat.SetRow(p, cl.Executors[0], 0, vals))
		m.KillServer(0)
	})
	return sim, mat, cl.Executors[0]
}

// TestOpsReturnServerDownOnLostShard covers the error paths under a
// crashed-and-unrecovered server: every operator touching the dead shard
// must surface a wrapped ErrServerDown once retries are exhausted, never
// panic or hang — and every pull, on the raw matrix, the cached client and
// the replica set alike, returns nil values beside the error, never a
// partially filled slice.
func TestOpsReturnServerDownOnLostShard(t *testing.T) {
	sim, mat, worker := lostServerMaster(t)
	run(sim, func(p *simnet.Proc) {
		// Columns entirely inside the dead server's shard, and a list that
		// spans both shards (so a partial fill would be visible).
		lo, hi := mat.Part.(*Partitioner).Range(0)
		dead := []int{lo, hi - 1}
		both := []int{lo, mat.Dim - 1}
		cc := NewCachedClient(mat, CacheConfig{})
		rs, err := NewHotReplicaSet(mat, ReplicaConfig{HotCols: []int{mat.Dim - 1}})
		if err != nil {
			t.Fatal(err)
		}
		wantDown[float64](t, "Matrix.PullRow")(mat.PullRow(p, worker, 0))
		wantDown[float64](t, "Matrix.PullRowCompressed")(mat.PullRowCompressed(p, worker, 0))
		wantDown[float64](t, "Matrix.PullRowIndices")(mat.PullRowIndices(p, worker, 0, dead, nil))
		wantDown[[]float64](t, "Matrix.PullRows")(mat.PullRows(p, worker, []int{0, 1}, nil))
		wantDown[float64](t, "CachedClient.PullRowIndices")(cc.PullRowIndices(p, worker, 0, both, nil))
		wantDown[[]float64](t, "CachedClient.PullRows")(cc.PullRows(p, worker, []int{0, 1}))
		// The first replica read is served by (dead) server 0 — the hot path;
		// the second asks only for cold columns the dead server owns.
		wantDown[float64](t, "HotReplicaSet.PullRowIndices hot")(rs.PullRowIndices(p, worker, 0, []int{mat.Dim - 1}, nil))
		wantDown[float64](t, "HotReplicaSet.PullRowIndices cold")(rs.PullRowIndices(p, worker, 0, dead, nil))
		if err := mat.SetRow(p, worker, 0, make([]float64, mat.Dim)); !errors.Is(err, ErrServerDown) {
			t.Fatalf("SetRow: got %v, want ErrServerDown", err)
		}
	})
}

// wantDown checks one pull's result against the lost-shard contract.
func wantDown[T any](t *testing.T, name string) func(vals []T, err error) {
	return func(vals []T, err error) {
		t.Helper()
		if !errors.Is(err, ErrServerDown) {
			t.Fatalf("%s: got %v, want ErrServerDown", name, err)
		}
		if vals != nil {
			t.Fatalf("%s: returned %v beside the error, want nil", name, vals)
		}
	}
}

// TestSparseOpsOnLiveShardSucceedDespiteDeadNeighbor asserts the index
// operators stay usable on the surviving server: they skip shards that own
// none of the requested columns, so only requests that touch the dead shard
// fail.
func TestSparseOpsOnLiveShardSucceedDespiteDeadNeighbor(t *testing.T) {
	sim, mat, worker := lostServerMaster(t)
	run(sim, func(p *simnet.Proc) {
		lo, hi := mat.Part.(*Partitioner).Range(1) // the live server's stretch
		cols := make([]int, hi-lo)
		for k := range cols {
			cols[k] = lo + k
		}
		got, err := mat.PullRowIndices(p, worker, 0, cols, nil)
		if err != nil {
			t.Fatalf("live-shard sparse pull failed: %v", err)
		}
		for k, v := range got {
			if v != float64(lo+k) {
				t.Fatalf("col %d = %v, want %v", lo+k, v, float64(lo+k))
			}
		}
		delta, _ := linalg.NewSparse(cols, make([]float64, len(cols)))
		if err := mat.PushAdd(p, worker, 0, delta); err != nil {
			t.Fatalf("live-shard sparse push failed: %v", err)
		}
	})
}

// TestPullRowIndicesRejectsBadLists is the typed-validation contract:
// unsorted, duplicated or out-of-range index lists return ErrBadIndices
// before anything goes on the wire, instead of panicking inside a server Fn.
func TestPullRowIndicesRejectsBadLists(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 10)
		worker := cl.Executors[0]
		calls := m.Net.Calls
		for _, bad := range [][]int{{5, 3}, {4, 4}, {-2}, {10}, {0, 3, 3}} {
			if _, err := mat.PullRowIndices(p, worker, 0, bad, nil); !errors.Is(err, ErrBadIndices) {
				t.Fatalf("indices %v: got %v, want ErrBadIndices", bad, err)
			}
		}
		if m.Net.Calls != calls {
			t.Fatalf("invalid index lists reached the RPC layer (%d calls)", m.Net.Calls-calls)
		}
		// And a valid list still works.
		if _, err := mat.PullRowIndices(p, worker, 0, []int{0, 9}, nil); err != nil {
			t.Fatalf("valid list failed: %v", err)
		}
	})
}
