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
		mat.SetRow(p, cl.Executors[0], 0, vals)
		m.KillServer(0)
	})
	return sim, mat, cl.Executors[0]
}

// TestTryOpsReturnServerDownOnLostShard covers the Try* error paths that
// previously had no coverage under a crashed-and-unrecovered server:
// every operator touching the dead shard must surface a wrapped
// ErrServerDown once retries are exhausted, never panic or hang.
func TestTryOpsReturnServerDownOnLostShard(t *testing.T) {
	sim, mat, worker := lostServerMaster(t)
	run(sim, func(p *simnet.Proc) {
		if _, err := mat.TryPullRowCompressed(p, worker, 0); !errors.Is(err, ErrServerDown) {
			t.Fatalf("TryPullRowCompressed: got %v, want ErrServerDown", err)
		}
		// Columns entirely inside the dead server's shard.
		lo, hi := mat.Part.(*Partitioner).Range(0)
		if _, err := mat.TryPullRowIndices(p, worker, 0, []int{lo, hi - 1}); !errors.Is(err, ErrServerDown) {
			t.Fatalf("TryPullRowIndices: got %v, want ErrServerDown", err)
		}
		if err := mat.TrySetRow(p, worker, 0, make([]float64, mat.Dim)); !errors.Is(err, ErrServerDown) {
			t.Fatalf("TrySetRow: got %v, want ErrServerDown", err)
		}
	})
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
		got, err := mat.TryPullRowIndices(p, worker, 0, cols)
		if err != nil {
			t.Fatalf("live-shard sparse pull failed: %v", err)
		}
		for k, v := range got {
			if v != float64(lo+k) {
				t.Fatalf("col %d = %v, want %v", lo+k, v, float64(lo+k))
			}
		}
		delta, _ := linalg.NewSparse(cols, make([]float64, len(cols)))
		if err := mat.TryPushAdd(p, worker, 0, delta); err != nil {
			t.Fatalf("live-shard sparse push failed: %v", err)
		}
	})
}

// TestTryPullRowIndicesRejectsBadLists is the typed-validation contract:
// unsorted, duplicated or out-of-range index lists return ErrBadIndices
// before anything goes on the wire, instead of panicking inside a server Fn.
func TestTryPullRowIndicesRejectsBadLists(t *testing.T) {
	sim, cl, m := testMaster(2)
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 10)
		worker := cl.Executors[0]
		calls := m.Net.Calls
		for _, bad := range [][]int{{5, 3}, {4, 4}, {-2}, {10}, {0, 3, 3}} {
			if _, err := mat.TryPullRowIndices(p, worker, 0, bad); !errors.Is(err, ErrBadIndices) {
				t.Fatalf("indices %v: got %v, want ErrBadIndices", bad, err)
			}
		}
		if m.Net.Calls != calls {
			t.Fatalf("invalid index lists reached the RPC layer (%d calls)", m.Net.Calls-calls)
		}
		// And a valid list still works.
		if _, err := mat.TryPullRowIndices(p, worker, 0, []int{0, 9}); err != nil {
			t.Fatalf("valid list failed: %v", err)
		}
	})
}
