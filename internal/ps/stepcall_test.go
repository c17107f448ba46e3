package ps

// The step-run call: a CallShard runs as a chain over a pooled record, and
// a fan-out's per-shard calls are coroutine-less step children. Neither
// costs allocations per shard (scripts/check.sh also runs these pins without
// -race), and a run stopped mid-call closes what its calls opened.

import (
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// TestCallShardRoundTripAllocatesNothing: once the pool is warm, an
// uncontended CallShard round trip from a process — request, server
// compute, handler, reply — allocates nothing beyond the caller's CallSpec.
func TestCallShardRoundTripAllocatesNothing(t *testing.T) {
	sim, cl, m := testMaster(2)
	var allocs float64
	run(sim, func(p *simnet.Proc) {
		mat := must(m.CreateMatrix(p, 1, 64))
		w := cl.Executors[0]
		var hits int
		spec := CallSpec{
			Name: "probe", Shard: 1, ReqBytes: 300, RespBytes: 300,
			Work: func(_, width int) float64 { return float64(width) },
			Fn: func(s int, sh *Shard) error {
				hits++
				return nil
			},
		}
		mustOK(mat.CallShard(p, w, spec))
		allocs = testing.AllocsPerRun(100, func() { mustOK(mat.CallShard(p, w, spec)) })
		if hits != 102 {
			t.Errorf("the handler ran %d times, want 102", hits)
		}
	})
	if allocs != 0 {
		t.Fatalf("a CallShard round trip allocates %v times, want 0", allocs)
	}
}

// TestSparsePullAllocsIndependentOfShards: a PullRowIndices that touches
// every shard allocates the same, fixed number of objects per call on 20
// servers as on 2 — the split, the result, the handler and the fan-out's
// scaffolding, none of it per shard.
func TestSparsePullAllocsIndependentOfShards(t *testing.T) {
	const dim, want = 4000, 5
	measure := func(servers int) float64 {
		sim, cl, m := testMaster(servers)
		var allocs float64
		run(sim, func(p *simnet.Proc) {
			mat := must(m.CreateMatrix(p, 1, dim))
			w := cl.Executors[0]
			indices := make([]int, 0, 200)
			for c := 7; c < dim; c += 20 {
				indices = append(indices, c)
			}
			must(mat.PullRowIndices(p, w, 0, indices, nil))
			allocs = testing.AllocsPerRun(50, func() { must(mat.PullRowIndices(p, w, 0, indices, nil)) })
		})
		return allocs
	}
	two, twenty := measure(2), measure(20)
	if two != twenty || twenty != want {
		t.Fatalf("a sparse pull allocates %v times on 2 servers and %v on 20, want %d on both", two, twenty, want)
	}
}

// TestFlushAllocsIndependentOfShards: a write-combined round, one Add of
// 200 columns spread over every shard and the Flush that ships it, allocates
// the same, fixed number of objects on 20 servers as on 2: the buffer's
// maps, the split, the flush's bookkeeping in one array each and the
// fan-out's scaffolding, none of it per shard. Every shard's call counts its
// request and ack in FlushedBytes once.
func TestFlushAllocsIndependentOfShards(t *testing.T) {
	const dim, want, rounds = 4000, 28, 50
	measure := func(servers int) float64 {
		sim, cl, m := testMaster(servers)
		var allocs float64
		run(sim, func(p *simnet.Proc) {
			mat := must(m.CreateMatrix(p, 1, dim))
			w := cl.Executors[0]
			indices := make([]int, 0, 200)
			for c := 7; c < dim; c += 20 {
				indices = append(indices, c)
			}
			delta := must(linalg.NewSparse(indices, make([]float64, len(indices))))
			b := NewPushBuffer(mat)
			round := func() {
				mustOK(b.Add(0, delta))
				mustOK(b.Flush(p, w))
			}
			round()
			allocs = testing.AllocsPerRun(rounds, round) // one more round to warm up
		})
		// Per shard: framing, 12 bytes a column and one row header, the ack.
		overhead := m.Cl.Cost.RequestOverheadB
		if got, want := m.Cache.FlushedBytes, float64(rounds+2)*(float64(servers)*(2*overhead+4)+12*200); got != want {
			t.Errorf("%d servers: FlushedBytes %v, want %v", servers, got, want)
		}
		return allocs
	}
	two, twenty := measure(2), measure(20)
	if two != twenty || twenty != want {
		t.Fatalf("an Add and its Flush allocate %v times on 2 servers and %v on 20, want %d on both", two, twenty, want)
	}
}

// TestStoppedCallsCloseTheirSpans: a RunUntil that cuts a traced, lossy run
// mid-fan-out unwinds every call in flight — from a process or a step child
// — as the process it replaced did: its RPC span ends at the cut and its
// request ID settles.
func TestStoppedCallsCloseTheirSpans(t *testing.T) {
	sim, cl, m := testMaster(4)
	tr := sim.EnableTrace()
	sim.EnableChaos(3, 0.2)
	for i, w := range cl.Executors {
		sim.Spawn("pusher", func(p *simnet.Proc) {
			mat := must(m.CreateMatrix(p, 1, 40))
			delta := must(linalg.NewSparse([]int{1, 11, 21, 31}, []float64{1, 2, 3, 4}))
			for {
				if i%2 == 0 {
					mustOK(mat.PushAdd(p, w, 0, delta)) // a fan-out of step children
				} else {
					mustOK(mat.CallShard(p, w, CallSpec{Shard: i % 4, Mutates: true, ReqBytes: 600, RespBytes: 300}))
				}
			}
		})
	}
	sim.RunUntil(0.05)
	open := 0
	calls := 0
	for _, e := range tr.Events() {
		if e.Kind == obs.KRPC {
			calls++
			if e.End < e.Start {
				open++
			}
		}
	}
	if calls == 0 || open > 0 {
		t.Errorf("%d of %d RPC spans left open by the cut", open, calls)
	}
	if !m.DedupSettled() {
		t.Error("a request ID in flight at the cut never settled")
	}
}

// TestCachedPullAllocsIndependentOfShards: a warm cached pull, every value
// served from the worker's copies so no call is made, allocates the same,
// fixed number of objects on 20 servers as on 2 — the result, the split and
// one per-pull record, none of it per shard. Sparse: 200 columns over every
// shard; dense: two rows.
func TestCachedPullAllocsIndependentOfShards(t *testing.T) {
	const dim, wantSparse, wantDense = 4000, 7, 13
	measure := func(servers int) (sparse, dense float64) {
		sim, cl, m := testMaster(servers)
		run(sim, func(p *simnet.Proc) {
			mat := must(m.CreateMatrix(p, 2, dim))
			w := cl.Executors[0]
			cc := NewCachedClient(mat, CacheConfig{})
			indices := make([]int, 0, 200)
			for c := 7; c < dim; c += 20 {
				indices = append(indices, c)
			}
			rows := []int{0, 1}
			must(cc.PullRowIndices(p, w, 0, indices, nil))
			must(cc.PullRows(p, w, rows))
			calls := m.Net.Calls
			sparse = testing.AllocsPerRun(50, func() { must(cc.PullRowIndices(p, w, 0, indices, nil)) })
			dense = testing.AllocsPerRun(50, func() { must(cc.PullRows(p, w, rows)) })
			if m.Net.Calls != calls {
				t.Errorf("%d servers: warm pulls made %d calls", servers, m.Net.Calls-calls)
			}
		})
		return sparse, dense
	}
	s2, d2 := measure(2)
	s20, d20 := measure(20)
	if s2 != s20 || s20 != wantSparse {
		t.Errorf("a warm cached PullRowIndices allocates %v times on 2 servers and %v on 20, want %d on both", s2, s20, wantSparse)
	}
	if d2 != d20 || d20 != wantDense {
		t.Errorf("a warm cached PullRows allocates %v times on 2 servers and %v on 20, want %d on both", d2, d20, wantDense)
	}
}
