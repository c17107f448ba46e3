package ps

import (
	"testing"

	"repro/internal/consistency"
	"repro/internal/linalg"
	"repro/internal/simnet"
)

// BenchmarkPushBufferCombine measures the host-side cost of write combining:
// merging one 64-nnz sparse delta into the per-server accumulation maps.
func BenchmarkPushBufferCombine(b *testing.B) {
	sim, _, m := testMaster(4)
	var mat *Matrix
	run(sim, func(p *simnet.Proc) {
		var err error
		mat, err = m.CreateMatrix(p, 1, 4096)
		if err != nil {
			b.Fatal(err)
		}
	})
	buf := NewPushBuffer(mat)
	cols := make([]int, 64)
	vals := make([]float64, 64)
	for k := range cols {
		cols[k] = k * 64
		vals[k] = float64(k)
	}
	sv, err := linalg.NewSparse(cols, vals)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := buf.Add(0, sv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedPullWarm measures reads answered entirely from warm,
// clock-fresh copies: the fast path every repeated read takes under a
// staleness bound. The two cache forms never touch the simulated network;
// the replica read pays its one RPC to the rotating serving server, whose
// copies answer without an owner round trip.
func BenchmarkCachedPullWarm(b *testing.B) {
	idx := make([]int, 256)
	for k := range idx {
		idx[k] = k * 16
	}
	rows := []int{0, 1, 2, 3}
	cases := []struct {
		name string
		open func(mat *Matrix, p *simnet.Proc, node *simnet.Node) func() error
	}{
		{"cache-sparse", func(mat *Matrix, p *simnet.Proc, node *simnet.Node) func() error {
			cc := NewCachedClient(mat, CacheConfig{Policy: consistency.NewClockBounded(1)})
			return func() error { _, err := cc.PullRowIndices(p, node, 0, idx); return err }
		}},
		{"cache-rows", func(mat *Matrix, p *simnet.Proc, node *simnet.Node) func() error {
			cc := NewCachedClient(mat, CacheConfig{Policy: consistency.NewClockBounded(1)})
			return func() error { _, err := cc.PullRows(p, node, rows); return err }
		}},
		{"replica-hot", func(mat *Matrix, p *simnet.Proc, node *simnet.Node) func() error {
			rs := must(NewHotReplicaSet(mat, ReplicaConfig{HotCols: idx, Policy: consistency.NewClockBounded(1)}))
			return func() error { _, err := rs.PullRowIndices(p, node, 0, idx); return err }
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sim, cl, m := testMaster(4)
			run(sim, func(p *simnet.Proc) {
				mat, err := m.CreateMatrix(p, len(rows), 4096)
				if err != nil {
					b.Fatal(err)
				}
				read := c.open(mat, p, cl.Executors[0])
				for i := 0; i < mat.Part.NumServers(); i++ { // warm every rotating store
					if err := read(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := read(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
