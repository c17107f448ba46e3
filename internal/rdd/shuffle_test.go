package rdd

import (
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

func TestReduceByKeyCounts(t *testing.T) {
	sim, ctx := testCluster(3)
	var got []Pair[int, int]
	runJob(sim, func(p *simnet.Proc) {
		// 100 records over 10 keys, each value 1: counts must be 10 each.
		var parts [][]Pair[int, int]
		parts = make([][]Pair[int, int], 3)
		for i := 0; i < 100; i++ {
			parts[i%3] = append(parts[i%3], Pair[int, int]{Key: i % 10, Value: 1})
		}
		r := FromSlices(ctx, parts)
		reduced := must(ReduceByKey(p, r, 3, 16, func(k int) int { return k }, func(a, b int) int { return a + b }))
		got = must(Collect(p, reduced, 16))
	})
	if len(got) != 10 {
		t.Fatalf("reduce produced %d keys, want 10", len(got))
	}
	for _, kv := range got {
		if kv.Value != 10 {
			t.Fatalf("key %d count = %d, want 10", kv.Key, kv.Value)
		}
	}
}

func TestReduceByKeyShuffleMovesBytes(t *testing.T) {
	sim, ctx := testCluster(4)
	runJob(sim, func(p *simnet.Proc) {
		var parts [][]Pair[int, int]
		parts = make([][]Pair[int, int], 4)
		for i := 0; i < 400; i++ {
			parts[i%4] = append(parts[i%4], Pair[int, int]{Key: i, Value: 1})
		}
		r := FromSlices(ctx, parts)
		reduced := must(ReduceByKey(p, r, 4, 100, func(k int) int { return k }, func(a, b int) int { return a + b }))
		must(Count(p, reduced))
	})
	var execBytes float64
	for _, n := range ctx.Cl.Executors {
		execBytes += n.BytesSent
	}
	// 400 distinct keys, ~3/4 of them move to a different executor at
	// 100 B each: at least ~20KB of executor-to-executor traffic.
	if execBytes < 20000 {
		t.Fatalf("shuffle moved only %v executor bytes", execBytes)
	}
}

// Property: ReduceByKey with addition equals a host-side group-by-sum for any
// key/value multiset and partitioning.
func TestReduceByKeyProperty(t *testing.T) {
	f := func(keys []uint8, partsRaw uint8) bool {
		nparts := int(partsRaw%4) + 1
		sim, ctx := testCluster(3)
		want := map[int]int{}
		parts := make([][]Pair[int, int], nparts)
		for i, k := range keys {
			key := int(k % 16)
			want[key] += i
			parts[i%nparts] = append(parts[i%nparts], Pair[int, int]{Key: key, Value: i})
		}
		var got []Pair[int, int]
		runJob(sim, func(p *simnet.Proc) {
			r := FromSlices(ctx, parts)
			reduced := must(ReduceByKey(p, r, 2, 16, func(k int) int { return k * 7 }, func(a, b int) int { return a + b }))
			got = must(Collect(p, reduced, 16))
		})
		if len(got) != len(want) {
			return false
		}
		for _, kv := range got {
			if want[kv.Key] != kv.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeAggregateMatchesAggregate(t *testing.T) {
	sim, ctx := testCluster(7)
	var flat, tree int
	runJob(sim, func(p *simnet.Proc) {
		r := FromSlices(ctx, intParts(200, 7))
		spec := AggSpec[int, int]{
			Zero:  func() int { return 0 },
			Seq:   func(_ *TaskContext, acc, row int) int { return acc + row },
			Comb:  func(a, b int) int { return a + b },
			Bytes: func(int) float64 { return 8 },
		}
		flat = must(Aggregate(p, r, spec))
		tree = must(TreeAggregate(p, r, spec))
	})
	if flat != tree || flat != 199*200/2 {
		t.Fatalf("flat=%d tree=%d want %d", flat, tree, 199*200/2)
	}
}

func TestTreeAggregateRelievesDriverIngress(t *testing.T) {
	// With large partials, the driver receives P*S bytes under flat
	// aggregation but only ~S under tree aggregation.
	run := func(tree bool) float64 {
		sim, ctx := testCluster(8)
		runJob(sim, func(p *simnet.Proc) {
			r := FromSlices(ctx, intParts(8, 8))
			spec := AggSpec[int, []float64]{
				Zero: func() []float64 { return make([]float64, 1000) },
				Seq:  func(_ *TaskContext, acc []float64, row int) []float64 { return acc },
				Comb: func(a, b []float64) []float64 { return a },
				Bytes: func([]float64) float64 {
					return 8000
				},
				CombWork: 2000,
			}
			if tree {
				must(TreeAggregate(p, r, spec))
			} else {
				must(Aggregate(p, r, spec))
			}
		})
		return ctx.Cl.Driver.BytesRecv
	}
	flat := run(false)
	tree := run(true)
	if tree*4 > flat {
		t.Fatalf("tree aggregation did not relieve the driver: %v vs %v bytes", tree, flat)
	}
}

func TestTreeAggregateSinglePartition(t *testing.T) {
	sim, ctx := testCluster(1)
	var got int
	runJob(sim, func(p *simnet.Proc) {
		r := FromSlices(ctx, intParts(5, 1))
		got = must(TreeAggregate(p, r, AggSpec[int, int]{
			Zero:  func() int { return 0 },
			Seq:   func(_ *TaskContext, acc, row int) int { return acc + row },
			Comb:  func(a, b int) int { return a + b },
			Bytes: func(int) float64 { return 8 },
		}))
	})
	if got != 10 {
		t.Fatalf("got %d, want 10", got)
	}
}

// Property: TreeAggregate equals flat Aggregate for integer sums over any
// data and partitioning.
func TestTreeAggregateProperty(t *testing.T) {
	f := func(rows []int16, partsRaw uint8) bool {
		parts := int(partsRaw%9) + 1
		sim, ctx := testCluster(4)
		dat := make([][]int, parts)
		want := 0
		for i, v := range rows {
			dat[i%parts] = append(dat[i%parts], int(v))
			want += int(v)
		}
		var flat, tree int
		runJob(sim, func(p *simnet.Proc) {
			r := FromSlices(ctx, dat)
			spec := AggSpec[int, int]{
				Zero:  func() int { return 0 },
				Seq:   func(_ *TaskContext, acc, row int) int { return acc + row },
				Comb:  func(a, b int) int { return a + b },
				Bytes: func(int) float64 { return 8 },
			}
			flat = must(Aggregate(p, r, spec))
			tree = must(TreeAggregate(p, r, spec))
		})
		return flat == want && tree == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
