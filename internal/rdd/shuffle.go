package rdd

import (
	"sort"

	"repro/internal/simnet"
)

// This file adds the wide (shuffle) operators and tree aggregation. PS2
// itself needs only narrow transformations plus driver actions, but the data
// preprocessing the paper motivates (building training data from graphs,
// texts and logs) leans on shuffles, and tree aggregation is the classic
// mitigation for MLlib's driver bottleneck that the MLlib* follow-up paper
// (the paper's reference [34]) builds on — reproduced here as an extension
// baseline.

// Pair is a keyed record for shuffle operators.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// ReduceByKey groups the dataset by key and reduces each group with combine.
// It performs a real shuffle: every map-side partition sends each reduce
// partition its share of the data (all-to-all executor traffic, charged at
// bytesPerRecord per record), then reduce tasks combine locally. The result
// has numParts partitions, keyed by hash.
func ReduceByKey[K comparable, V any](p *simnet.Proc, r *RDD[Pair[K, V]], numParts int,
	bytesPerRecord float64, hash func(K) int, combine func(a, b V) V) *RDD[Pair[K, V]] {
	ctx := r.ctx
	if numParts < 1 {
		numParts = ctx.NumExecutors()
	}
	// Map side: combine locally per key (map-side combining, as Spark does),
	// then bucket records by reduce partition.
	buckets := make([]map[K]V, numParts)
	for i := range buckets {
		buckets[i] = map[K]V{}
	}
	type counts struct{ perBucket []int }
	sent := runTasks(p, r, func(c counts) float64 { return 8 * float64(len(c.perBucket)) },
		func(tc *TaskContext, part int, rows []Pair[K, V]) counts {
			local := map[K]V{}
			for _, kv := range rows {
				if old, ok := local[kv.Key]; ok {
					local[kv.Key] = combine(old, kv.Value)
				} else {
					local[kv.Key] = kv.Value
				}
			}
			tc.Charge(tc.Ctx.Cl.Cost.ElemWork(len(rows)))
			tc.Commit()
			c := counts{perBucket: make([]int, numParts)}
			for k, v := range local {
				b := ((hash(k) % numParts) + numParts) % numParts
				if old, ok := buckets[b][k]; ok {
					buckets[b][k] = combine(old, v)
				} else {
					buckets[b][k] = v
				}
				c.perBucket[b]++
			}
			return c
		})
	// Shuffle: map partition i ships its bucket shares to each reduce
	// partition's owner executor.
	g := p.Sim().NewGroup()
	for mapPart := range sent {
		src := ctx.Owner(mapPart)
		for b, n := range sent[mapPart].perBucket {
			if n == 0 {
				continue
			}
			dst := ctx.Owner(b)
			n := n
			g.Go("shuffle", func(sp *simnet.Proc) {
				src.Send(sp, dst, ctx.Cl.Cost.RequestOverheadB+float64(n)*bytesPerRecord)
			})
		}
	}
	g.Wait(p)
	// Reduce side: deterministic ordering of the combined buckets.
	out := make([][]Pair[K, V], numParts)
	return Source(ctx, numParts, func(tc *TaskContext, part int) []Pair[K, V] {
		if out[part] == nil {
			rows := make([]Pair[K, V], 0, len(buckets[part]))
			for k, v := range buckets[part] {
				rows = append(rows, Pair[K, V]{Key: k, Value: v})
			}
			sort.Slice(rows, func(a, b int) bool {
				return lessAny(rows[a].Key, rows[b].Key)
			})
			tc.Charge(tc.Ctx.Cl.Cost.ElemWork(len(rows)))
			out[part] = rows
		}
		return out[part]
	})
}

// lessAny gives a deterministic (not semantically meaningful) order over
// comparable keys for reproducible reduce output.
func lessAny[K comparable](a, b K) bool {
	switch av := any(a).(type) {
	case int:
		return av < any(b).(int)
	case int32:
		return av < any(b).(int32)
	case int64:
		return av < any(b).(int64)
	case string:
		return av < any(b).(string)
	case float64:
		return av < any(b).(float64)
	default:
		return false
	}
}

// TreeAggregate folds the dataset like Aggregate but combines partials in a
// binary tree across the executors instead of funnelling everything into the
// driver: with P partials only ~log2(P) sequential rounds happen, and each
// round's transfers run executor-to-executor in parallel. This is Spark's
// treeAggregate, the standard mitigation for the driver bottleneck — PS2's
// evaluation compares against plain aggregation because that is what MLlib's
// regression path used, but the extension experiment `ext-treeagg` shows how
// far tree aggregation alone gets.
func TreeAggregate[T, U any](p *simnet.Proc, r *RDD[T], spec AggSpec[T, U]) U {
	partials := runTasks(p, r, func(U) float64 { return 8 }, func(tc *TaskContext, part int, rows []T) U {
		acc := spec.Zero()
		for _, row := range rows {
			acc = spec.Seq(tc, acc, row)
		}
		tc.Commit()
		return acc
	})
	ctx := r.ctx
	// Holders: partial i currently lives on executor owner(i).
	alive := make([]int, len(partials))
	for i := range alive {
		alive[i] = i
	}
	for len(alive) > 1 {
		var next []int
		g := p.Sim().NewGroup()
		for i := 0; i+1 < len(alive); i += 2 {
			dst, src := alive[i], alive[i+1]
			next = append(next, dst)
			g.Go("tree-combine", func(cp *simnet.Proc) {
				ctx.Owner(src).Send(cp, ctx.Owner(dst), spec.Bytes(partials[dst]))
				ctx.Owner(dst).Compute(cp, spec.CombWork)
				partials[dst] = spec.Comb(partials[dst], partials[src])
			})
		}
		if len(alive)%2 == 1 {
			next = append(next, alive[len(alive)-1])
		}
		g.Wait(p)
		alive = next
	}
	// Final partial to the driver.
	root := alive[0]
	g := p.Sim().NewGroup()
	g.Go("tree-final", func(cp *simnet.Proc) {
		ctx.Owner(root).Send(cp, ctx.Cl.Driver, spec.Bytes(partials[root]))
	})
	g.Wait(p)
	return partials[root]
}
