package ps2

import (
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
)

// TestPreprocessThenTrainSingleSystem is the paper's core pitch as an
// integration test: raw events are cleaned and featurized with dataflow
// operators (a real shuffle included) and the resulting instances train on
// the parameter servers — one engine, no data movement between systems.
func TestPreprocessThenTrainSingleSystem(t *testing.T) {
	type event struct {
		User int32
		Item int32
	}
	const users, items = 800, 500
	rng := linalg.NewRNG(41)
	good := map[int32]bool{}
	for len(good) < items/10 {
		good[int32(rng.Intn(items))] = true
	}
	var events []event
	converted := map[int32]bool{}
	for i := 0; i < 16000; i++ {
		ev := event{User: int32(rng.Intn(users)), Item: int32(rng.Zipf(items, 1.05))}
		if good[ev.Item] {
			converted[ev.User] = true
		}
		events = append(events, ev)
	}

	opt := DefaultOptions()
	opt.Executors, opt.Servers = 4, 4
	e := NewEngine(opt)

	var metrics lr.ClusterMetrics
	e.Run(func(p *Proc) {
		parts := make([][]event, 4)
		for i, ev := range events {
			parts[i%4] = append(parts[i%4], ev)
		}
		logRDD := rdd.FromSlices(e.RDD, parts).Cache()

		// Frequency pruning with a shuffle.
		counts, err := rdd.ReduceByKey(p,
			rdd.Map(logRDD, func(ev event) rdd.Pair[int32, int] { return rdd.Pair[int32, int]{Key: ev.Item, Value: 1} }),
			4, 12, func(k int32) int { return int(k) }, func(a, b int) int { return a + b })
		if err != nil {
			t.Fatal(err)
		}
		counted, err := rdd.Collect(p, counts, 12)
		if err != nil {
			t.Fatal(err)
		}
		kept := map[int32]int{}
		var ids []int32
		for _, kv := range counted {
			if kv.Value >= 3 {
				ids = append(ids, kv.Key)
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for i, id := range ids {
			kept[id] = i
		}
		if len(kept) < items/4 {
			t.Fatalf("pruning kept only %d items", len(kept))
		}

		// Per-user bag-of-items instances.
		type bag struct{ items map[int]bool }
		perUser, err := rdd.ReduceByKey(p,
			rdd.Map(logRDD, func(ev event) rdd.Pair[int32, bag] {
				b := bag{items: map[int]bool{}}
				if col, ok := kept[ev.Item]; ok {
					b.items[col] = true
				}
				return rdd.Pair[int32, bag]{Key: ev.User, Value: b}
			}),
			4, 64, func(k int32) int { return int(k) },
			func(a, b bag) bag {
				for c := range b.items {
					a.items[c] = true
				}
				return a
			})
		instances := rdd.Map(perUser, func(kv rdd.Pair[int32, bag]) data.Instance {
			var idx []int
			for c := range kv.Value.items {
				idx = append(idx, c)
			}
			sort.Ints(idx)
			vals := make([]float64, len(idx))
			for i := range vals {
				vals[i] = 1
			}
			sv, err := linalg.NewSparse(idx, vals)
			if err != nil {
				t.Fatal(err)
			}
			label := 0.0
			if converted[kv.Key] {
				label = 1
			}
			return data.Instance{Features: sv, Label: label}
		}).Cache()

		cfg := lr.DefaultConfig()
		cfg.Iterations = 30
		cfg.BatchFraction = 0.5
		cfg.LearningRate = 0.3
		model, err := TrainLogistic(p, e, instances, len(kept), cfg, lr.NewAdam())
		if err != nil {
			t.Fatal(err)
		}
		if metrics, err = lr.EvalOnCluster(p, e, instances, lr.Logistic, model.Weights); err != nil {
			t.Fatal(err)
		}
	})
	if metrics.Rows == 0 {
		t.Fatal("no instances evaluated")
	}
	if metrics.Accuracy < 0.85 {
		t.Fatalf("pipeline accuracy %v; the conversion signal is deterministic and should be learnable", metrics.Accuracy)
	}
}
