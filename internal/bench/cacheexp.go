package bench

import (
	"fmt"

	"repro/internal/consistency"
	"repro/internal/data"
	"repro/internal/ml/embedding"
	"repro/internal/ml/lr"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func init() {
	register("ext-cache", "Extension: worker-side parameter cache + write-combining pushes — staleness × capacity sweep", runExtCache)
}

// extCacheParts is the LR partition count: four tasks per executor, so
// tasks scheduled on the same machine share cache entries within an
// iteration and their gradients combine four-to-one at flush time.
const extCacheParts = 32

// runExtCache measures the worker-side parameter cache and the
// write-combining push buffer on the workload they target: Zipf-skewed
// sparse LR where every task re-pulls its partition's (heavily overlapping)
// feature set each iteration, plus PS-style DeepWalk whose embedding rows
// are pulled far more often than any single row changes.
//
// The staleness sweep exposes the design's contract directly. At staleness
// 0 every cached value is revalidated against the server's version stamps
// before use, so the run is bit-identical to the uncached one — but in LR
// each task's own gradient invalidates exactly the entries it cached, so
// the validation traffic buys nothing and the arm exists to price the
// exactness guarantee. From staleness 1 up, clock-fresh entries serve
// without any RPC and whole pulls short-circuit, cutting pulled bytes and
// wall-clock while the loss stays within SSP tolerance. The capacity arm
// shows the LRU degrading gracefully when the budget is far below the
// working set, and the combining arm trades one driver-side flush wave per
// iteration for a multiple reduction in pushed bytes.
func runExtCache(o Opts) *Result {
	dcfg := data.ClassifyConfig{
		Rows: 4000, Dim: 6000, NnzPerRow: 12, Skew: 1.0,
		NoiseRate: 0.02, WeightNnz: 600, Seed: 7,
	}
	if o.Quick {
		dcfg.Rows, dcfg.Dim, dcfg.WeightNnz = 2000, 3000, 300
	}
	ds, err := data.GenerateClassify(dcfg)
	if err != nil {
		panic(err)
	}
	cfg := lr.DefaultConfig()
	cfg.Iterations = 30
	if o.Quick {
		cfg.Iterations = 20
	}
	// Full batch: each task's pull set recurs every iteration, the cache's
	// target regime (the skewed analog of CTR training, where hot features
	// appear in every mini-batch).
	cfg.BatchFraction = 1.0

	r := &Result{ID: "ext-cache",
		Title:  "Worker-side parameter cache: pulled bytes, wall-clock and exactness across staleness bounds",
		Header: []string{"workload", "mode", "hit rate", "pulled MB", "baseline MB", "saved", "pushed MB", "time (s)", "final loss"}}

	runLR := func(mode string, ccfg *ps.CacheConfig) (float64, float64, obs.CacheSnapshot) {
		e := tracedEngine(o, 8, 8)
		c := cfg
		c.Cache = ccfg
		var loss float64
		end := e.Run(func(p *simnet.Proc) {
			dataset := rdd.FromSlices(e.RDD, data.Partition(ds.Instances, extCacheParts)).Cache()
			m, err := lr.Train(p, e, dataset, ds.Config.Dim, c, lr.NewSGD())
			if err != nil {
				panic(err)
			}
			loss = m.Trace.Final()
		})
		cs := e.Snapshot().Cache
		addCacheRow(r, "LR-SGD", mode, cs, float64(end), loss)
		return loss, float64(end), cs
	}

	uncachedLoss, uncachedEnd, _ := runLR("uncached", nil)
	exactLoss, _, _ := runLR("cache s=0 (exact)", &ps.CacheConfig{})
	runLR("cache s=1", &ps.CacheConfig{Policy: consistency.NewClockBounded(1)})
	_, cachedEnd, cs2 := runLR("cache s=2", &ps.CacheConfig{Policy: consistency.NewClockBounded(2)})
	_, _, csComb := runLR("cache s=2 + combine", &ps.CacheConfig{Policy: consistency.NewClockBounded(2), CombinePushes: true})
	_, _, csCap := runLR("cache s=2, cap 8KB", &ps.CacheConfig{Policy: consistency.NewClockBounded(2), CapacityBytes: 8 << 10})

	// DeepWalk over the PS pull/push path: embedding rows are read by every
	// pair that touches the vertex but written only by those updates, so
	// even staleness 1 serves most re-pulls for free.
	gcfg := data.Graph1Like()
	gcfg.Vertices = 1200
	if o.Quick {
		gcfg.Vertices = 800
	}
	g, err := data.GenerateGraph(gcfg)
	if err != nil {
		panic(err)
	}
	pairs := data.RandomWalks(g, data.DefaultWalkConfig())
	dwCfg := embedding.DefaultConfig()
	dwCfg.Mode = embedding.ModePullPush
	dwCfg.Iterations = 8
	if o.Quick {
		dwCfg.Iterations = 4
	}
	runDW := func(mode string, ccfg *ps.CacheConfig) {
		e := tracedEngine(o, 8, 4)
		c := dwCfg
		c.Cache = ccfg
		var loss float64
		end := e.Run(func(p *simnet.Proc) {
			prdd := rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, 8)).Cache()
			m, err := embedding.Train(p, e, prdd, g.Vertices(), c)
			if err != nil {
				panic(err)
			}
			loss = m.Trace.Final()
		})
		addCacheRow(r, "PS-DeepWalk", mode, e.Snapshot().Cache, float64(end), loss)
	}
	runDW("uncached", nil)
	runDW("cache s=1 + combine", &ps.CacheConfig{Policy: consistency.NewClockBounded(1), CombinePushes: true})

	bitIdentical := exactLoss == uncachedLoss
	r.Note("staleness 0 revalidates every cached value against server version stamps: final loss bit-identical to uncached = %v", bitIdentical)
	r.Note("staleness 2 pulled %.1f%% fewer bytes than the uncached baseline and finished %.1f%% sooner",
		100*(1-cs2.PulledMB()/cs2.BaselineMB()), 100*(1-cachedEnd/uncachedEnd))
	r.Note("write combining merged %d task pushes into %d flushes, cutting pushed bytes %.1f%% (paid as one driver flush wave per iteration)",
		csComb.CombinedPushes, csComb.Flushes, 100*(1-csComb.FlushedMB()/csComb.FlushBaseMB()))
	r.Note("the 8KB arm evicted %d entries and still saved %.1f%%: the LRU degrades, never breaks",
		csCap.Evictions, 100*(1-csCap.PulledMB()/csCap.BaselineMB()))
	return r
}

// addCacheRow renders one engine run's cache counters as an ext-cache row.
func addCacheRow(r *Result, workload, mode string, cs obs.CacheSnapshot, end, loss float64) {
	if !cs.Active() {
		r.AddRow(workload, mode, "-", "-", "-", "-", "-", end, loss)
		return
	}
	pushed := "-"
	if cs.Flushes > 0 {
		pushed = fmt.Sprintf("%.2f of %.2f", cs.FlushedMB(), cs.FlushBaseMB())
	}
	r.AddRow(workload, mode,
		fmt.Sprintf("%.1f%%", 100*cs.HitRate()),
		cs.PulledMB(), cs.BaselineMB(),
		fmt.Sprintf("%.1f%%", 100*(1-cs.PulledMB()/cs.BaselineMB())),
		pushed, end, loss)
}
