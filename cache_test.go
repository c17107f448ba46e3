// Worker-cache integration tests: full LR training jobs run through the
// cached client and write-combining buffer, checking the three contract
// points end to end — staleness-0 runs are bit-identical to uncached runs,
// caching saves wire bytes and virtual time, and cached chaos runs stay
// deterministic and coherent across server recoveries.
package ps2

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
)

// runLRParts is runLR with an explicit partition count, so tests can run
// several tasks per executor and exercise intra-iteration cache sharing.
func runLRParts(t *testing.T, ds *data.ClassifyDataset, cfg lr.Config, parts int) (float64, float64, *Engine) {
	t.Helper()
	opt := DefaultOptions()
	opt.Executors, opt.Servers = 8, 8
	tuneFaultTimescales(&opt)
	engine := NewEngine(opt)
	var loss float64
	end := engine.Run(func(p *Proc) {
		dataset := rdd.FromSlices(engine.RDD, data.Partition(ds.Instances, parts)).Cache()
		model, err := TrainLogistic(p, engine, dataset, ds.Config.Dim, cfg, lr.NewSGD())
		if err != nil {
			t.Errorf("train: %v", err)
			return
		}
		loss = lr.EvalLoss(lr.Logistic, ds.Instances, model.Weights.Pull(p, engine.Driver()))
	})
	return loss, float64(end), engine
}

// TestCachedTrainingBitIdenticalAtClockBoundZero is the exactness contract:
// with staleness 0 and combining off, every cached value is revalidated
// against the server's version stamps before use, so the trained model —
// and hence the final full-data loss — must be bit-identical to the
// uncached run's. Bound 0 is the correctness arm, not the performance
// arm: in LR every feature a task pulls receives that task's own gradient
// in the same iteration, so each cached entry is invalidated by the very
// step that follows it and no bytes can be saved without staleness (the
// savings arms are the next test and the ext-cache experiment).
func TestCachedTrainingBitIdenticalAtClockBoundZero(t *testing.T) {
	ds, cfg := lrSoakConfig()
	uncachedLoss, _, _ := runLR(t, ds, cfg, nil)

	ccfg := cfg
	ccfg.Cache = &CacheConfig{}
	cachedLoss, _, engine := runLR(t, ds, ccfg, nil)

	if cachedLoss != uncachedLoss {
		t.Fatalf("staleness-0 cached loss %v != uncached %v (must be bit-identical)",
			cachedLoss, uncachedLoss)
	}
	c := engine.Snapshot().Cache
	if !c.Active() || c.Validations == 0 {
		t.Fatalf("cache was never exercised: %+v", c)
	}
}

// TestCachedTrainingSavesBytesWithClockBound is the performance contract on
// a Zipf-skewed full-batch workload, where every task re-pulls its
// partition's feature set each iteration: a staleness-2 cache must cut the
// pulled bytes by at least 30% versus what the uncached operators would
// pay, finish sooner, and converge to within a hair of clean quality.
// A second arm adds write combining (4 tasks per executor merging their
// gradients host-side) and must cut the pushed bytes too; combining pays
// a driver-side flush wave per iteration, so only the pull-side arm is
// held to the wall-clock bar.
func TestCachedTrainingSavesBytesWithClockBound(t *testing.T) {
	ds, cfg := lrSoakConfig()
	cfg.BatchFraction = 1.0
	const parts = 32
	uncachedLoss, uncachedEnd, _ := runLRParts(t, ds, cfg, parts)

	ccfg := cfg
	ccfg.Cache = &CacheConfig{Policy: ClockBoundedPolicy(2)}
	cachedLoss, cachedEnd, engine := runLRParts(t, ds, ccfg, parts)

	if math.IsNaN(cachedLoss) {
		t.Fatal("cached run produced no model")
	}
	if rel := math.Abs(cachedLoss-uncachedLoss) / uncachedLoss; rel > 0.05 {
		t.Fatalf("stale cached loss %v vs uncached %v: gap %.1f%% too large",
			cachedLoss, uncachedLoss, 100*rel)
	}
	c := engine.Snapshot().Cache
	if c.Hits == 0 {
		t.Fatalf("no pure cache hits on a full-batch workload: %+v", c)
	}
	if c.PulledMB() > 0.7*c.BaselineMB() {
		t.Fatalf("pulled %.3f MB of a %.3f MB baseline; want >= 30%% reduction",
			c.PulledMB(), c.BaselineMB())
	}
	if cachedEnd >= uncachedEnd {
		t.Fatalf("cached run took %.4fs vs uncached %.4fs; not faster", cachedEnd, uncachedEnd)
	}

	ccfg.Cache = &CacheConfig{Policy: ClockBoundedPolicy(2), CombinePushes: true}
	combinedLoss, _, engine := runLRParts(t, ds, ccfg, parts)
	if math.IsNaN(combinedLoss) {
		t.Fatal("combined run produced no model")
	}
	if rel := math.Abs(combinedLoss-uncachedLoss) / uncachedLoss; rel > 0.05 {
		t.Fatalf("combined loss %v vs uncached %v: gap %.1f%% too large",
			combinedLoss, uncachedLoss, 100*rel)
	}
	cc := engine.Snapshot().Cache
	if cc.CombinedPushes <= cc.Flushes {
		t.Fatalf("no pushes were merged (%d pushes over %d flushes)", cc.CombinedPushes, cc.Flushes)
	}
	if cc.FlushedMB() > 0.7*cc.FlushBaseMB() {
		t.Fatalf("flushed %.3f MB of a %.3f MB push baseline; want >= 30%% reduction",
			cc.FlushedMB(), cc.FlushBaseMB())
	}
}

// TestCachedChaosSoak runs cached training through the full fault gauntlet —
// ambient message loss plus a mid-training server crash healed by the
// detector — and requires clean-run quality and epoch-fence coherence.
func TestCachedChaosSoak(t *testing.T) {
	ds, cfg := lrSoakConfig()
	cfg.Cache = &CacheConfig{Policy: ClockBoundedPolicy(1), CombinePushes: true}

	cleanLoss, _, _ := runLR(t, ds, cfg, nil)
	_, lossyEnd, _ := runLR(t, ds, cfg, &FaultPlan{LossProb: 0.02})
	faults := &FaultPlan{
		LossProb:      0.02,
		ServerCrashes: []CrashEvent{{AtSec: 0.4 * lossyEnd, Index: 2}},
	}
	chaosLoss, _, engine := runLR(t, ds, cfg, faults)

	if math.IsNaN(chaosLoss) {
		t.Fatal("cached chaos run produced no model")
	}
	if rel := math.Abs(chaosLoss-cleanLoss) / cleanLoss; rel > 0.01 {
		t.Fatalf("cached chaos loss %v vs clean cached %v: gap %.3f%% exceeds 1%%",
			chaosLoss, cleanLoss, 100*rel)
	}
	snap := engine.Snapshot()
	if snap.Recovery.Recoveries < 1 {
		t.Fatalf("no recovery ran: %+v", snap.Recovery)
	}
	if snap.Cache.EpochFences == 0 {
		t.Fatal("server recovered but no cache entry was epoch-fenced")
	}
}

// TestCachedChaosDeterministic asserts cached chaos runs remain bit-for-bit
// reproducible: same fault plan, same seeds, identical loss and duration.
func TestCachedChaosDeterministic(t *testing.T) {
	ds, cfg := lrSoakConfig()
	cfg.Iterations = 10
	cfg.Cache = &CacheConfig{Policy: ClockBoundedPolicy(1), CombinePushes: true, CapacityBytes: 64 << 10}
	plan := func() *FaultPlan {
		return &FaultPlan{
			LossProb:      0.02,
			ServerCrashes: []CrashEvent{{AtSec: 2, Index: 1}},
		}
	}
	l1, e1, _ := runLR(t, ds, cfg, plan())
	l2, e2, _ := runLR(t, ds, cfg, plan())
	if l1 != l2 || e1 != e2 {
		t.Fatalf("cached chaos runs diverged: loss %v vs %v, end %v vs %v", l1, l2, e1, e2)
	}
}
