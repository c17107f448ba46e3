// Consistency-policy integration tests: full LR training jobs run under the
// pluggable policy seam, checking its two end-to-end contracts — a
// value-bounded policy pulls fewer bytes than a clock-bounded one at equal
// final quality, and adaptive runs produce byte-identical decision counters
// across repeats.
package ps2

import (
	"math"
	"testing"
)

// TestValueBoundedSavesBytesAtEqualLoss is the policy seam's payoff contract
// on the Zipf-skewed full-batch workload: a value-bounded policy serves cached
// weights while accumulated |delta| stays under the bound — regardless of
// clock age — so as gradients shrink it keeps serving where the clock policy
// keeps revalidating. It must pull measurably fewer bytes than clock-bounded
// staleness 2 while converging to within a hair of the same loss. (The
// committed ablation is BENCH_BASELINE.json's ext-consistency entry; this is
// the quick always-on gate.)
func TestValueBoundedSavesBytesAtEqualLoss(t *testing.T) {
	ds, cfg := lrSoakConfig()
	cfg.BatchFraction = 1.0
	const parts = 32

	clock := cfg
	clock.Cache = &CacheConfig{Policy: ClockBoundedPolicy(2)}
	clockLoss, _, clockEngine := runLRParts(t, ds, clock, parts)

	value := cfg
	value.Cache = &CacheConfig{Policy: ValueBoundedPolicy(1.0)}
	valueLoss, _, valueEngine := runLRParts(t, ds, value, parts)

	if math.IsNaN(valueLoss) {
		t.Fatal("value-bounded run produced no model")
	}
	if rel := math.Abs(valueLoss-clockLoss) / clockLoss; rel > 0.05 {
		t.Fatalf("value-bounded loss %v vs clock-bounded %v: gap %.1f%% too large",
			valueLoss, clockLoss, 100*rel)
	}
	cb, vb := clockEngine.Snapshot().Cache, valueEngine.Snapshot().Cache
	if vb.PulledMB() >= 0.75*cb.PulledMB() {
		t.Fatalf("value-bounded pulled %.3f MB vs clock-bounded %.3f MB; want >= 25%% fewer bytes",
			vb.PulledMB(), cb.PulledMB())
	}
	if cc := clockEngine.Snapshot().Consistency; cc.Policy != "clock" || cc.Decisions() == 0 {
		t.Fatalf("clock-bounded run's consistency snapshot = %+v, want policy clock with decisions", cc)
	}
	cons := valueEngine.Snapshot().Consistency
	if cons.Policy != "value" {
		t.Fatalf("consistency snapshot policy = %q, want value", cons.Policy)
	}
	if cons.ServedCached == 0 {
		t.Fatalf("value-bounded policy never served from cache: %+v", cons)
	}
}

// TestAdaptivePolicyEndToEndDeterminism repeats an adaptive-policy training
// run and requires byte-identical results everywhere it could diverge: the
// trained loss, the virtual finish time, the cache accounting and — the
// point of the test — the decision counters and the EWMA-derived effective
// bound. The adaptive controller's state updates ride the deterministic
// simulation order, so two runs must agree exactly.
func TestAdaptivePolicyEndToEndDeterminism(t *testing.T) {
	ds, cfg := lrSoakConfig()
	cfg.BatchFraction = 1.0
	cfg.Iterations = 15
	const parts = 32

	one := func() (float64, float64, Snapshot) {
		run := cfg
		run.Cache = &CacheConfig{Policy: AdaptivePolicy(0.05)}
		loss, end, engine := runLRParts(t, ds, run, parts)
		return loss, end, engine.Snapshot()
	}
	l1, e1, s1 := one()
	l2, e2, s2 := one()
	if l1 != l2 || e1 != e2 {
		t.Fatalf("adaptive runs diverged: loss %v vs %v, end %v vs %v", l1, l2, e1, e2)
	}
	if s1.Consistency != s2.Consistency {
		t.Fatalf("adaptive decision counters diverged:\nrun1 %+v\nrun2 %+v", s1.Consistency, s2.Consistency)
	}
	if s1.Cache != s2.Cache {
		t.Fatalf("adaptive cache accounting diverged:\nrun1 %+v\nrun2 %+v", s1.Cache, s2.Cache)
	}
	cons := s1.Consistency
	if cons.Policy != "adaptive" {
		t.Fatalf("consistency snapshot policy = %q, want adaptive", cons.Policy)
	}
	if cons.Tightenings+cons.Relaxations == 0 {
		t.Fatalf("adaptive bound never moved: %+v", cons)
	}
}
