// Observability soak tests: full training jobs with the span tracer armed.
// The properties checked here are what make the trace a correctness tool
// rather than just a profiler — byte-identical exports for identical seeds
// (even under chaos), recovery spans nested inside the detector's fencing
// window, and tracing that observes the simulation without perturbing it.
package ps2

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/ml/lr"
	"repro/internal/obs"
)

// tracedLR trains LR under the given fault plan, optionally with the tracer
// armed, and returns the finishing time and the engine.
func tracedLR(t *testing.T, ds *data.ClassifyDataset, cfg lr.Config, faults *FaultPlan, trace bool) (float64, *Engine) {
	t.Helper()
	opt := DefaultOptions()
	opt.Executors, opt.Servers = 8, 8
	opt.Faults = faults
	opt.Trace = trace
	tuneFaultTimescales(&opt)
	engine := NewEngine(opt)
	end := engine.Run(func(p *Proc) {
		dataset := LoadInstances(engine, ds.Instances)
		if _, err := TrainLogistic(p, engine, dataset, ds.Config.Dim, cfg, lr.NewSGD()); err != nil {
			t.Errorf("train: %v", err)
		}
	})
	return float64(end), engine
}

// TestGoldenTraceChaos runs the same chaotic training job twice — ambient
// message loss plus a mid-training server crash the monitor must heal — and
// requires the two exported traces to be byte-identical. It then reads the
// recovery spans out of the trace and checks they nest inside the detector's
// fencing window.
func TestGoldenTraceChaos(t *testing.T) {
	ds, cfg := lrSoakConfig()

	// Calibration: loss-only run fixes the timeline so the crash lands
	// mid-training (same chaos seed, deterministic simulation).
	lossyEnd, _ := tracedLR(t, ds, cfg, &FaultPlan{LossProb: 0.02}, false)

	plan := func() *FaultPlan {
		return &FaultPlan{
			LossProb:      0.02,
			ServerCrashes: []CrashEvent{{AtSec: 0.4 * lossyEnd, Index: 2}},
		}
	}
	endA, engA := tracedLR(t, ds, cfg, plan(), true)
	endB, engB := tracedLR(t, ds, cfg, plan(), true)
	if endA != endB {
		t.Fatalf("identical seeds finished at different times: %v vs %v", endA, endB)
	}

	var a, b bytes.Buffer
	if err := engA.Tracer().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := engB.Tracer().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("traced run exported an empty file")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("golden trace mismatch: identical seed+fault plan exported different bytes (%d vs %d)", a.Len(), b.Len())
	}

	// Recovery nesting: every ps.recovery span must be parented by an open
	// ps.detect-window span and fit inside its time range.
	events := engA.Tracer().Events()
	windows := map[uint64]obs.Event{}
	for _, e := range events {
		if e.Kind == obs.KDetectWin {
			windows[e.ID] = e
		}
	}
	recoveries := 0
	for _, e := range events {
		if e.Kind != obs.KRecovery {
			continue
		}
		recoveries++
		win, ok := windows[e.Parent]
		if !ok {
			t.Fatalf("recovery span %d not parented by a detect window (parent=%d)", e.ID, e.Parent)
		}
		if e.Start < win.Start || e.End > win.End {
			t.Fatalf("recovery span [%v,%v] outside its fencing window [%v,%v]",
				e.Start, e.End, win.Start, win.End)
		}
	}
	if recoveries == 0 {
		t.Fatal("chaos run recorded no recovery span (did the crash fire?)")
	}
	if engA.Snapshot().Recovery.Recoveries != recoveries {
		t.Fatalf("trace shows %d recoveries, snapshot says %d",
			recoveries, engA.Snapshot().Recovery.Recoveries)
	}
}

// TestTracerObservesWithoutPerturbing is the semantic form of the "zero cost
// when disabled" requirement: arming the tracer must not change what the
// simulation computes — same finishing time, same event count, either way.
func TestTracerObservesWithoutPerturbing(t *testing.T) {
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 500, Dim: 1000, NnzPerRow: 10, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 100, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lr.DefaultConfig()
	cfg.Iterations = 8
	cfg.BatchFraction = 0.3

	endOff, engOff := tracedLR(t, ds, cfg, nil, false)
	endOn, engOn := tracedLR(t, ds, cfg, nil, true)
	if endOff != endOn {
		t.Fatalf("tracing changed the virtual finish time: %v vs %v", endOff, endOn)
	}
	if a, b := engOff.Sim.EventsProcessed(), engOn.Sim.EventsProcessed(); a != b {
		t.Fatalf("tracing changed the event count: %d vs %d", a, b)
	}
	if engOff.Tracer() != nil {
		t.Fatal("untraced engine has a tracer")
	}
	if engOn.Tracer().Len() == 0 {
		t.Fatal("traced engine recorded nothing")
	}
	// The virtual-cost baseline for the untraced workload. These constants
	// are the committed reference the CI gate checks against, and they are
	// exact: if disabled-tracer instrumentation ever adds simulation events
	// or virtual time, or the PS2 training loop reorders its events, this
	// trips before any wall-clock benchmark could.
	const (
		baselineEnd    = 0.018210692
		baselineEvents = 11684
	)
	if rel := math.Abs(endOff-baselineEnd) / baselineEnd; rel > 1e-9 {
		t.Fatalf("untraced finish time %v differs from baseline %v (update the baseline if intentional)",
			endOff, baselineEnd)
	}
	if n := engOff.Sim.EventsProcessed(); n != baselineEvents {
		t.Fatalf("untraced event count %d differs from baseline %d (update the baseline if intentional)",
			n, baselineEvents)
	}
}
