package obs

import "testing"

// fakeClock is a hand-advanced virtual clock for tracer tests.
type fakeClock struct{ t float64 }

func (c *fakeClock) now() float64      { return c.t }
func (c *fakeClock) advance(d float64) { c.t += d }

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Begin(0, "n", KRPC, "x", Span{})
	if sp.OK() || sp.ID() != 0 {
		t.Fatalf("nil Begin returned a live span: %+v", sp)
	}
	sp.End() // must not panic
	tr.Instant(0, "n", KDetect, "x")
	tr.EndOpen()
	if tr.Len() != 0 || tr.Events() != nil || tr.Lanes() != nil {
		t.Fatal("nil tracer recorded something")
	}
	if p := tr.Phases(); p != (PhaseBreakdown{}) {
		t.Fatalf("nil Phases = %+v", p)
	}
}

func TestSpanNestingAndTracks(t *testing.T) {
	c := &fakeClock{}
	tr := New(c.now)

	parent := tr.Begin(1, "node-1", KRPC, "call", Span{})
	c.advance(1)
	child := tr.Begin(1, "node-1", KNetSend, "send", parent)
	// Nested under an open innermost parent: same track.
	ev := tr.Events()
	if ev[1].Track != ev[0].Track {
		t.Fatalf("child track %d != parent track %d", ev[1].Track, ev[0].Track)
	}
	if ev[1].Parent != ev[0].ID {
		t.Fatalf("child parent = %d, want %d", ev[1].Parent, ev[0].ID)
	}
	// A concurrent span (parent not innermost on its track) gets its own row.
	other := tr.Begin(1, "node-1", KRPC, "call2", Span{})
	if tr.Events()[2].Track == ev[0].Track {
		t.Fatal("concurrent span landed on an occupied track")
	}
	c.advance(1)
	child.End()
	other.End()
	parent.End()
	// After everything closed, a new span reuses the first row.
	again := tr.Begin(1, "node-1", KRPC, "call3", Span{})
	if got := tr.Events()[3].Track; got != 0 {
		t.Fatalf("post-drain span on track %d, want 0", got)
	}
	again.End()

	// Cross-lane child: different node means a fresh track on its own lane.
	p2 := tr.Begin(1, "node-1", KRPC, "call4", Span{})
	c2 := tr.Begin(2, "node-2", KServerOp, "op", p2)
	if tr.Events()[5].Parent != p2.ID() {
		t.Fatal("cross-lane parent link lost")
	}
	if tr.Events()[5].Lane == tr.Events()[4].Lane {
		t.Fatal("cross-lane child stayed on the parent lane")
	}
	c2.End()
	p2.End()
}

func TestSpanEndIdempotentAndDur(t *testing.T) {
	c := &fakeClock{}
	tr := New(c.now)
	sp := tr.Begin(0, "n", KServerOp, "op", Span{})
	c.advance(2.5)
	sp.End()
	end := tr.Events()[0].End
	c.advance(1)
	sp.End() // second End must not move the close time
	if got := tr.Events()[0].End; got != end {
		t.Fatalf("double End moved close time %v -> %v", end, got)
	}
	if d := tr.Events()[0].Dur(); d != 2.5 {
		t.Fatalf("Dur = %v, want 2.5", d)
	}
}

func TestCrossTracerParentRejected(t *testing.T) {
	c := &fakeClock{}
	a, b := New(c.now), New(c.now)
	pa := a.Begin(0, "n", KRPC, "call", Span{})
	cb := b.Begin(0, "n", KNetSend, "send", pa)
	if b.Events()[0].Parent != 0 {
		t.Fatal("span parented across tracers")
	}
	cb.End()
	pa.End()
}

func TestEndOpenMarksUnfinished(t *testing.T) {
	c := &fakeClock{}
	tr := New(c.now)
	tr.Begin(0, "n", KRPC, "dangling", Span{})
	c.advance(3)
	tr.EndOpen()
	e := tr.Events()[0]
	if e.End != 3 {
		t.Fatalf("EndOpen closed at %v, want 3", e.End)
	}
	found := false
	for _, kv := range e.Args {
		if kv.K == "unfinished" && kv.V == "true" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unfinished annotation missing: %+v", e.Args)
	}
}

func TestPhases(t *testing.T) {
	c := &fakeClock{}
	tr := New(c.now)
	span := func(k Kind, d float64) {
		s := tr.Begin(0, "n", k, "x", Span{})
		c.advance(d)
		s.End()
	}
	span(KNetSend, 1)
	span(KRPCWait, 2)
	span(KServerOp, 3)
	span(KFusedBatch, 4)
	span(KRecovery, 5)
	span(KRPC, 100)   // container: excluded
	span(KStage, 100) // container: excluded
	p := tr.Phases()
	want := PhaseBreakdown{CommSec: 1, WaitSec: 2, ComputeSec: 7, RecoverySec: 5}
	if p != want {
		t.Fatalf("Phases = %+v, want %+v", p, want)
	}
}

// TestNilTracerZeroAlloc is the CI gate for the disabled-tracer fast path:
// the nil-receiver no-ops must not allocate. Instrumented call sites guard
// with `if t := sim.Tracer(); t != nil` so span names and KV args are never
// even built when tracing is off; this pins the remaining cost at zero.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	var parent Span
	n := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(1, "node", KRPC, "call", parent)
		sp.End()
		tr.Instant(1, "node", KDedupHit, "hit")
	})
	if n != 0 {
		t.Fatalf("nil tracer allocates %v per op, want 0", n)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KNetSend; k <= KLoopPhase; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if int(KLoopPhase) != len(kindNames)-1 {
		t.Fatalf("KLoopPhase = %d is not the last named kind (%d names)", KLoopPhase, len(kindNames))
	}
	for _, k := range []Kind{KIteration, KLoopPhase} {
		if k.Phase() != PhaseOther {
			t.Fatalf("%s is a container but reports phase %d", k, k.Phase())
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind not flagged")
	}
}
