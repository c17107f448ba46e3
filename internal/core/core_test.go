package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/simnet"
)

func TestEngineBoots(t *testing.T) {
	e := NewEngine(DefaultOptions())
	if len(e.Cluster.Executors) != 20 || len(e.Cluster.Servers) != 20 {
		t.Fatalf("cluster shape wrong: %d executors, %d servers", len(e.Cluster.Executors), len(e.Cluster.Servers))
	}
	end := e.Run(func(p *simnet.Proc) {
		p.Sleep(2.5)
	})
	if end != 2.5 {
		t.Fatalf("Run returned %v, want 2.5", end)
	}
}

func TestEngineSeparateApplications(t *testing.T) {
	// The PS master and the dataflow context must not share machines'
	// roles: servers are distinct from executors and the driver.
	e := NewEngine(DefaultOptions())
	seen := map[int]bool{seenID(e): true}
	for _, n := range e.Cluster.Executors {
		if seen[n.ID] {
			t.Fatalf("node %d reused", n.ID)
		}
		seen[n.ID] = true
	}
	for _, n := range e.Cluster.Servers {
		if seen[n.ID] {
			t.Fatalf("node %d reused", n.ID)
		}
		seen[n.ID] = true
	}
}

func seenID(e *Engine) int { return e.Cluster.Driver.ID }

func TestTraceBasics(t *testing.T) {
	tr := &Trace{Name: "x"}
	if !math.IsNaN(tr.Final()) || !math.IsNaN(tr.Best()) {
		t.Fatal("empty trace should be NaN")
	}
	tr.Add(1, 0.9)
	tr.Add(2, 0.5)
	tr.Add(3, 0.6)
	tr.Add(4, 0.3)
	if tr.Final() != 0.3 || tr.Best() != 0.3 || tr.Len() != 4 {
		t.Fatalf("trace stats wrong: %+v", tr)
	}
	if got := tr.TimeToReach(0.5); got != 2 {
		t.Fatalf("TimeToReach(0.5) = %v, want 2", got)
	}
	if got := tr.TimeToReach(0.1); !math.IsInf(got, 1) {
		t.Fatalf("TimeToReach(0.1) = %v, want +Inf", got)
	}
	if !strings.Contains(tr.String(), "4 samples") {
		t.Fatalf("String = %q", tr.String())
	}
}

// TestDownsampleKeepsFinalSample pins the boundary behaviour: whatever the
// requested size — in particular when it does not divide the length — the
// last sample (the converged loss a table quotes) must survive, alongside
// the first, with times still strictly increasing.
func TestDownsampleKeepsFinalSample(t *testing.T) {
	tr := &Trace{Name: "x"}
	for i := 0; i < 10; i++ {
		tr.Add(float64(i), float64(2*i))
	}
	for _, n := range []int{2, 3, 4, 6, 7, 9} {
		ds := tr.Downsample(n)
		if ds.Len() != n {
			t.Fatalf("Downsample(%d).Len() = %d", n, ds.Len())
		}
		if ds.Times[0] != 0 {
			t.Fatalf("Downsample(%d) dropped the first sample", n)
		}
		if got := ds.Times[n-1]; got != 9 {
			t.Fatalf("Downsample(%d) final time = %v, want 9 (last sample dropped)", n, got)
		}
		if got := ds.Values[n-1]; got != 18 {
			t.Fatalf("Downsample(%d) final value = %v, want 18", n, got)
		}
		for i := 1; i < n; i++ {
			if ds.Times[i] <= ds.Times[i-1] {
				t.Fatalf("Downsample(%d) times not increasing: %v", n, ds.Times)
			}
		}
	}
	// Degenerate sizes return the trace unchanged.
	for _, n := range []int{10, 100, 1, 0, -3} {
		if tr.Downsample(n) != tr {
			t.Fatalf("Downsample(%d) should return the receiver", n)
		}
	}
}

func TestCommonTarget(t *testing.T) {
	a := &Trace{}
	a.Add(1, 0.5)
	a.Add(2, 0.2)
	b := &Trace{}
	b.Add(1, 0.6)
	b.Add(2, 0.4)
	target := CommonTarget(a, b)
	if target < 0.4 || target > 0.42 {
		t.Fatalf("CommonTarget = %v, want ~0.408", target)
	}
	if math.IsInf(a.TimeToReach(target), 1) || math.IsInf(b.TimeToReach(target), 1) {
		t.Fatal("both traces must reach the common target")
	}
}

func TestDownsample(t *testing.T) {
	tr := &Trace{Name: "x"}
	for i := 0; i < 100; i++ {
		tr.Add(float64(i), float64(100-i))
	}
	d := tr.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("downsampled to %d, want 10", d.Len())
	}
	if d.Times[0] != 0 || d.Times[9] != 99 {
		t.Fatalf("endpoints lost: %v .. %v", d.Times[0], d.Times[9])
	}
	small := &Trace{}
	small.Add(1, 1)
	if small.Downsample(10) != small {
		t.Fatal("short traces should be returned unchanged")
	}
}

func TestTaskFailureOptionWiresThrough(t *testing.T) {
	opt := DefaultOptions()
	opt.TaskFailProb = 0.25
	e := NewEngine(opt)
	if e.RDD.FailProb != 0.25 {
		t.Fatalf("FailProb = %v, want 0.25", e.RDD.FailProb)
	}
}

func TestSnapshot(t *testing.T) {
	e := NewEngine(DefaultOptions())
	e.Run(func(p *simnet.Proc) {
		e.Cluster.Executors[0].Send(p, e.Cluster.Servers[0], 2e6)
		e.Cluster.Servers[0].Compute(p, 1e8) // one core-second
		e.Cluster.Driver.Send(p, e.Cluster.Executors[1], 5e5)
	})
	s := e.Snapshot()
	if s.Net.ExecutorSentMB < 2 || s.Net.ServerRecvMB < 2 {
		t.Fatalf("executor->server traffic missing: %+v", s.Net)
	}
	if s.Phases.ServerCoreSec < 0.99 || s.Phases.ServerCoreSec > 1.01 {
		t.Fatalf("server core-seconds = %v, want ~1", s.Phases.ServerCoreSec)
	}
	if s.Net.DriverSentMB < 0.5 {
		t.Fatalf("driver egress missing: %+v", s.Net)
	}
	if s.Events == 0 {
		t.Fatal("no events recorded")
	}
	if s.Phases.Traced {
		t.Fatal("Traced = true on an untraced run")
	}
	if len(s.String()) == 0 {
		t.Fatal("empty snapshot string")
	}
	if s.Serve.Active() {
		t.Fatalf("serve section active on a run that never served: %+v", s.Serve)
	}
	if s.Recovery != (obs.RecoverySnapshot{}) {
		t.Fatalf("recovery section non-zero on a clean run: %+v", s.Recovery)
	}
}
