package ps

// Regression tests for the untraced hot paths. Every run here keeps the
// tracer disabled (testMaster never calls Sim.EnableTrace), so any call site
// that dereferences the tracer without a nil guard panics the simulation.
// The two scenarios pinned are the ones production code reaches only under
// failure: a server's dedup set absorbing a retried mutation (rpc.go), and
// the failure detector declaring a server dead (detector.go).

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/simnet"
)

// TestDedupHitWithoutTracer drives mutations through a lossy network with
// tracing off. Lost responses force the client to resend requests the server
// already applied, so the dedup-hit branch — which emits a KDedupHit instant
// when traced — must run repeatedly without a tracer present.
func TestDedupHitWithoutTracer(t *testing.T) {
	sim, cl, m := testMaster(3)
	if sim.Tracer() != nil {
		t.Fatal("precondition: tracer must be disabled")
	}
	sim.EnableChaos(7, 0.15)
	m.Unreliable = true
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		worker := cl.Executors[0]
		for r := 0; r < 300; r++ {
			sv, _ := linalg.NewSparse([]int{r % 30}, []float64{1})
			mustOK(mat.PushAdd(p, worker, 0, sv))
		}
		if m.Net.DedupHits == 0 {
			t.Fatal("no dedup hits: the scenario never exercised the branch under test")
		}
		// Exactly-once held across every retried mutation: 300 increments of
		// +1 spread over 30 columns.
		row := must(mat.PullRow(p, worker, 0))
		for c, v := range row {
			if v != 10 {
				t.Fatalf("col %d = %v after 300 pushes, want 10 (dedup replay corrupted state)", c, v)
			}
		}
	})
}

// TestDetectorFiresWithoutTracer crashes a server with tracing off and lets
// the monitor detect and auto-recover it. The declaration branch emits a
// KDetect instant and opens a KDetectWin span when traced; untraced it must
// complete the whole fence-replace-restore pipeline without panicking.
func TestDetectorFiresWithoutTracer(t *testing.T) {
	sim, cl, m := testMaster(4)
	if sim.Tracer() != nil {
		t.Fatal("precondition: tracer must be disabled")
	}
	run(sim, func(p *simnet.Proc) {
		mat, _ := m.CreateMatrix(p, 1, 40)
		worker := cl.Executors[0]
		vals := make([]float64, 40)
		for i := range vals {
			vals[i] = float64(i)
		}
		mustOK(mat.SetRow(p, worker, 0, vals))
		m.Checkpoint(p, mat)

		m.StartMonitor(DefaultDetectorConfig())
		defer m.StopMonitor()

		m.CrashServer(1)
		p.Sleep(5) // several heartbeat rounds: detect + recover

		if m.Recovery.Detections != 1 {
			t.Fatalf("Detections = %d, want 1", m.Recovery.Detections)
		}
		if m.Recovery.Recoveries != 1 {
			t.Fatalf("Recoveries = %d, want 1", m.Recovery.Recoveries)
		}
		row := must(mat.PullRow(p, worker, 0))
		for c, v := range row {
			if v != vals[c] {
				t.Fatalf("col %d = %v after untraced recovery, want %v", c, v, vals[c])
			}
		}
	})
}

// TestNetBytesCountsDeliveredTransfers pins the data-plane byte counter: in a
// reliable run it equals the per-server load view's bytes (every request and
// response delivered once), and under message loss dropped transfers are not
// counted — retries raise Attempts, not Bytes per delivered call.
func TestNetBytesCountsDeliveredTransfers(t *testing.T) {
	push := func(lossy bool) (*Master, float64) {
		sim, cl, m := testMaster(3)
		if lossy {
			sim.EnableChaos(11, 0.1)
			m.Unreliable = true
		}
		run(sim, func(p *simnet.Proc) {
			mat, err := m.CreateMatrix(p, 1, 30)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 100; r++ {
				sv, _ := linalg.NewSparse([]int{r % 30}, []float64{1})
				mustOK(mat.PushAdd(p, cl.Executors[0], 0, sv))
			}
		})
		var load float64
		for _, l := range m.Load {
			load += l.Bytes
		}
		return m, load
	}
	m, load := push(false)
	if m.Net.Bytes <= 0 || math.Abs(m.Net.Bytes-load) > 1e-9*load {
		t.Fatalf("reliable run: Net.Bytes = %v, per-server load bytes = %v", m.Net.Bytes, load)
	}
	lossy, load := push(true)
	if lossy.Net.Attempts <= lossy.Net.Calls {
		t.Fatalf("10%% loss over 100 mutations cost no retries: %+v", lossy.Net)
	}
	// A failed attempt counts its request if that arrived and never its lost
	// message, so it adds strictly less than one delivered call's bytes.
	retries := float64(lossy.Net.Attempts - lossy.Net.Calls)
	if hi := load + retries*load/float64(lossy.Net.Calls); lossy.Net.Bytes < load || lossy.Net.Bytes >= hi {
		t.Fatalf("lossy run: Net.Bytes = %v outside [%v, %v)", lossy.Net.Bytes, load, hi)
	}
}
