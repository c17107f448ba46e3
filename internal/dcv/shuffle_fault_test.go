package dcv

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ps"
	"repro/internal/simnet"
)

// TestShuffleSurvivesCrashMidFetch crashes a server while the shuffle
// handlers of a non-co-located Dot are fetching operand slices: shard 0's
// handler from the crashed server, shard 1's handler into it. The handler
// blocks (it runs on a lent coroutine), so this is the blocking-handler
// path's fault test. Without recovery the Dot returns ErrServerDown once the
// retries run out, with no panic and nothing left running; with the monitor
// and checkpoints it returns the right value after the replacement comes up.
func TestShuffleSurvivesCrashMidFetch(t *testing.T) {
	const dim = 200000
	want := 0.0
	for i := range dim {
		want += float64(i) * float64(i)
	}
	for _, recover := range []bool{false, true} {
		sim, cl, sess := testSession(2)
		m := sess.Master
		if !recover {
			m.Retry = ps.RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.01, MaxBackoffSec: 0.02, MaxRetries: 5}
		}
		var got float64
		var err error
		var crashedAt, fetchStart simnet.Time
		finished := false
		run(sim, func(p *simnet.Proc) {
			w := cl.Executors[0]
			a, _ := sess.Dense(p, dim, 1)
			b, _ := sess.Dense(p, dim, 1)
			if a.mat.ServerNode(0) == b.mat.ServerNode(0) {
				t.Fatal("the operands are co-located: no shuffle")
			}
			mustOK(a.Set(p, w, seq(dim)))
			mustOK(b.Set(p, w, seq(dim)))
			if recover {
				m.Checkpoint(p, a.mat)
				m.Checkpoint(p, b.mat)
				m.StartMonitor(ps.DefaultDetectorConfig())
				defer m.StopMonitor()
			}
			// Shard 0's handler runs on a's server 0 and fetches b's slice
			// from b's server 0; crash that machine half-way through the
			// fetch's egress.
			src := b.mat.ServerNode(0)
			srcIndex := -1
			for i, n := range cl.Servers {
				if n == src {
					srcIndex = i
				}
			}
			sent := src.BytesSent
			egress := m.Cl.Cost.DenseBytes(dim/2) / simnet.DefaultNodeConfig().BandwidthBps
			p.Sim().Spawn("crasher", func(cp *simnet.Proc) {
				for src.BytesSent == sent {
					cp.Sleep(1e-6)
				}
				fetchStart = cp.Now()
				cp.Sleep(egress / 2)
				crashedAt = cp.Now()
				m.CrashServer(srcIndex)
			})
			got, err = a.Dot(p, w, b)
			finished = true
		})
		switch {
		case !finished:
			t.Fatalf("recover=%v: the Dot never returned", recover)
		case crashedAt == 0:
			t.Fatalf("recover=%v: no fetch started, so no crash was injected", recover)
		case !recover && !errors.Is(err, ps.ErrServerDown):
			t.Errorf("no recovery: err = %v, want ErrServerDown", err)
		case recover && err != nil:
			t.Errorf("with recovery: err = %v", err)
		case recover && math.Abs(got-want) > 1e-9*want:
			t.Errorf("with recovery: Dot = %v, want %v", got, want)
		}
		if m.Net.Attempts <= m.Net.Calls {
			t.Errorf("recover=%v: %d attempts for %d calls: the crash cost no retry", recover, m.Net.Attempts, m.Net.Calls)
		}
		t.Logf("recover=%v: fetch started at %.6f s, crash at %.6f s, err %v", recover, fetchStart, crashedAt, err)
	}
	// Every simulated process runs on a coroutine of the kernel's: none may
	// outlive its run.
	deadline := time.Now().Add(10 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		if !strings.Contains(string(buf), "internal/simnet.") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a simulated process outlived its run:\n%s", buf)
		}
		time.Sleep(time.Millisecond)
	}
}
