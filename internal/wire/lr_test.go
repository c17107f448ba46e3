package wire

// End-to-end acceptance for the real transport: the LR job trained over
// live TCP servers must converge, and its loss trajectory must match the
// simnet reference arm — same batches, same math, different bytes-mover.

import (
	"math"
	"testing"
	"time"
)

func testLRConfig() LRConfig {
	return LRConfig{
		Iterations: 12,
		BatchSize:  128,
	}
}

func TestLROverTCPMatchesSimnet(t *testing.T) {
	cfg := testLRConfig()
	cfg.Dataset.Rows = 1500
	cfg.Dataset.Dim = 3000
	cfg = cfg.withDefaults()

	const servers = 2
	addrs := make([]string, servers)
	for i := range addrs {
		_, addr := startServer(t)
		addrs[i] = addr
	}
	r := DefaultRetry()
	r.Timeout = 5 * time.Second // a loaded CI box can stall > 250ms
	c := NewClient(addrs, r)
	defer c.Close()

	wireRun, err := RunLR(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	simRun, err := RunLRSimnet(cfg, servers)
	if err != nil {
		t.Fatal(err)
	}

	if len(wireRun.Losses) != cfg.Iterations || len(simRun.Result.Losses) != cfg.Iterations {
		t.Fatalf("trajectory lengths %d / %d, want %d",
			len(wireRun.Losses), len(simRun.Result.Losses), cfg.Iterations)
	}
	// The two arms share batch selection, gradient math and update order;
	// only the transport differs, so the trajectories must agree to float
	// round-off.
	const tol = 1e-9
	for i := range wireRun.Losses {
		if d := math.Abs(wireRun.Losses[i] - simRun.Result.Losses[i]); d > tol {
			t.Fatalf("iteration %d: wire loss %v vs simnet %v (|Δ| = %g)",
				i, wireRun.Losses[i], simRun.Result.Losses[i], d)
		}
	}
	if d := math.Abs(wireRun.FinalLoss - simRun.Result.FinalLoss); d > tol {
		t.Fatalf("final loss: wire %v vs simnet %v", wireRun.FinalLoss, simRun.Result.FinalLoss)
	}
	// On a clean network the pipelined rounds send every frame once.
	if st := c.Stats(); st.Attempts != st.Calls || st.Timeouts != 0 {
		t.Fatalf("client stats %+v: frames were resent on a clean run", st)
	}
	// And the run must have actually learned something.
	if wireRun.FinalLoss >= wireRun.Losses[0] {
		t.Fatalf("no convergence: final %v vs first %v", wireRun.FinalLoss, wireRun.Losses[0])
	}
}

func TestLRSingleServer(t *testing.T) {
	cfg := testLRConfig()
	cfg.Iterations = 5
	cfg.Dataset.Rows = 600
	cfg.Dataset.Dim = 800

	_, addr := startServer(t)
	c := NewClient([]string{addr}, DefaultRetry())
	defer c.Close()
	res, err := RunLR(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if idx := res.Weights.Indices; len(idx) == 0 || idx[len(idx)-1] >= 800 {
		t.Fatalf("weights at columns %v of 800", idx)
	}
	var nonzero int
	for _, w := range res.Weights.Values {
		if w != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("training left all weights zero")
	}
}
