// ps2worker trains logistic regression against live ps2serve processes
// over the wire protocol — the multi-process counterpart of the simulated
// LR experiments.
//
//	ps2serve -addr 127.0.0.1:7070 &
//	ps2serve -addr 127.0.0.1:7071 &
//	ps2worker -servers 127.0.0.1:7070,127.0.0.1:7071 -iters 20
//
// With -compare-simnet the same job is replayed on the simulated cluster
// and the two loss trajectories are checked against each other — the
// acceptance gate for the real transport. -assert-loss bounds the final
// full-dataset loss. Either check failing exits nonzero. The "rpc:" summary
// line ends with the process's peak resident set (VmHWM) where
// /proc/self/status has it; it is printed before any replay.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	var (
		servers    = flag.String("servers", "", "comma-separated ps2serve addresses (required)")
		iters      = flag.Int("iters", 20, "training iterations")
		batch      = flag.Int("batch", 256, "mini-batch size")
		rate       = flag.Float64("rate", 0.5, "learning rate")
		rows       = flag.Int("rows", 2000, "dataset rows")
		dim        = flag.Int("dim", 5000, "model dimensions")
		nnz        = flag.Int("nnz", 12, "nonzeros per row")
		seed       = flag.Uint64("seed", 17, "dataset seed")
		timeoutSec = flag.Float64("timeout-sec", 5, "per-attempt RPC deadline in seconds")
		assertLoss = flag.Float64("assert-loss", 0, "fail unless final loss < this (0 disables)")
		compareSim = flag.Bool("compare-simnet", false, "replay on the simulated cluster and compare trajectories")
		tol        = flag.Float64("tol", 1e-9, "trajectory comparison tolerance")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ps2worker: "+format+"\n", args...)
		os.Exit(1)
	}
	addrs := strings.Split(*servers, ",")
	if *servers == "" || len(addrs) == 0 {
		fail("-servers is required")
	}

	cfg := wire.LRConfig{
		Dataset: data.ClassifyConfig{
			Rows: *rows, Dim: *dim, NnzPerRow: *nnz,
			Skew: 1.0, NoiseRate: 0.02, WeightNnz: *dim / 10, Seed: *seed,
		},
		Iterations:   *iters,
		BatchSize:    *batch,
		LearningRate: *rate,
	}
	retry := wire.DefaultRetry()
	retry.Timeout = time.Duration(*timeoutSec * float64(time.Second))
	c := wire.NewClient(addrs, retry)
	defer c.Close()

	start := time.Now()
	res, err := wire.RunLR(c, cfg)
	if err != nil {
		fail("%v", err)
	}
	wall := time.Since(start)

	for i, l := range res.Losses {
		fmt.Printf("iter %3d  loss %.6f\n", i, l)
	}
	st := c.Stats()
	mb := float64(st.BytesIn+st.BytesOut) / 1e6
	fmt.Printf("final full-dataset loss %.6f over %d servers in %.3fs wall\n",
		res.FinalLoss, len(addrs), wall.Seconds())
	// The peak resident set is the TCP run's: any simnet replay comes after.
	fmt.Printf("rpc: %d calls (%d attempts, %d timeouts), %.2f MB moved, %.0f calls/s, %.2f MB/s%s\n",
		st.Calls, st.Attempts, st.Timeouts, mb,
		float64(st.Calls)/wall.Seconds(), mb/wall.Seconds(), obs.PeakRSS())

	if *compareSim {
		simRun, err := wire.RunLRSimnet(cfg, len(addrs))
		if err != nil {
			fail("simnet reference arm: %v", err)
		}
		for i := range res.Losses {
			if d := math.Abs(res.Losses[i] - simRun.Result.Losses[i]); d > *tol {
				fail("iteration %d diverges from simnet: wire %v vs sim %v (|Δ| = %g > %g)",
					i, res.Losses[i], simRun.Result.Losses[i], d, *tol)
			}
		}
		if d := math.Abs(res.FinalLoss - simRun.Result.FinalLoss); d > *tol {
			fail("final loss diverges from simnet: wire %v vs sim %v", res.FinalLoss, simRun.Result.FinalLoss)
		}
		fmt.Printf("simnet reference: trajectories agree to %g (virtual wall %.3fs, %d RPCs)\n",
			*tol, simRun.WallSec, simRun.Calls)
	}
	if *assertLoss > 0 && res.FinalLoss >= *assertLoss {
		fail("final loss %.6f not below asserted bound %.6f", res.FinalLoss, *assertLoss)
	}
}
