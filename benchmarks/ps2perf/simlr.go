package main

import (
	"fmt"
	"os"
	"time"

	ps2 "repro"
	"repro/internal/data"
	"repro/internal/ml/lr"
	"repro/internal/par"
)

// simSize fixes the sim-lr-adam workload: logistic regression with Adam on
// the simulated cluster of ps2.DefaultOptions (20 executors, 20 servers),
// through the public ps2 package only. It runs simnet, the simulated ps, dcv,
// rdd and core — the code the paper's figures are regenerated on and none of
// which the TCP workloads execute — and opens no socket.
type simSize struct {
	rows, dim, nnz, weightNnz, iters int
	batchFraction                    float64
}

func simSizeOf(smoke bool) simSize {
	if smoke {
		return simSize{rows: 1000, dim: 5000, nnz: 20, weightNnz: 500, iters: 4, batchFraction: 0.2}
	}
	return simSize{rows: 20000, dim: 100000, nnz: 20, weightNnz: 10000, iters: 100, batchFraction: 0.1}
}

const simLearnRate = 0.05

// simRep is one training run on a fresh engine.
type simRep struct {
	setupSec, genSec           float64
	hostSec                    float64 // Engine.Run by the host clock
	loadSec, trainSec, pullSec float64
	cpuSec                     float64
	snap                       ps2.Snapshot
	loss                       float64
	parCalls, parParallel      uint64
	ds                         *data.ClassifyDataset
}

func runSimRep(z simSize, seed uint64, engineTrace bool) (*simRep, error) {
	rep := &simRep{}
	resetSelfPeakRSS()
	start := time.Now()
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: z.rows, Dim: z.dim, NnzPerRow: z.nnz,
		Skew: 1.1, NoiseRate: 0.02, WeightNnz: z.weightNnz, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rep.ds = ds
	rep.genSec = time.Since(start).Seconds()
	opt := ps2.DefaultOptions()
	opt.Trace = engineTrace
	e := ps2.NewEngine(opt)
	cfg := lr.DefaultConfig()
	cfg.Iterations = z.iters
	cfg.BatchFraction = z.batchFraction
	adam := lr.NewAdam()
	adam.LearningRate = simLearnRate
	rep.setupSec = time.Since(start).Seconds()

	var weights []float64
	var trainErr error
	parBefore, cpuBefore := par.PoolStats(), selfCPU()
	runStart := time.Now()
	e.Run(func(p *ps2.Proc) {
		t0 := time.Now()
		dataset := ps2.LoadInstances(e, ds.Instances)
		t1 := time.Now()
		model, err := ps2.TrainLogistic(p, e, dataset, z.dim, cfg, adam)
		t2 := time.Now()
		if err != nil {
			trainErr = err
			return
		}
		weights = model.Weights.Pull(p, e.Driver())
		rep.loadSec, rep.trainSec, rep.pullSec = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds()
	})
	rep.hostSec = time.Since(runStart).Seconds()
	if trainErr != nil {
		return nil, fmt.Errorf("TrainLogistic: %w", trainErr)
	}
	parAfter := par.PoolStats()
	rep.cpuSec = selfCPU() - cpuBefore
	rep.parCalls, rep.parParallel = parAfter.Calls-parBefore.Calls, parAfter.Parallel-parBefore.Parallel
	rep.snap = e.Snapshot()
	rep.loss = lr.EvalLoss(lr.Logistic, ds.Instances, weights)
	return rep, nil
}

func (e *env) runSimLR(name string, seed uint64, seconds float64, trace bool) (*result, error) {
	z := simSizeOf(e.smoke)
	r := newResult()
	iters := float64(z.iters)
	var first *simRep
	begin := time.Now()
	for n := 0; n < minReps(e.smoke, trace) || time.Since(begin).Seconds() < seconds; n++ {
		rep, err := runSimRep(z, seed, false)
		r.Attempted += z.iters
		if err != nil {
			r.Failed += z.iters
			r.fail("repetition %d: %v", n, err)
			break
		}
		r.sample("setup_s", rep.setupSec)
		r.sample("iters_per_s", iters/rep.hostSec)
		r.sample("op_p50_us", 1e6*rep.hostSec/iters)
		r.sample("cpu_ms_per_iter", 1e3*rep.cpuSec/iters)
		r.sample("peak_rss_mb", peakRSSMB(os.Getpid()))
		r.sample("data.generate_s", rep.genSec)
		r.sample("sim.events_per_s", float64(rep.snap.Events)/rep.hostSec)
		r.sample("sim.host_us_per_rpc", 1e6*rep.hostSec/float64(rep.snap.Net.RPCCalls))
		r.sample("sim.load_host_s", rep.loadSec)
		r.sample("sim.train_host_s", rep.trainSec)
		r.sample("sim.finalpull_host_s", rep.pullSec)
		if first == nil {
			first = rep
		} else if rep.snap.Events != first.snap.Events || rep.snap.WallSec != first.snap.WallSec || rep.loss != first.loss {
			// The simulation is deterministic: only host time may differ.
			r.fail("repetition %d differs from repetition 0 on the same inputs: %d events, %v virtual s, loss %v vs %d, %v, %v",
				n, rep.snap.Events, rep.snap.WallSec, rep.loss, first.snap.Events, first.snap.WallSec, first.loss)
		}
		if trace {
			break
		}
	}
	if first == nil {
		return r, nil
	}
	r.finish()
	net := first.snap.Net
	r.Values["wire_kb_per_iter"] = 1e3 * net.TransportMB / iters
	r.Values["rpcs_per_iter"] = float64(net.RPCCalls) / iters
	r.Values["sim.virtual_ms_per_iter"] = 1e3 * first.snap.WallSec / iters
	r.Values["sim.events_per_iter"] = float64(first.snap.Events) / iters
	r.Values["ps.driver_kb_per_iter"] = 1e3 * (net.DriverSentMB + net.DriverRecvMB) / iters
	r.Values["ps.server_recv_kb_per_iter"] = 1e3 * net.ServerRecvMB / iters
	r.Values["lr.final_loss"] = first.loss
	// The share of par.Range/Reduce calls that fanned out. At this size the
	// 5 k-wide shards stay under linalg's parallel threshold and never reach
	// par, so the share reads 0; it moves if that threshold or the shard width does.
	r.Values["par.parallel_share"] = 0
	if first.parCalls > 0 {
		r.Values["par.parallel_share"] = float64(first.parParallel) / float64(first.parCalls)
	}
	if trace {
		if err := e.traceSimLR(r, name, z, seed, first); err != nil {
			r.fail("traced run: %v", err)
		}
	}
	return r, nil
}

// traceSimLR makes the traced run: one more repetition with the engine's
// span tracer on, which gives the virtual-time phase shares and what the
// tracer costs in host time, then the probes of the layers under the
// simulation.
func (e *env) traceSimLR(r *result, name string, z simSize, seed uint64, ref *simRep) error {
	rep, err := runSimRep(z, seed, true)
	if err != nil {
		return err
	}
	if rep.snap.Events != ref.snap.Events || rep.snap.WallSec != ref.snap.WallSec || rep.loss != ref.loss {
		r.fail("the engine tracer changed the run: %d events, %v virtual s, loss %v vs %d, %v, %v untraced",
			rep.snap.Events, rep.snap.WallSec, rep.loss, ref.snap.Events, ref.snap.WallSec, ref.loss)
	}
	overhead := 100 * (rep.hostSec - ref.hostSec) / ref.hostSec
	r.Values["obs.trace_overhead_pct"] = overhead
	r.Values["trace.overhead_pct"] = overhead
	ph := rep.snap.Phases
	compute := ph.ExecutorCoreSec + ph.ServerCoreSec
	if total := compute + ph.CommSec + ph.WaitSec + ph.RecoverySec; total > 0 {
		r.Values["sim.phase.compute_share"] = compute / total
		r.Values["sim.phase.comm_share"] = ph.CommSec / total
		r.Values["sim.phase.wait_share"] = ph.WaitSec / total
	}

	// The benchmark's own spans: the three public calls inside Engine.Run.
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	load, train := sec(rep.loadSec), sec(rep.trainSec)
	spans := []span{
		{Name: "Engine.Run", ID: 1, End: sec(rep.hostSec)},
		{Name: "ps2.LoadInstances", ID: 2, Parent: 1, End: load},
		{Name: "ps2.TrainLogistic", ID: 3, Parent: 1, Start: load, End: load + train},
		{Name: "Vector.Pull", ID: 4, Parent: 1, Start: load + train, End: load + train + sec(rep.pullSec)},
	}
	if gap := float64(selfTimes(spans)["Engine.Run"]) / float64(spans[0].dur()); gap > attributeTol {
		r.note("UNATTRIBUTED: %.1f %% of Engine.Run is outside LoadInstances, TrainLogistic and Pull", 100*gap)
	}

	// The executors' real compute runs on the host: time it at the size of
	// one task's share of a mini-batch.
	taskRows := int(float64(z.rows)*z.batchFraction) / ps2.DefaultOptions().Executors
	if taskRows < 1 {
		taskRows = 1
	}
	task := rep.ds.Instances[:taskRows]
	budget := probeBudget(e.smoke)
	r.Values["lr.distinct_us_per_batch"] = timeOp(budget, func() { lr.DistinctIndices(task) }) / 1e3
	r.Values["lr.gradient_us_per_batch"] = timeOp(budget, func() {
		lr.BatchGradient(lr.Logistic, task, func(int) float64 { return 0 })
	}) / 1e3
	probeSimnetKernel(r, e.smoke)
	probeLinalg(r, e.smoke)
	r.Values["build_s"] = e.build
	return writeChrome(e.tracePath(name), spans)
}
