package bench

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml/embedding"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func init() {
	register("ext-fusion", "Extension: operator fusion — coalesced shard fan-outs vs one request per operator", runExtFusion)
}

// runExtFusion measures what the fusion layer buys: the same training runs
// with fusion on (default) and off, reporting logical shard RPCs, ops that
// rode a fused request, bytes on the wire, and simulated wall-clock. For the
// LR family fusion coalesces the optimizer step and the gradient zero into
// one request per server per iteration; per-server the ops execute in the
// same order as the unfused pair, so the loss trajectory is identical to the
// last bit. For DeepWalk fusion pipelines each pair's update into the next
// pair's dot request, which reorders work across pairs, so its loss is
// statistically equivalent rather than bit-identical.
func runExtFusion(o Opts) *Result {
	ds := kddbData(o)
	cfg := lr.DefaultConfig()
	cfg.Iterations = lrIterations(o)
	cfg.BatchFraction = 0.1

	r := &Result{ID: "ext-fusion",
		Title:  "Operator fusion: request-coalesced training vs one fan-out per operator",
		Header: []string{"workload", "mode", "RPCs", "fused ops", "MB on wire", "time (s)", "final loss"}}

	addRow := func(workload string, fused bool, e *core.Engine, end simnet.Time, loss float64) {
		mode := "unfused"
		if fused {
			mode = "fused"
		}
		rep := e.Snapshot()
		r.AddRow(workload, mode, int(rep.Net.RPCCalls), int(rep.Fusion.FusedOps),
			e.Cluster.TotalBytesOnWire()/1e6, float64(end), loss)
		r.attachTrace(o, workload+"-"+mode, e)
	}

	runLR := func(workload string, newOpt func() lr.Optimizer, fused bool) {
		e := tracedEngine(o, 20, 20)
		c := cfg
		c.NoFusion = !fused
		var loss float64
		end := e.Run(func(p *simnet.Proc) {
			m, err := lr.Train(p, e, instancesRDD(e, ds), ds.Config.Dim, c, newOpt())
			if err != nil {
				panic(err)
			}
			loss = m.Trace.Final()
		})
		addRow(workload, fused, e, end, loss)
	}

	for _, w := range []struct {
		name   string
		newOpt func() lr.Optimizer
	}{
		{"LR-SGD", func() lr.Optimizer { return lr.NewSGD() }},
		{"LR-Adam", func() lr.Optimizer { return lr.NewAdam() }},
	} {
		runLR(w.name, w.newOpt, false)
		runLR(w.name, w.newOpt, true)
	}

	// DeepWalk: the fused pipeline halves the steady-state fan-outs per pair.
	gcfg := data.Graph1Like()
	gcfg.Vertices = 1500
	if o.Quick {
		gcfg.Vertices = 800
	}
	g, err := data.GenerateGraph(gcfg)
	if err != nil {
		panic(err)
	}
	pairs := data.RandomWalks(g, data.DefaultWalkConfig())
	dwCfg := embedding.DefaultConfig()
	dwCfg.K = 64
	dwCfg.Iterations = 10
	if o.Quick {
		dwCfg.Iterations = 4
	}
	workers := 8
	for _, fused := range []bool{false, true} {
		e := tracedEngine(o, workers, 4)
		c := dwCfg
		c.NoFusion = !fused
		var loss float64
		end := e.Run(func(p *simnet.Proc) {
			prdd := rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, workers)).Cache()
			m, err := embedding.Train(p, e, prdd, g.Vertices(), c)
			if err != nil {
				panic(err)
			}
			loss = m.Trace.Final()
		})
		addRow("DeepWalk", fused, e, end, loss)
	}

	r.Note("LR rows: fusion merges step+zero into one request per server per iteration; loss trajectories are bit-identical")
	r.Note("DeepWalk rows: each pair's update ships inside the next pair's dot request, one fan-out per pair in steady state")
	return r
}
