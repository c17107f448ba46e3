package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dcv"
	"repro/internal/ml/lr"
	"repro/internal/simnet"
)

func init() {
	register("ablation-colocation", "Ablation: co-located (derived) vs independent DCVs for element-wise ops", runAblationColocation)
	register("ablation-sparsepull", "Ablation: sparse pull vs full pull at varying batch sparsity", runAblationSparsePull)
	register("ablation-servers", "Ablation: DCV dot cost vs server count (the Fig 9(d) trade-off)", runAblationServers)
	register("ablation-batching", "Ablation: per-item requests vs batched requests", runAblationBatching)
	register("ablation-checkpoint", "Ablation: periodic model checkpointing cost (paper §5.3)", runAblationCheckpoint)
}

// runAblationColocation measures the server-to-server shuffle that the
// derive operator avoids (the paper's Figure 4).
func runAblationColocation(o Opts) *Result {
	dim := 2_000_000
	if o.Quick {
		dim = 200_000
	}
	ops := 10
	measure := func(coloc bool) (float64, float64) {
		e := paperEngine(4, 8)
		var elapsed float64
		e.Run(func(p *simnet.Proc) {
			a, err := e.DCV.Dense(p, dim, 2)
			if err != nil {
				panic(err)
			}
			var b *dcv.Vector
			if coloc {
				b = a.MustDerive()
			} else {
				if b, err = e.DCV.Dense(p, dim, 2); err != nil {
					panic(err)
				}
			}
			start := p.Now()
			for i := 0; i < ops; i++ {
				if _, err := a.Dot(p, e.Driver(), b); err != nil {
					panic(err)
				}
				if err := a.Axpy(p, e.Driver(), 0.5, b); err != nil {
					panic(err)
				}
			}
			elapsed = p.Now() - start
		})
		return elapsed, serverWireBytes(e)
	}
	colocTime, colocBytes := measure(true)
	shufTime, shufBytes := measure(false)
	r := &Result{ID: "ablation-colocation",
		Title:  fmt.Sprintf("%d dot+axpy rounds over dim-%d DCVs", ops, dim),
		Header: []string{"variant", "time (s)", "server wire bytes", "slowdown"}}
	r.AddRow("derived (co-located)", colocTime, colocBytes, fmtSpeed(1.0))
	r.AddRow("independent (shuffled)", shufTime, shufBytes, fmtSpeed(shufTime/colocTime))
	r.Note("derive is a metadata-only operation; without it every element-wise op ships full vector ranges between servers")
	return r
}

func serverWireBytes(e *core.Engine) float64 {
	var total float64
	for _, s := range e.Cluster.Servers {
		total += s.BytesSent
	}
	return total
}

// runAblationSparsePull quantifies the PS2-vs-Petuum delta: pulling only the
// indices a batch touches vs the full model.
func runAblationSparsePull(o Opts) *Result {
	dim := 1_000_000
	if o.Quick {
		dim = 100_000
	}
	r := &Result{ID: "ablation-sparsepull",
		Title:  fmt.Sprintf("One model pull, dim %d, 8 servers", dim),
		Header: []string{"pulled indices", "time (s)", "bytes to worker", "vs full pull"}}
	var fullTime float64
	for _, nnz := range []int{dim, dim / 10, dim / 100, dim / 1000} {
		e := paperEngine(4, 8)
		var elapsed float64
		e.Run(func(p *simnet.Proc) {
			v, err := e.DCV.Dense(p, dim, 1)
			if err != nil {
				panic(err)
			}
			worker := e.Cluster.Executors[0]
			start := p.Now()
			if nnz == dim {
				v.Pull(p, worker)
			} else {
				idx := make([]int, nnz)
				for i := range idx {
					idx[i] = i * (dim / nnz)
				}
				if _, err := v.PullIndices(p, worker, idx); err != nil {
					panic(err)
				}
			}
			elapsed = p.Now() - start
		})
		if nnz == dim {
			fullTime = elapsed
		}
		label := "full"
		if nnz != dim {
			label = fmt.Sprintf("%d", nnz)
		}
		r.AddRow(label, elapsed, e.Cluster.Executors[0].BytesRecv, fmtSpeed(fullTime/elapsed))
	}
	r.Note("sparse pull is the reason \"PS2 only pulls the needed model parameters\" beats Petuum's full-model pull")
	return r
}

// runAblationServers sweeps the server count for a fixed DCV dot — the
// trade-off behind Fig 9(d): more servers parallelize data transfer but each
// scalar-collecting operator pays per-server request overhead.
func runAblationServers(o Opts) *Result {
	dim := 128 // embedding-sized vector, where the effect bites
	ops := 200
	if o.Quick {
		ops = 50
	}
	r := &Result{ID: "ablation-servers",
		Title:  fmt.Sprintf("%d server-side dots over a dim-%d DCV", ops, dim),
		Header: []string{"servers", "time (s)", "per-dot (ms)"}}
	for _, servers := range []int{1, 2, 5, 10, 30} {
		e := paperEngine(2, servers)
		var elapsed float64
		e.Run(func(p *simnet.Proc) {
			a, err := e.DCV.Dense(p, dim, 2)
			if err != nil {
				panic(err)
			}
			b := a.MustDerive()
			worker := e.Cluster.Executors[0]
			start := p.Now()
			for i := 0; i < ops; i++ {
				if _, err := a.Dot(p, worker, b); err != nil {
					panic(err)
				}
			}
			elapsed = p.Now() - start
		})
		r.AddRow(servers, elapsed, 1000*elapsed/float64(ops))
	}
	r.Note("per-dot cost grows with server count (partials collected from every server) — the paper's Fig 9(d) erosion")
	return r
}

// runAblationBatching compares per-item requests against batched requests
// for the same payload — the Glint-vs-PS2 client design difference.
func runAblationBatching(o Opts) *Result {
	items := 2000
	if o.Quick {
		items = 500
	}
	payload := 400.0 // bytes per item
	measure := func(batched bool) float64 {
		sim := simnet.New()
		cl := cluster.New(sim, cluster.DefaultConfig())
		var elapsed float64
		sim.Spawn("driver", func(p *simnet.Proc) {
			src, dst := cl.Executors[0], cl.Servers[0]
			start := p.Now()
			if batched {
				src.Send(p, dst, cl.Cost.RequestOverheadB+float64(items)*payload)
			} else {
				for i := 0; i < items; i++ {
					src.Send(p, dst, cl.Cost.RequestOverheadB+payload)
				}
			}
			elapsed = p.Now() - start
		})
		sim.Run()
		return elapsed
	}
	batchedTime := measure(true)
	perItemTime := measure(false)
	r := &Result{ID: "ablation-batching",
		Title:  fmt.Sprintf("%d items x %.0fB to one server", items, payload),
		Header: []string{"client", "time (s)", "slowdown"}}
	r.AddRow("batched (PS2)", batchedTime, fmtSpeed(1.0))
	r.AddRow("per-item (Glint-style)", perItemTime, fmtSpeed(perItemTime/batchedTime))
	r.Note("request framing and per-message latency dominate fine-grained clients")
	return r
}

// runAblationCheckpoint measures what the paper's Section 5.3 periodic model
// checkpointing costs at different cadences: every checkpoint streams every
// server's shard of the model matrix to the reliable store.
func runAblationCheckpoint(o Opts) *Result {
	ds := kddbData(o)
	iters := 20
	cfg := lr.DefaultConfig()
	cfg.Iterations = iters
	cfg.BatchFraction = 0.1

	r := &Result{ID: "ablation-checkpoint",
		Title:  fmt.Sprintf("LR on KDDB-like, %d iterations, varying checkpoint cadence", iters),
		Header: []string{"checkpoint every", "time (s)", "store MB", "overhead"}}
	var base float64
	for _, every := range []int{0, 10, 5, 1} {
		e := paperEngine(20, 20)
		c := cfg
		c.CheckpointEvery = every
		end := e.Run(func(p *simnet.Proc) {
			if _, err := lr.Train(p, e, instancesRDD(e, ds), ds.Config.Dim, c, lr.NewSGD()); err != nil {
				panic(err)
			}
		})
		if every == 0 {
			base = end
		}
		label := "never"
		if every > 0 {
			label = fmt.Sprintf("%d iters", every)
		}
		r.AddRow(label, end, e.Cluster.Store.BytesRecv/1e6, fmtSpeed(end/base))
	}
	r.Note("checkpointing streams the model shards to stable storage; after a server crash only post-checkpoint updates are lost")
	return r
}
