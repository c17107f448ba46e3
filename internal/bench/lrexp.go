package bench

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func init() {
	register("fig1a", "Spark MLlib time per iteration vs number of features", runFig1a)
	register("fig1b", "Spark MLlib per-step time breakdown", runFig1b)
	register("fig9a", "DCV effectiveness: LR+Adam on KDDB-like (Spark- vs PS- vs PS2-)", runFig9a)
	register("fig9b", "DCV effectiveness: LR+Adam on CTR-like", runFig9b)
	register("fig10a", "End-to-end LR on KDDB-like: PS2 vs MLlib vs DistML vs Petuum", func(o Opts) *Result {
		return runFig10(o, "fig10a", kddbData(o), "KDDB-like")
	})
	register("fig10b", "End-to-end LR on KDD12-like: PS2 vs MLlib vs DistML vs Petuum", func(o Opts) *Result {
		return runFig10(o, "fig10b", kdd12Data(o), "KDD12-like")
	})
	register("fig13a", "Scalability: workers/servers sweep on CTR-like", runFig13a)
	register("fig13b", "Scalability: time per iteration vs model size (PS2 vs MLlib)", runFig13b)
	register("fig13c", "Fault tolerance: task failure probability sweep", runFig13c)
}

// featureSweepDims returns the Figure 1 / 13(b) model-size sweep (the
// paper's 40K..60,000K features at 1/10 scale).
func featureSweepDims(o Opts) []int {
	if o.Quick {
		return []int{4_000, 40_000, 400_000}
	}
	return []int{4_000, 300_000, 3_000_000, 6_000_000}
}

// mllibPhases is one iteration's four-step timing (Figure 1(b)).
type mllibPhases struct {
	Broadcast float64
	Gradient  float64
	Aggregate float64
	Update    float64
}

func (ph mllibPhases) total() float64 { return ph.Broadcast + ph.Gradient + ph.Aggregate + ph.Update }

// mllibInstrumentedIteration runs MLlib's four execution steps sequentially
// so each can be timed in isolation: broadcast, gradient calculation (with a
// barrier), gradient aggregation (every partition's dense gradient to the
// driver), model update. The total matches MLlib's cost; only the overlap
// between late computers and early senders is lost, which is what the
// paper's own step-profiling does too.
func mllibInstrumentedIteration(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, w []float64, fraction float64, seed uint64) mllibPhases {
	cost := e.Cluster.Cost
	var ph mllibPhases
	t0 := p.Now()
	e.RDD.Broadcast(p, cost.DenseBytes(dim))
	t1 := p.Now()
	ph.Broadcast = t1 - t0

	batch := dataset.Sample(fraction, seed)
	grads := rdd.RunPartitions(p, batch, 0, func(tc *rdd.TaskContext, part int, rows []data.Instance) []float64 {
		grad := make([]float64, dim)
		for _, inst := range rows {
			g := linalg.Sigmoid(inst.Features.DotDense(w)) - inst.Label
			inst.Features.AddToDense(grad, g)
		}
		tc.Charge(cost.GradWork(lr.TotalNnz(rows)) + cost.ElemWork(dim))
		tc.Commit()
		return grad
	})
	t2 := p.Now()
	ph.Gradient = t2 - t1

	// Aggregation: every partition's full dense gradient to the one driver.
	g := p.Sim().NewGroup()
	for part := range grads {
		node := e.RDD.Owner(part)
		g.Go("ship-grad", func(cp *simnet.Proc) {
			node.Send(cp, e.Cluster.Driver, cost.DenseBytes(dim))
		})
	}
	g.Wait(p)
	agg := make([]float64, dim)
	for _, grad := range grads {
		e.Cluster.Driver.Compute(p, cost.ElemWork(dim))
		linalg.Axpy(1, grad, agg)
	}
	t3 := p.Now()
	ph.Aggregate = t3 - t2

	e.Cluster.Driver.Compute(p, cost.ElemWork(dim))
	linalg.Axpy(-0.1, agg, w)
	ph.Update = p.Now() - t3
	return ph
}

// sweepMLlibPhases measures average per-iteration phases at one dimension.
func sweepMLlibPhases(o Opts, dim int) mllibPhases {
	rows := 20000
	if o.Quick {
		rows = 4000
	}
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: rows, Dim: dim, NnzPerRow: 30, Skew: 1.1, WeightNnz: dim / 10, Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	e := paperEngine(20, 0)
	iters := 2
	var sum mllibPhases
	e.Run(func(p *simnet.Proc) {
		dataset := instancesRDD(e, ds)
		w := make([]float64, dim)
		for it := 0; it < iters; it++ {
			ph := mllibInstrumentedIteration(p, e, dataset, dim, w, 0.01, uint64(it))
			sum.Broadcast += ph.Broadcast
			sum.Gradient += ph.Gradient
			sum.Aggregate += ph.Aggregate
			sum.Update += ph.Update
		}
	})
	n := float64(iters)
	return mllibPhases{sum.Broadcast / n, sum.Gradient / n, sum.Aggregate / n, sum.Update / n}
}

func runFig1a(o Opts) *Result {
	r := &Result{ID: "fig1a", Title: "MLlib time per iteration vs #features (20 executors, batch fraction 0.01)",
		Header: []string{"#features", "sec/iter", "slowdown vs smallest"}}
	dims := featureSweepDims(o)
	var base float64
	for i, dim := range dims {
		ph := sweepMLlibPhases(o, dim)
		t := ph.total()
		if i == 0 {
			base = t
		}
		r.AddRow(dim, t, fmtSpeed(t/base))
	}
	r.Note("paper: 168x slowdown from 40K to 60,000K features; shape to match: super-linear growth dominated by aggregation")
	return r
}

func runFig1b(o Opts) *Result {
	r := &Result{ID: "fig1b", Title: "MLlib per-iteration step breakdown",
		Header: []string{"#features", "broadcast%", "gradient%", "aggregate%", "update%"}}
	for _, dim := range featureSweepDims(o) {
		ph := sweepMLlibPhases(o, dim)
		t := ph.total()
		r.AddRow(dim,
			fmt.Sprintf("%.1f", 100*ph.Broadcast/t),
			fmt.Sprintf("%.1f", 100*ph.Gradient/t),
			fmt.Sprintf("%.1f", 100*ph.Aggregate/t),
			fmt.Sprintf("%.1f", 100*ph.Update/t))
	}
	r.Note("paper: gradient aggregation occupies most of an iteration at high dimension")
	return r
}

// runAdamTriple runs Spark-Adam, PS-Adam and PS2-Adam on one dataset
// (Figure 9(a)/(b)).
func runAdamTriple(o Opts, id, dsName string, ds *data.ClassifyDataset) *Result {
	iters := lrIterations(o)
	cfg := lr.DefaultConfig()
	cfg.Iterations = iters
	cfg.BatchFraction = 0.1
	cfg.LearningRate = 0.1

	var spark, pullpush, ps2 *core.Trace

	eSpark := paperEngine(20, 20)
	eSpark.Run(func(p *simnet.Proc) {
		adam := lr.NewAdam()
		adam.LearningRate = cfg.LearningRate
		tr, err := lr.Run(p, eSpark, instancesRDD(eSpark, ds), ds.Config.Dim, cfg, baselines.MLlib(adam))
		if err != nil {
			panic(err)
		}
		tr.Name = "Spark-Adam"
		spark = tr
	})
	ePP := paperEngine(20, 20)
	ePP.Run(func(p *simnet.Proc) {
		opt := baselines.NewPullPushAdam()
		opt.Adam.LearningRate = cfg.LearningRate
		m, err := lr.Train(p, ePP, instancesRDD(ePP, ds), ds.Config.Dim, cfg, opt)
		if err != nil {
			panic(err)
		}
		m.Trace.Name = "PS-Adam"
		pullpush = m.Trace
	})
	ePS2 := paperEngine(20, 20)
	ePS2.Run(func(p *simnet.Proc) {
		opt := lr.NewAdam()
		opt.LearningRate = cfg.LearningRate
		m, err := lr.Train(p, ePS2, instancesRDD(ePS2, ds), ds.Config.Dim, cfg, opt)
		if err != nil {
			panic(err)
		}
		m.Trace.Name = "PS2-Adam"
		ps2 = m.Trace
	})

	target := core.CommonTarget(spark, pullpush, ps2)
	r := &Result{ID: id, Title: fmt.Sprintf("LR+Adam on %s: time to loss %.3f", dsName, target),
		Header: []string{"system", "time-to-target (s)", "final loss", "PS2 speedup"}}
	ps2Time := ps2.TimeToReach(target)
	for _, tr := range []*core.Trace{spark, pullpush, ps2} {
		t := tr.TimeToReach(target)
		r.AddRow(tr.Name, t, tr.Final(), fmtSpeed(t/ps2Time))
	}
	r.Traces = []*core.Trace{spark, pullpush, ps2}
	return r
}

func runFig9a(o Opts) *Result {
	r := runAdamTriple(o, "fig9a", "KDDB-like", kddbData(o))
	r.Note("paper: PS2-Adam 15.7x faster than Spark-Adam, 4.7x faster than PS-Adam on KDDB")
	return r
}

func runFig9b(o Opts) *Result {
	r := runAdamTriple(o, "fig9b", "CTR-like", ctrData(o))
	r.Note("paper: PS2-Adam 55.6x faster than Spark-Adam, 5x faster than PS-Adam on CTR (bigger model, bigger gap)")
	return r
}

func runFig10(o Opts, id string, ds *data.ClassifyDataset, dsName string) *Result {
	iters := lrIterations(o)
	cfg := lr.DefaultConfig()
	cfg.Iterations = iters
	cfg.BatchFraction = 0.1

	run := func(name string, train func(p *simnet.Proc, e *core.Engine) (*core.Trace, error)) *core.Trace {
		e := paperEngine(20, 20)
		var tr *core.Trace
		e.Run(func(p *simnet.Proc) {
			t, err := train(p, e)
			if err != nil {
				panic(err)
			}
			tr = t
		})
		tr.Name = name
		return tr
	}
	ps2 := run("PS2", func(p *simnet.Proc, e *core.Engine) (*core.Trace, error) {
		m, err := lr.Train(p, e, instancesRDD(e, ds), ds.Config.Dim, cfg, lr.NewSGD())
		if err != nil {
			return nil, err
		}
		return m.Trace, nil
	})
	baseline := func(s lr.Strategy) func(p *simnet.Proc, e *core.Engine) (*core.Trace, error) {
		return func(p *simnet.Proc, e *core.Engine) (*core.Trace, error) {
			return lr.Run(p, e, instancesRDD(e, ds), ds.Config.Dim, cfg, s)
		}
	}
	mllib := run("MLlib", baseline(baselines.MLlib(lr.NewSGD())))
	distml := run("DistML", baseline(baselines.DistML()))
	petuum := run("Petuum", baseline(baselines.Petuum()))

	// DistML may diverge (the paper's Figure 10(a) observation); pick the
	// target from the systems that do converge.
	target := core.CommonTarget(ps2, mllib, petuum)
	r := &Result{ID: id, Title: fmt.Sprintf("End-to-end LR (SGD) on %s: time to loss %.3f", dsName, target),
		Header: []string{"system", "time-to-target (s)", "final loss", "PS2 speedup"}}
	ps2Time := ps2.TimeToReach(target)
	for _, tr := range []*core.Trace{ps2, petuum, distml, mllib} {
		t := tr.TimeToReach(target)
		r.AddRow(tr.Name, t, tr.Final(), fmtSpeed(t/ps2Time))
	}
	r.Traces = []*core.Trace{ps2, petuum, distml, mllib}
	if math.IsInf(distml.TimeToReach(target), 1) {
		r.Note("DistML did not converge to the target (paper: \"the result of DistML on KDDB cannot converge\")")
	}
	r.Note("paper: PS2 1.6x (KDDB) / 2.3x (KDD12) over Petuum; MLlib slowest")
	return r
}

func runFig13a(o Opts) *Result {
	// Scalability only shows when per-iteration work dominates the fixed
	// per-stage floor, as it does at the paper's scale (3.4M-row batches):
	// use a larger CTR-like sample with full-batch gradients so both the
	// per-worker compute and the per-server sparse-pull volume are the
	// costs being divided by the cluster size.
	dcfg := data.CTRLike()
	dcfg.Rows = 200000
	if o.Quick {
		dcfg.Rows = 30000
		dcfg.Dim = 120000
	}
	ds, err := data.GenerateClassify(dcfg)
	if err != nil {
		panic(err)
	}
	iters := 5
	cfg := lr.DefaultConfig()
	cfg.Iterations = iters
	cfg.BatchFraction = 1.0

	shapes := [][2]int{{50, 50}, {100, 50}, {100, 100}}
	if o.Quick {
		shapes = [][2]int{{10, 10}, {20, 10}, {20, 20}}
	}
	r := &Result{ID: "fig13a", Title: "PS2 scalability on CTR-like (fixed iterations)",
		Header: []string{"workers", "servers", "time (s)", "speedup vs first"}}
	var base float64
	for i, sh := range shapes {
		e := paperEngine(sh[0], sh[1])
		end := e.Run(func(p *simnet.Proc) {
			if _, err := lr.Train(p, e, instancesRDD(e, ds), ds.Config.Dim, cfg, lr.NewSGD()); err != nil {
				panic(err)
			}
		})
		if i == 0 {
			base = end
		}
		r.AddRow(sh[0], sh[1], end, fmtSpeed(base/end))
	}
	r.Note("paper: 4519s -> 2865s -> 2199s (2.05x when doubling both workers and servers)")
	return r
}

func runFig13b(o Opts) *Result {
	r := &Result{ID: "fig13b", Title: "Time per iteration vs model size: PS2 vs MLlib (20 workers / 20 servers)",
		Header: []string{"#features", "MLlib s/iter", "PS2 s/iter", "MLlib growth", "PS2 growth"}}
	dims := featureSweepDims(o)
	var mllibBase, ps2Base float64
	rows := 20000
	if o.Quick {
		rows = 4000
	}
	for i, dim := range dims {
		mllibT := sweepMLlibPhases(o, dim).total()

		ds, err := data.GenerateClassify(data.ClassifyConfig{
			Rows: rows, Dim: dim, NnzPerRow: 30, Skew: 1.1, WeightNnz: dim / 10, Seed: 3,
		})
		if err != nil {
			panic(err)
		}
		e := paperEngine(20, 20)
		iters := 3
		cfg := lr.DefaultConfig()
		cfg.Iterations = iters
		cfg.BatchFraction = 0.01
		end := e.Run(func(p *simnet.Proc) {
			if _, err := lr.Train(p, e, instancesRDD(e, ds), dim, cfg, lr.NewSGD()); err != nil {
				panic(err)
			}
		})
		ps2T := end / float64(iters)
		if i == 0 {
			mllibBase, ps2Base = mllibT, ps2T
		}
		r.AddRow(dim, mllibT, ps2T, fmtSpeed(mllibT/mllibBase), fmtSpeed(ps2T/ps2Base))
	}
	r.Note("paper: MLlib degrades 168x over the sweep while PS2 grows only 8.5x (0.2s -> 1.7s)")
	return r
}

func runFig13c(o Opts) *Result {
	ds := kddbData(o)
	iters := lrIterations(o)
	cfg := lr.DefaultConfig()
	cfg.Iterations = iters
	cfg.BatchFraction = 0.1

	r := &Result{ID: "fig13c", Title: "PS2 under injected task failures (20 workers / 20 servers)",
		Header: []string{"fail prob", "time (s)", "final loss", "task failures"}}
	var losses []float64
	for _, prob := range []float64{0, 0.01, 0.1} {
		opt := core.DefaultOptions()
		opt.Executors = 20
		opt.Servers = 20
		opt.TaskFailProb = prob
		e := core.NewEngine(opt)
		var final float64
		end := e.Run(func(p *simnet.Proc) {
			m, err := lr.Train(p, e, instancesRDD(e, ds), ds.Config.Dim, cfg, lr.NewSGD())
			if err != nil {
				panic(err)
			}
			final = m.Trace.Final()
		})
		losses = append(losses, final)
		r.AddRow(fmt.Sprintf("%.2f", prob), end, final, e.RDD.TaskFailures)
	}
	spread := math.Abs(losses[0]-losses[2]) / (1 + math.Abs(losses[0]))
	r.Note("paper: 66s -> 74s -> 127s, all converging to the same solution (our final-loss spread: %.2e)", spread)
	return r
}
