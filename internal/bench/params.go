package bench

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
)

// Workload presets. Full scale is roughly 1/1000 of the paper's datasets in
// rows×nnz with dimensions scaled ~1/10-1/1000; Quick shrinks them further
// for CI. The network is scaled with the data (see cluster.DefaultConfig),
// so the comm/compute balance that drives every figure is preserved.

func kddbData(o Opts) *data.ClassifyDataset {
	cfg := data.KDDBLike()
	if o.Quick {
		cfg.Rows, cfg.Dim, cfg.WeightNnz = 4000, 8000, 800
	}
	ds, err := data.GenerateClassify(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

func kdd12Data(o Opts) *data.ClassifyDataset {
	cfg := data.KDD12Like()
	if o.Quick {
		cfg.Rows, cfg.Dim, cfg.WeightNnz = 5000, 12000, 1200
	}
	ds, err := data.GenerateClassify(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

func ctrData(o Opts) *data.ClassifyDataset {
	cfg := data.CTRLike()
	if o.Quick {
		cfg.Rows, cfg.Dim, cfg.WeightNnz = 6000, 120000, 4000
	}
	ds, err := data.GenerateClassify(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

// paperEngine builds the paper's standard 20-executor / 20-server cluster.
func paperEngine(executors, servers int) *core.Engine {
	return tracedEngine(Opts{}, executors, servers)
}

// tracedEngine is paperEngine with the span tracer armed when o.Trace is
// set (the harness was run with -trace).
func tracedEngine(o Opts, executors, servers int) *core.Engine {
	opt := core.DefaultOptions()
	opt.Executors, opt.Servers, opt.Trace = executors, servers, o.Trace
	return core.NewEngine(opt)
}

func instancesRDD(e *core.Engine, ds *data.ClassifyDataset) *rdd.RDD[data.Instance] {
	return rdd.FromSlices(e.RDD, data.Partition(ds.Instances, e.RDD.NumExecutors())).Cache()
}

// lrIterations returns the iteration budget for LR experiments.
func lrIterations(o Opts) int {
	if o.Quick {
		return 15
	}
	return 40
}

// table4Rows returns the paper's Table 4 hyperparameters as printable rows,
// sourced from the same defaults the trainers use so the table cannot drift
// from the code.
func table4Rows() [][]string {
	lrCfg := lr.DefaultConfig()
	return [][]string{
		{"LR", "learning_rate", formatFloat(lrCfg.LearningRate)},
		{"LR", "mini_batch_fraction", formatFloat(lrCfg.BatchFraction)},
		{"LR", "beta1 / beta2 / epsilon", "0.9 / 0.999 / 1e-8"},
		{"DeepWalk", "length_of_random_walk", "8"},
		{"DeepWalk", "batch_size / learning_rate", "512 / 0.01"},
		{"DeepWalk", "window_size / negative_sampling", "4 / 5"},
		{"GBDT", "learning_rate", "0.1"},
		{"GBDT", "number_of_trees", "100 (scaled: 20)"},
		{"GBDT", "max_depth", "7 (scaled: 5)"},
		{"GBDT", "size_of_histogram", "100 (scaled: 50)"},
		{"LDA", "alpha / beta", "0.5 / 0.01"},
	}
}
