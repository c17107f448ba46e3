package ps2_test

import (
	"fmt"

	ps2 "repro"
	"repro/internal/data"
	"repro/internal/ml/lr"
)

// Example trains logistic regression with Adam on the simulated 20-executor,
// 20-server cluster — the paper's Figure 3 flow — and prints coarse,
// deterministic results. Every run of the simulation is bit-identical, so
// the output is stable.
func Example() {
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 2000, Dim: 5000, NnzPerRow: 12, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 600, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	engine := ps2.NewEngine(ps2.DefaultOptions())
	cfg := lr.DefaultConfig()
	cfg.Iterations = 30
	cfg.BatchFraction = 0.3
	cfg.LearningRate = 0.1
	opt := lr.NewAdam()
	opt.LearningRate = 0.1

	engine.Run(func(p *ps2.Proc) {
		dataset := ps2.LoadInstances(engine, ds.Instances)
		model, err := ps2.TrainLogistic(p, engine, dataset, ds.Config.Dim, cfg, opt)
		if err != nil {
			panic(err)
		}
		metrics, err := lr.EvalOnCluster(p, engine, dataset, lr.Logistic, model.Weights)
		if err != nil {
			panic(err)
		}
		fmt.Printf("rows evaluated: %d\n", metrics.Rows)
		fmt.Printf("accuracy above 90%%: %v\n", metrics.Accuracy > 0.9)
		fmt.Printf("loss beat random guessing: %v\n", metrics.Loss < 0.6931)
	})
	// Output:
	// rows evaluated: 2000
	// accuracy above 90%: true
	// loss beat random guessing: true
}
