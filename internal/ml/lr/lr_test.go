package lr

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func smallDataset(t *testing.T, rows, dim int) *data.ClassifyDataset {
	t.Helper()
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: rows, Dim: dim, NnzPerRow: 8, Skew: 1.0, NoiseRate: 0.02, WeightNnz: dim / 5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func newEngine(executors, servers int) *core.Engine {
	opt := core.DefaultOptions()
	opt.Executors = executors
	opt.Servers = servers
	return core.NewEngine(opt)
}

func loadRDD(e *core.Engine, ds *data.ClassifyDataset) *rdd.RDD[data.Instance] {
	parts := data.Partition(ds.Instances, e.RDD.NumExecutors())
	return rdd.FromSlices(e.RDD, parts).Cache()
}

func trainWith(t *testing.T, opt Optimizer, cfg Config) (*core.Trace, []float64, *data.ClassifyDataset) {
	t.Helper()
	ds := smallDataset(t, 2000, 500)
	e := newEngine(4, 4)
	var trace *core.Trace
	var weights []float64
	e.Run(func(p *simnet.Proc) {
		model, err := Train(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, opt)
		if err != nil {
			t.Error(err)
			return
		}
		trace = model.Trace
		weights = model.Weights.Pull(p, e.Driver())
	})
	return trace, weights, ds
}

func TestTrainSGDConverges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Iterations = 80
	cfg.BatchFraction = 0.3
	trace, w, ds := trainWith(t, NewSGD(), cfg)
	if trace.Len() != 80 {
		t.Fatalf("trace has %d samples, want 80", trace.Len())
	}
	final := EvalLoss(Logistic, ds.Instances, w)
	if final > 0.6 {
		t.Fatalf("final full-data loss %v did not drop below 0.6 (ln2=%v)", final, math.Ln2)
	}
	if acc := Accuracy(ds.Instances, w); acc < 0.7 {
		t.Fatalf("accuracy %v too low", acc)
	}
}

func TestTrainAdamConverges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Iterations = 40
	cfg.BatchFraction = 0.2
	cfg.LearningRate = 0.1
	adam := NewAdam()
	adam.LearningRate = 0.1
	trace, w, ds := trainWith(t, adam, cfg)
	final := EvalLoss(Logistic, ds.Instances, w)
	if final > 0.5 {
		t.Fatalf("Adam final loss %v too high", final)
	}
	if trace.Best() >= math.Ln2 {
		t.Fatalf("Adam never improved on ln2: best=%v", trace.Best())
	}
}

func TestTrainAdagradAndRMSProp(t *testing.T) {
	for _, opt := range []Optimizer{NewAdagrad(), NewRMSProp()} {
		cfg := DefaultConfig()
		cfg.Iterations = 40
		cfg.BatchFraction = 0.2
		_, w, ds := trainWith(t, opt, cfg)
		final := EvalLoss(Logistic, ds.Instances, w)
		if final > 0.6 {
			t.Fatalf("%s final loss %v too high", opt.Name(), final)
		}
	}
}

func TestTrainSVMHinge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Iterations = 120
	cfg.BatchFraction = 0.3
	cfg.Objective = Hinge
	sgd := NewSGD()
	sgd.LearningRate = 0.3
	_, w, ds := trainWith(t, sgd, cfg)
	if acc := Accuracy(ds.Instances, w); acc < 0.7 {
		t.Fatalf("SVM accuracy %v too low", acc)
	}
}

func TestAdamMatchesSingleNodeReference(t *testing.T) {
	// Full-batch PS2 Adam must match a single-node implementation of the
	// paper's equation (1) step for step (within float tolerance), proving
	// the distributed zip update computes exactly the right thing.
	ds := smallDataset(t, 300, 120)
	iters := 5
	cfg := DefaultConfig()
	cfg.Iterations = iters
	cfg.BatchFraction = 1.0
	cfg.LearningRate = 0.3

	e := newEngine(3, 4)
	adam := NewAdam()
	adam.LearningRate = 0.3
	var got []float64
	e.Run(func(p *simnet.Proc) {
		model, err := Train(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, adam)
		if err != nil {
			t.Error(err)
			return
		}
		got = model.Weights.Pull(p, e.Driver())
	})

	// Single-node reference.
	dim := ds.Config.Dim
	w := make([]float64, dim)
	s := make([]float64, dim)
	v := make([]float64, dim)
	for it := 1; it <= iters; it++ {
		grad := make([]float64, dim)
		for _, inst := range ds.Instances {
			pr := linalg.Sigmoid(inst.Features.DotDense(w))
			inst.Features.AddToDense(grad, pr-inst.Label)
		}
		n := float64(len(ds.Instances))
		corr1 := 1 - math.Pow(0.9, float64(it))
		corr2 := 1 - math.Pow(0.999, float64(it))
		for i := 0; i < dim; i++ {
			gi := grad[i] / n
			s[i] = 0.9*s[i] + 0.1*gi*gi
			v[i] = 0.999*v[i] + 0.001*gi
			w[i] -= 0.3 * (v[i] / corr2) / (math.Sqrt(s[i]/corr1) + 1e-8)
		}
	}
	for i := range w {
		if math.Abs(got[i]-w[i]) > 1e-6 {
			t.Fatalf("weight[%d] = %v, reference %v", i, got[i], w[i])
		}
	}
}

func TestTrainUnderTaskFailuresSameSolution(t *testing.T) {
	// Fig 13(c)'s invariant: failure injection slows training but converges
	// to the identical solution, because pushes are exactly-once.
	run := func(failProb float64) ([]float64, float64) {
		ds := smallDataset(t, 500, 100)
		opt := core.DefaultOptions()
		opt.Executors = 4
		opt.Servers = 4
		opt.TaskFailProb = failProb
		e := core.NewEngine(opt)
		cfg := DefaultConfig()
		cfg.Iterations = 10
		cfg.BatchFraction = 0.5
		var w []float64
		end := e.Run(func(p *simnet.Proc) {
			model, err := Train(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, NewSGD())
			if err != nil {
				t.Error(err)
				return
			}
			w = model.Weights.Pull(p, e.Driver())
		})
		return w, end
	}
	clean, cleanTime := run(0)
	faulty, faultyTime := run(0.2)
	// Retried tasks push later, so server-side float accumulation order can
	// differ by rounding; the solutions must agree to numerical precision.
	for i := range clean {
		if diff := math.Abs(clean[i] - faulty[i]); diff > 1e-9*(1+math.Abs(clean[i])) {
			t.Fatalf("weights diverge at %d: %v vs %v", i, clean[i], faulty[i])
		}
	}
	if faultyTime <= cleanTime {
		t.Fatalf("failures did not cost time: %v vs %v", faultyTime, cleanTime)
	}
}

func TestTrainLBFGSConverges(t *testing.T) {
	ds := smallDataset(t, 1000, 200)
	e := newEngine(4, 4)
	cfg := DefaultLBFGSConfig()
	cfg.Iterations = 15
	var trace *core.Trace
	var w []float64
	e.Run(func(p *simnet.Proc) {
		model, err := TrainLBFGS(p, e, loadRDD(e, ds), ds.Config.Dim, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		trace = model.Trace
		w = model.Weights.Pull(p, e.Driver())
	})
	if trace.Values[0] < trace.Final() {
		t.Fatalf("L-BFGS loss rose: %v -> %v", trace.Values[0], trace.Final())
	}
	final := EvalLoss(Logistic, ds.Instances, w)
	if final > 0.5 {
		t.Fatalf("L-BFGS final loss %v too high", final)
	}
}

func TestTrainValidation(t *testing.T) {
	ds := smallDataset(t, 100, 50)
	e := newEngine(2, 2)
	e.Run(func(p *simnet.Proc) {
		_, err := Train(p, e, loadRDD(e, ds), ds.Config.Dim, Config{}, NewSGD())
		if err == nil {
			t.Error("zero iterations accepted")
		}
	})
}

func TestBatchGradientHelpers(t *testing.T) {
	sv1, _ := linalg.NewSparse([]int{0, 2}, []float64{1, 1})
	sv2, _ := linalg.NewSparse([]int{2, 5}, []float64{2, 1})
	rows := []data.Instance{{Features: sv1, Label: 1}, {Features: sv2, Label: 0}}
	idx := DistinctIndices(rows)
	want := []int{0, 2, 5}
	if len(idx) != 3 {
		t.Fatalf("idx = %v", idx)
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("idx = %v, want %v", idx, want)
		}
	}
	if TotalNnz(rows) != 4 {
		t.Fatalf("TotalNnz = %d", TotalNnz(rows))
	}
	grad, loss := BatchGradient(Logistic, rows, func(int) float64 { return 0 })
	if loss != 2*math.Ln2 {
		t.Fatalf("loss at zero weights = %v, want 2ln2", loss)
	}
	// At w=0: p=0.5; row1 grad = (0.5-1)*x, row2 grad = 0.5*x.
	if math.Abs(grad[0]-(-0.5)) > 1e-12 || math.Abs(grad[2]-0.5) > 1e-12 || math.Abs(grad[5]-0.5) > 1e-12 {
		t.Fatalf("grad = %v", grad)
	}
}

func TestHingeGradientZeroWhenMarginMet(t *testing.T) {
	sv, _ := linalg.NewSparse([]int{0}, []float64{1})
	rows := []data.Instance{{Features: sv, Label: 1}}
	grad, loss := BatchGradient(Hinge, rows, func(int) float64 { return 5 }) // margin 5 > 1
	if len(grad) != 0 || loss != 0 {
		t.Fatalf("grad=%v loss=%v, want empty/0", grad, loss)
	}
}

func TestServerCrashMidTrainingRecoversFromCheckpoint(t *testing.T) {
	// The paper's Section 5.3 server-failure story, end to end: train with
	// periodic checkpoints, crash a server halfway, recover it from the
	// checkpoint, keep training — the job completes and the model still
	// converges (losing only the crashed shard's post-checkpoint updates).
	ds := smallDataset(t, 1500, 400)
	e := newEngine(4, 4)
	cfg := DefaultConfig()
	cfg.Iterations = 15
	cfg.BatchFraction = 0.4
	cfg.CheckpointEvery = 5
	var final float64
	e.Run(func(p *simnet.Proc) {
		dataset := loadRDD(e, ds)
		m1, err := Train(p, e, dataset, ds.Config.Dim, cfg, NewSGD())
		if err != nil {
			t.Error(err)
			return
		}
		// Crash and recover a server between the two halves of training.
		e.PS.KillServer(1)
		e.PS.RecoverServer(p, 1)
		// The weights on the recovered server reflect the last checkpoint:
		// pulling must succeed and give a usable model.
		w := m1.Weights.Pull(p, e.Driver())
		final = EvalLoss(Logistic, ds.Instances, w)
	})
	if final >= math.Ln2 {
		t.Fatalf("post-recovery model useless: loss %v", final)
	}
}

func TestCheckpointEveryCostsStoreTraffic(t *testing.T) {
	run := func(every int) float64 {
		ds := smallDataset(t, 300, 200)
		e := newEngine(3, 3)
		cfg := DefaultConfig()
		cfg.Iterations = 9
		cfg.BatchFraction = 0.5
		cfg.CheckpointEvery = every
		e.Run(func(p *simnet.Proc) {
			if _, err := Train(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, NewSGD()); err != nil {
				t.Error(err)
			}
		})
		return e.Cluster.Store.BytesRecv
	}
	if got := run(0); got != 0 {
		t.Fatalf("no-checkpoint run wrote %v bytes to the store", got)
	}
	if got := run(3); got == 0 {
		t.Fatal("checkpointing run wrote nothing to the store")
	}
}

func TestAUC(t *testing.T) {
	mk := func(idx int, label float64) data.Instance {
		sv, _ := linalg.NewSparse([]int{idx}, []float64{1})
		return data.Instance{Features: sv, Label: label}
	}
	// Perfect ranking: weights give positives higher scores.
	w := []float64{-1, 1}
	perfect := []data.Instance{mk(0, 0), mk(0, 0), mk(1, 1), mk(1, 1)}
	if got := AUC(perfect, w); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	// Inverted ranking.
	if got := AUC(perfect, []float64{1, -1}); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
	// All tied scores: AUC 0.5.
	if got := AUC(perfect, []float64{0, 0}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("tied AUC = %v", got)
	}
	// Degenerate single-class input.
	if got := AUC([]data.Instance{mk(0, 1)}, w); !math.IsNaN(got) {
		t.Fatalf("single-class AUC = %v, want NaN", got)
	}
}

func TestTrainedModelAUC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Iterations = 40
	cfg.BatchFraction = 0.3
	cfg.LearningRate = 0.1
	adam := NewAdam()
	adam.LearningRate = 0.1
	_, w, ds := trainWith(t, adam, cfg)
	if auc := AUC(ds.Instances, w); auc < 0.85 {
		t.Fatalf("trained AUC %v too low", auc)
	}
}

func TestEvalOnClusterMatchesHostEval(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Iterations = 20
	cfg.BatchFraction = 0.4
	ds := smallDataset(t, 1200, 300)
	e := newEngine(4, 4)
	e.Run(func(p *simnet.Proc) {
		dataset := loadRDD(e, ds)
		model, err := Train(p, e, dataset, ds.Config.Dim, cfg, NewSGD())
		if err != nil {
			t.Error(err)
			return
		}
		metrics, err := EvalOnCluster(p, e, dataset, Logistic, model.Weights)
		if err != nil {
			t.Fatal(err)
		}
		w := model.Weights.Pull(p, e.Driver())
		hostLoss := EvalLoss(Logistic, ds.Instances, w)
		hostAcc := Accuracy(ds.Instances, w)
		if metrics.Rows != len(ds.Instances) {
			t.Errorf("rows = %d", metrics.Rows)
		}
		if math.Abs(metrics.Loss-hostLoss) > 1e-9 {
			t.Errorf("cluster loss %v != host loss %v", metrics.Loss, hostLoss)
		}
		if math.Abs(metrics.Accuracy-hostAcc) > 1e-12 {
			t.Errorf("cluster accuracy %v != host accuracy %v", metrics.Accuracy, hostAcc)
		}
	})
}

func TestWeightsSaveLoadRoundTrip(t *testing.T) {
	w := make([]float64, 100)
	w[3], w[40], w[99] = 1.5, -2.25, 1e-9
	var buf bytes.Buffer
	if err := SaveWeights(&buf, w); err != nil {
		t.Fatal(err)
	}
	back, err := LoadWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 100 {
		t.Fatalf("dim = %d", len(back))
	}
	for i := range w {
		if back[i] != w[i] {
			t.Fatalf("weight[%d] = %v, want %v", i, back[i], w[i])
		}
	}
	// Corrupt inputs rejected.
	if _, err := LoadWeights(bytes.NewReader([]byte("{"))); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := LoadWeights(bytes.NewReader([]byte(`{"version":1,"dim":2,"indices":[5],"values":[1]}`))); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// TestTrainReturnsDriverSideOperatorFailure pins the error contract of the
// driver-side operators inside Train: with every server dead and no recovery
// coming, the gradient reset exhausts its retry budget and Train returns
// the wrapped ps.ErrServerDown instead of panicking the whole simulation.
func TestTrainReturnsDriverSideOperatorFailure(t *testing.T) {
	ds := smallDataset(t, 200, 50)
	opt := core.DefaultOptions()
	opt.Executors, opt.Servers = 2, 2
	opt.RPC = ps.RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.005, MaxBackoffSec: 0.05, MaxRetries: 3}
	e := core.NewEngine(opt)
	cfg := DefaultConfig()
	e.Run(func(p *simnet.Proc) {
		for s := 0; s < opt.Servers; s++ {
			e.PS.KillServer(s)
		}
		if _, err := Train(p, e, loadRDD(e, ds), ds.Config.Dim, cfg, NewSGD()); !errors.Is(err, ps.ErrServerDown) {
			t.Errorf("Train on a dead cluster: got %v, want ps.ErrServerDown", err)
		}
	})
}
