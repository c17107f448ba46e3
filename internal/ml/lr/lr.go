// Package lr implements the paper's classification workloads on PS2:
// logistic regression and linear SVM trained with mini-batch SGD, Adam,
// Adagrad, RMSProp (Section 5.2.1 / 5.2.4) and L-BFGS, all against the DCV
// abstraction — sparse pulls of exactly the batch's features, a DCV add for
// the gradient push, and a server-side zip for the optimizer update.
package lr

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dcv"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Objective selects the loss being minimized.
type Objective int

const (
	// Logistic is binary logistic regression (labels 0/1).
	Logistic Objective = iota
	// Hinge is a linear SVM with hinge loss (labels 0/1 mapped to ±1).
	Hinge
)

// Loss returns one example's loss at z = w·x and dz, the loss's derivative
// in z. active is false for a hinge example past the margin, which adds
// neither loss nor gradient.
func (o Objective) Loss(z, label float64) (loss, dz float64, active bool) {
	if o == Hinge {
		y := 2*label - 1
		if m := y * z; m < 1 {
			return 1 - m, -y, true
		}
		return 0, 0, false
	}
	return linalg.LogLoss(z, label), linalg.Sigmoid(z) - label, true
}

// Config holds the training hyperparameters; defaults follow the paper's
// Table 4. CheckpointEvery, NoFusion, Replicas and Cache configure the PS2
// strategy (Train) only, and TrainAsync rejects them.
type Config struct {
	// LearningRate steps MLlib*, Petuum and DistML; PS2 and MLlib step with
	// their optimizer's (PS2's value-bounded cache credit still reads it).
	LearningRate  float64
	BatchFraction float64
	Iterations    int
	Objective     Objective

	// CheckpointEvery, when positive, checkpoints the model matrix to the
	// reliable store every that-many iterations (the paper's Section 5.3
	// server fault tolerance: "PS2 periodically checkpoints the model
	// parameters on each server").
	CheckpointEvery int

	// NoFusion disables operator fusion: the optimizer step and the gradient
	// reset go out as separate per-operator fan-outs instead of one fused
	// request per server per iteration. The math is identical either way
	// (fusion preserves op order per server); the ext-fusion benchmark uses
	// this switch for its apples-to-apples comparison.
	NoFusion bool

	// Cache, when non-nil, routes the per-task weight pulls through a
	// worker-side parameter cache (ps.CachedClient) keyed by the driver's
	// iteration clock: under the default ClockBounded(0) policy the trained
	// model is bit-identical to the uncached run (the weight row is frozen
	// while tasks execute), while ClockBounded(s) lets cached weights up to s
	// iterations old serve without even a validation round trip. When
	// Cache.CombinePushes is also set, the per-task gradient pushes
	// accumulate in per-executor write-combining buffers flushed once per
	// iteration — this regroups the floating-point summation of gradient
	// contributions, so it is kept off the staleness-0 bit-identity arm.
	Cache *ps.CacheConfig

	// Replicas, when non-nil, serves the hot-column subset of the weight
	// pulls through a ps.HotReplicaSet: the configured columns are
	// replicated on every server, reads of them go to a rotating server
	// instead of the owner, and writes invalidate through per-element
	// version stamps. The default ClockBounded(0) policy keeps the trained
	// model bit-identical (the weight row is frozen while tasks execute,
	// exactly the cache's argument). Mutually exclusive with Cache — both
	// intercept the same pull, so configuring both is an error.
	Replicas *ps.ReplicaConfig

	Seed uint64
}

// DefaultConfig returns the Table 4 hyperparameters for LR.
func DefaultConfig() Config {
	return Config{LearningRate: 0.618, BatchFraction: 0.01, Iterations: 60, Seed: 42}
}

// BatchGradient computes the sparse mini-batch gradient and loss sum for a
// set of rows, reading feature i's weight as weight(i): BatchIndex.Gradient
// with the result keyed by feature.
func BatchGradient(obj Objective, rows []data.Instance, weight func(idx int) float64) (grad map[int]float64, lossSum float64) {
	var b BatchIndex
	b.Build(rows)
	w := make([]float64, len(b.Indices))
	for k, i := range b.Indices {
		w[k] = weight(i)
	}
	g := make([]float64, len(b.Indices))
	lossSum = b.Gradient(obj, rows, w, g)
	idx, vals := b.Sparse(g)
	grad = make(map[int]float64, len(idx))
	for k, i := range idx {
		grad[i] = vals[k]
	}
	return grad, lossSum
}

// DistinctIndices returns the sorted distinct feature indices of a batch —
// the index set a sparse pull fetches.
func DistinctIndices(rows []data.Instance) []int {
	var b BatchIndex
	b.Build(rows)
	return b.Indices
}

// TotalNnz counts feature entries across rows (the compute charge unit).
func TotalNnz(rows []data.Instance) int {
	n := 0
	for _, inst := range rows {
		n += inst.Features.Nnz()
	}
	return n
}

// Model is the trained output.
type Model struct {
	Weights *dcv.Vector
	Trace   *core.Trace
}

// Optimizer is an update rule as one stateless kernel. Update returns
// iteration iter's step over the rows (weight, aux…, gradient), where the
// gradient sums batchSize examples; it updates the weight and aux rows in
// place, and the caller keeps the rows between iterations. PS2 runs the
// kernel server-side as one zip over co-located DCVs, PS-Adam's
// baselines.PullPush on pulled copies, and MLlib's driver on its own model.
type Optimizer interface {
	Name() string
	// AuxVectors is how many auxiliary rows sit between weight and gradient.
	AuxVectors() int
	Update(iter, batchSize int) func(lo int, rows [][]float64)
}

// Stepper is an optimizer that runs its own step over the PS2 strategy's
// vectors (weight, aux…, gradient) in place of the server-side zip:
// baselines.PullPush.
type Stepper interface {
	Optimizer
	Step(p *simnet.Proc, e *core.Engine, vecs []*dcv.Vector, iter, batchSize int) error
}

// Strategy is what one LR system brings to the training loop (Run): Setup
// places the model before the first iteration, and the core.Strategy methods
// run each iteration. PS2 (Train) and the LR baselines are strategies.
type Strategy interface {
	core.Strategy[data.Instance]
	// Setup places the model before the first iteration.
	Setup(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg Config) error
}

// Run trains LR with strategy s through the shared loop (core.Run): iteration
// it draws Sample(BatchFraction, Seed+it), so every LR system compared from
// one seed sees the same rows.
func Run(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg Config, s Strategy) (*core.Trace, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("lr: iterations must be positive")
	}
	if err := s.Setup(p, e, dataset, dim, cfg); err != nil {
		return nil, err
	}
	return core.Run(p, e, dataset, cfg.BatchFraction, cfg.Seed, cfg.Iterations, s)
}

// GradientStage is the stage every parameter-server strategy runs: one
// gradient task per partition of the batch.
func GradientStage(p *simnet.Proc, batch *rdd.RDD[data.Instance], obj Objective,
	weights func(tc *rdd.TaskContext, indices []int) ([]float64, error),
	ship func(tc *rdd.TaskContext, rows []data.Instance, grad *linalg.SparseVector) error) ([]core.Summary, error) {
	return rdd.RunPartitions(p, batch, core.SummaryBytes, func(tc *rdd.TaskContext, _ int, rows []data.Instance) (core.Summary, error) {
		return gradientTask(tc, rows, obj, weights, ship)
	})
}

// gradientTask is the one parameter-server task: it indexes its rows, reads
// the weights of the index's features (weights returns them aligned with
// indices), computes the batch gradient, pays for it, commits and ships it.
// ship owns grad. GradientStage runs it under the stage barrier, TrainAsync
// under the SSP clock.
func gradientTask(tc *rdd.TaskContext, rows []data.Instance, obj Objective,
	weights func(tc *rdd.TaskContext, indices []int) ([]float64, error),
	ship func(tc *rdd.TaskContext, rows []data.Instance, grad *linalg.SparseVector) error) (core.Summary, error) {
	if len(rows) == 0 {
		return core.Summary{}, nil
	}
	var b BatchIndex
	b.Build(rows)
	w, err := weights(tc, b.Indices)
	if err != nil {
		return core.Summary{}, err
	}
	g := make([]float64, len(b.Indices))
	loss := b.Gradient(obj, rows, w, g)
	tc.Charge(tc.Ctx.Cl.Cost.GradWork(TotalNnz(rows)))
	tc.Commit()
	idx, vals := b.Sparse(g)
	return core.Summary{Sum: loss, Weight: len(rows)}, ship(tc, rows, &linalg.SparseVector{Indices: idx, Values: vals})
}

// Train runs mini-batch training of the configured objective on PS2: the
// execution flow of the paper's Section 3.3 / Figure 3, as the PS2 strategy
// of the shared loop.
func Train(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], dim int, cfg Config, opt Optimizer) (*Model, error) {
	if opt == nil {
		opt = NewSGD()
	}
	s := &ps2{opt: opt}
	trace, err := Run(p, e, dataset, dim, cfg, s)
	if err != nil {
		return nil, err
	}
	trace.Name = "PS2-" + opt.Name()
	return &Model{Weights: s.weight, Trace: trace}, nil
}

// ps2 is PS2's strategy: the model is co-located DCVs on the servers, a task
// sparse-pulls exactly its batch's features and pushes its gradient with a
// DCV add, and the driver runs the optimizer server-side at the barrier.
type ps2 struct {
	opt Optimizer
	e   *core.Engine
	cfg Config

	// vecs are the optimizer's rows (weight, aux…, gradient) as co-located
	// DCVs; weight and grad name the ends.
	vecs         []*dcv.Vector
	weight, grad *dcv.Vector
	pullRow      func(p *simnet.Proc, from *simnet.Node, row int, indices []int) ([]float64, error)
	cache        *ps.CachedClient
	gradBufs     map[*simnet.Node]*ps.PushBuffer
}

func (s *ps2) Setup(p *simnet.Proc, e *core.Engine, _ *rdd.RDD[data.Instance], dim int, cfg Config) error {
	s.e, s.cfg = e, cfg
	// Allocate the weight DCV, then derive the optimizer's auxiliary vectors
	// and the gradient from it, zeroing each in turn, so everything is
	// dimension co-located.
	var err error
	if s.weight, err = e.DCV.Dense(p, dim, 2+s.opt.AuxVectors()); err != nil {
		return err
	}
	s.vecs = []*dcv.Vector{s.weight}
	for range 1 + s.opt.AuxVectors() {
		v, err := s.weight.Derive()
		if err != nil {
			return err
		}
		if err := v.Zero(p, e.Driver()); err != nil {
			return err
		}
		s.vecs = append(s.vecs, v)
	}
	s.grad = s.vecs[len(s.vecs)-1]
	s.pullRow = s.weight.Matrix().PullRowIndices

	// Optional worker-side cache: one CachedClient over the shared raw
	// matrix, and (when combining is on) one write-combining gradient buffer
	// per executor machine, flushed by the driver at the stage barrier.
	if cfg.Cache != nil {
		if cfg.Replicas != nil {
			return errors.New("lr: Cache and Replicas both intercept the weight pull; configure one")
		}
		s.cache = ps.NewCachedClient(s.weight.Matrix(), *cfg.Cache)
		s.pullRow = s.cache.PullRowIndices
		if cfg.Cache.CombinePushes {
			s.gradBufs = map[*simnet.Node]*ps.PushBuffer{}
		}
	}
	// Optional hot-parameter replication: reads of the configured hot
	// columns spread over all servers instead of hammering their owners.
	if cfg.Replicas != nil {
		replicas, err := ps.NewHotReplicaSet(s.weight.Matrix(), *cfg.Replicas)
		if err != nil {
			return err
		}
		s.pullRow = replicas.PullRowIndices
	}
	return nil
}

func (s *ps2) Round(p *simnet.Proc, batch *rdd.RDD[data.Instance], it int) ([]core.Summary, error) {
	return GradientStage(p, batch, s.cfg.Objective, s.pull, s.push)
}

// pull is the model pull: a sparse pull of exactly the batch's features.
func (s *ps2) pull(tc *rdd.TaskContext, indices []int) ([]float64, error) {
	return s.pullRow(tc.P, tc.Node, s.weight.Row(), indices)
}

// push is the gradient push via the DCV add operator.
func (s *ps2) push(tc *rdd.TaskContext, rows []data.Instance, sv *linalg.SparseVector) error {
	// Value-bounded accounting: the push below targets the GRAD row, but the
	// row the cache holds is the WEIGHT row, whose eventual change is the
	// optimizer step over this gradient. Credit the cache with the
	// SGD-flavored estimate lr·|g|/batch so value-bounded and adaptive
	// policies see a per-element magnitude signal; skipped entirely under
	// the default clock-bounded policy.
	if s.cache != nil && s.cache.Policy().UsesDeltas() {
		mags := make([]float64, len(sv.Values))
		scale := s.cfg.LearningRate / float64(len(rows))
		for k, v := range sv.Values {
			mags[k] = scale * v
		}
		s.cache.CreditPush(tc.Node, s.weight.Row(), sv.Indices, mags)
	}
	if s.gradBufs != nil {
		// Write combining: the delta merges host-side into the executor's
		// buffer; the wire cost is paid at flush.
		buf := s.gradBufs[tc.Node]
		if buf == nil {
			buf = s.cache.NewPushBuffer()
			s.gradBufs[tc.Node] = buf
		}
		return buf.Add(s.grad.Row(), sv)
	}
	return s.grad.Add(tc.P, tc.Node, sv)
}

func (s *ps2) Barrier(p *simnet.Proc, it, count int) error {
	// Flush the combined gradients — one coalesced push per executor, in
	// parallel so the flush wave costs one round trip, not one per
	// executor — before the optimizer reads the batch gradient.
	if s.gradBufs != nil {
		g := p.Sim().NewGroup()
		errs := make([]error, len(s.e.Cluster.Executors))
		for i, node := range s.e.Cluster.Executors {
			if buf := s.gradBufs[node]; buf != nil && buf.Pending() > 0 {
				g.Go("grad-flush", func(fp *simnet.Proc) {
					errs[i] = buf.Flush(fp, node)
				})
			}
		}
		g.Wait(p)
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	// Model update: the optimizer's kernel as one server-side zip across
	// the co-located DCVs. With fusion (the default) the zip and the
	// gradient reset ride one request per server; the per-server op order
	// (step, then zero) matches the unfused sequence, so the trained model
	// is bit-identical.
	// The zip charges work per element of each of its 2+aux rows.
	d := s.e.Driver()
	work := s.e.Cluster.Cost.FlopsPerElem * float64(1+s.opt.AuxVectors())
	var err error
	switch st, ok := s.opt.(Stepper); {
	case ok:
		err = st.Step(p, s.e, s.vecs, it+1, count)
	case !s.cfg.NoFusion:
		return dcv.NewBatch(s.weight).ZipMap(s.weight, work, s.opt.Update(it+1, count), s.vecs[1:]...).
			Zero(s.grad).Run(p, d)
	default:
		err = s.weight.ZipMap(p, d, work, s.opt.Update(it+1, count), s.vecs[1:]...)
	}
	if err != nil {
		return err
	}
	return s.grad.Zero(p, d)
}

// Epilogue hands the loop the weights, which the optimizer step mutated.
func (s *ps2) Epilogue() (*ps.Matrix, *ps.CachedClient, int) {
	return s.weight.Matrix(), s.cache, s.cfg.CheckpointEvery
}

// EvalLoss computes the mean loss of a pulled weight vector over a dataset —
// used by tests and experiments for an apples-to-apples final comparison.
func EvalLoss(obj Objective, instances []data.Instance, w []float64) float64 {
	if len(instances) == 0 {
		return math.NaN()
	}
	var total float64
	for _, inst := range instances {
		loss, _, _ := obj.Loss(inst.Features.DotDense(w), inst.Label)
		total += loss
	}
	return total / float64(len(instances))
}

// Accuracy computes classification accuracy of weights w.
func Accuracy(instances []data.Instance, w []float64) float64 {
	if len(instances) == 0 {
		return math.NaN()
	}
	correct := 0
	for _, inst := range instances {
		pred := 0.0
		if inst.Features.DotDense(w) > 0 {
			pred = 1.0
		}
		if pred == inst.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(instances))
}

// AUC computes the area under the ROC curve of pulled weights over a
// dataset, the metric recommendation workloads actually report.
func AUC(instances []data.Instance, w []float64) float64 {
	type scored struct {
		p float64
		y float64
	}
	s := make([]scored, len(instances))
	var pos, neg float64
	for i, inst := range instances {
		s[i] = scored{p: inst.Features.DotDense(w), y: inst.Label}
		if inst.Label > 0.5 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return math.NaN()
	}
	sort.Slice(s, func(a, b int) bool { return s[a].p < s[b].p })
	// Rank-sum (Mann-Whitney) with tie handling by average rank.
	var rankSum float64
	i := 0
	for i < len(s) {
		j := i
		for j < len(s) && s[j].p == s[i].p {
			j++
		}
		avgRank := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			if s[k].y > 0.5 {
				rankSum += avgRank
			}
		}
		i = j
	}
	return (rankSum - pos*(pos+1)/2) / (pos * neg)
}

// ClusterMetrics is the result of distributed evaluation.
type ClusterMetrics struct {
	Loss     float64
	Accuracy float64
	Rows     int
}

// EvalOnCluster scores a dataset against a trained DCV model without moving
// the data: every worker sparse-pulls just the weights its partition
// touches, computes loss and accuracy locally, and only scalars travel to
// the driver. This is the inference-side counterpart of the training loop.
func EvalOnCluster(p *simnet.Proc, e *core.Engine, dataset *rdd.RDD[data.Instance], obj Objective, weights *dcv.Vector) (ClusterMetrics, error) {
	cost := e.Cluster.Cost
	type partial struct {
		Loss    float64
		Correct int
		Rows    int
	}
	parts, err := rdd.RunPartitions(p, dataset, 24, func(tc *rdd.TaskContext, part int, rows []data.Instance) (partial, error) {
		if len(rows) == 0 {
			return partial{}, nil
		}
		var b BatchIndex
		b.Build(rows)
		w, err := weights.PullIndices(tc.P, tc.Node, b.Indices)
		if err != nil {
			return partial{}, err
		}
		z := make([]float64, len(rows))
		b.margins(rows, w, z)
		var out partial
		for r, inst := range rows {
			loss, _, _ := obj.Loss(z[r], inst.Label)
			out.Loss += loss
			pred := 0.0
			if z[r] > 0 {
				pred = 1
			}
			if pred == inst.Label {
				out.Correct++
			}
			out.Rows++
		}
		tc.Charge(cost.GradWork(TotalNnz(rows)))
		tc.Commit()
		return out, nil
	})
	if err != nil {
		return ClusterMetrics{}, err
	}
	var total partial
	for _, pt := range parts {
		total.Loss += pt.Loss
		total.Correct += pt.Correct
		total.Rows += pt.Rows
	}
	if total.Rows == 0 {
		return ClusterMetrics{Loss: math.NaN(), Accuracy: math.NaN()}, nil
	}
	return ClusterMetrics{
		Loss:     total.Loss / float64(total.Rows),
		Accuracy: float64(total.Correct) / float64(total.Rows),
		Rows:     total.Rows,
	}, nil
}
