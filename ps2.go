// Package ps2 is the public API of the PS2 reproduction: a parameter server
// on a Spark-like dataflow engine, with the paper's Dimension Co-located
// Vector (DCV) abstraction for server-side model management and an online
// serving tier layered on top.
//
// # Lifecycle: Engine → Train → Serve → Snapshot
//
// A program creates an Engine (one simulated cluster running the dataflow
// and parameter-server applications side by side), loads data into RDDs,
// trains models whose parameters live on the servers as DCVs, serves reads
// against them — live or at a pinned clock — and reads the end-of-run report
// from Engine.Snapshot():
//
//	e := ps2.NewEngine(ps2.DefaultOptions())
//	e.Run(func(p *ps2.Proc) {
//		// Train: parameters live on the servers as DCVs.
//		dataset := ps2.LoadInstances(e, instances)
//		model, err := ps2.TrainLogistic(p, e, dataset, dim, lr.DefaultConfig(), lr.NewAdam(),
//			ps2.TrainOptions{Replicas: &ps2.ReplicaConfig{HotCols: hot}})
//
//		// Serve: one read entry point for inference traffic, safe while
//		// training continues. Hot columns are answered from replicas, cold
//		// ones by their owners, exact as of the model clock.
//		reader, err := ps2.Serve(model.Weights.Matrix(), ps2.ServeOptions{
//			Replicas: &ps2.ReplicaConfig{HotCols: hot},
//		})
//		vals, err := reader.Read(p, node, model.Weights.Row(), indices)
//
//		// Snapshot-consistent reads: pin a clock, read bit-identical values
//		// no matter how many pushes land meanwhile.
//		snap, err := reader.Snapshot(p)
//		pinned, err := snap.ReadRowIndices(p, node, row, indices)
//		snap.Close()
//	})
//	report := e.Snapshot() // the single reporting entry point
//
// Reads and writes surface typed errors — ErrServerDown, ErrBadIndices,
// ErrOverload (admission shed), ErrSnapshotInvalid (pin fenced by a recovery
// or migration) — check them with errors.Is. The Train* entry points return
// them too: an error a task meets fails its stage and then the training run,
// as a server that stays down past the retry budget fails it with
// ErrServerDown.
//
// The sub-packages mirror the paper's architecture and are where the full
// surface lives:
//
//	internal/simnet    discrete-event simulation kernel (virtual cluster)
//	internal/cluster   machine topology and cost model
//	internal/rdd       the Spark-like dataflow engine
//	internal/ps        parameter-server master/servers/client + serving tier
//	internal/dcv       the DCV abstraction (the paper's contribution)
//	internal/ml/...    LR/SVM/L-BFGS, DeepWalk, GBDT, LDA on PS2
//	internal/baselines MLlib, Petuum, Glint, DistML, XGBoost comparators
//	internal/bench     one runner per table/figure of the evaluation
package ps2

import (
	"fmt"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dcv"
	"repro/internal/ml/embedding"
	"repro/internal/ml/gbdt"
	"repro/internal/ml/lda"
	"repro/internal/ml/lr"
	"repro/internal/obs"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// Engine is one PS2 application instance: the simulated cluster plus the
// dataflow context, the PS master and a DCV session.
type Engine = core.Engine

// Options configures the engine (cluster shape, cost model, failure
// injection, admission control).
type Options = core.Options

// Proc is a process in the simulated cluster; training jobs run as the
// driver process and receive it as their first argument.
type Proc = simnet.Proc

// Vector is a Dimension Co-located Vector: the paper's model abstraction.
type Vector = dcv.Vector

// Batch records a program of column ops against co-located vectors and
// executes it as one fused request per server; see dcv.Batch.
type Batch = dcv.Batch

// Scalar is the deferred result of a reducing Batch op.
type Scalar = dcv.Scalar

// NewBatch starts an empty fused-op batch anchored at a vector's raw matrix.
func NewBatch(anchor *Vector) *Batch { return dcv.NewBatch(anchor) }

// Trace is a convergence curve (virtual time vs. metric).
type Trace = core.Trace

// FaultPlan schedules environment-injected failures for a run: machine
// crashes at virtual times plus ambient message loss and delay. Assign one
// to Options.Faults; the engine then runs the chaos controller and the
// heartbeat failure detector alongside the job, and crashed servers are
// detected and recovered automatically.
type FaultPlan = core.FaultPlan

// CrashEvent is one scheduled machine crash inside a FaultPlan.
type CrashEvent = core.CrashEvent

// LinkFault is one scheduled per-link loss/delay override inside a FaultPlan
// (e.g. degrading the stream routes of an elastic migration).
type LinkFault = core.LinkFault

// DetectorConfig tunes the master's heartbeat failure detector
// (Options.Detector).
type DetectorConfig = ps.DetectorConfig

// RetryConfig tunes the PS client's retry/timeout/backoff policy
// (Options.RPC).
type RetryConfig = ps.RetryConfig

// CacheConfig tunes the worker-side parameter cache and write-combining
// push buffer (TrainOptions.Cache): consistency policy, per-executor byte
// capacity, and whether pushes are combined.
type CacheConfig = ps.CacheConfig

// CachedClient is the worker-side parameter cache fronting a matrix's pull
// operators; trainers construct one internally when their Cache config is
// set, and ps.NewCachedClient builds one for custom jobs.
type CachedClient = ps.CachedClient

// ConsistencyPolicy decides, per cached read, whether a cached value may be
// served as-is, must be revalidated against its version stamp, or must be
// hard-pulled from the owner. It is the worker cache's one freshness knob,
// CacheConfig.Policy; nil means ClockBoundedPolicy(0). The hot replicas,
// which serve training pulls and ModelReader reads alike, take no policy:
// their reads are always exact as of the model clock. SSP training takes no
// policy either: its one knob is the staleness bound.
type ConsistencyPolicy = consistency.Policy

// ClockBoundedPolicy returns the classic bounded-staleness policy: a cached
// value serves while it is at most staleness clock ticks old, revalidates
// otherwise. 0 is the strictest (validate every read once the clock moves);
// negative values clamp to 0.
func ClockBoundedPolicy(staleness int) ConsistencyPolicy {
	return consistency.NewClockBounded(staleness)
}

// ValueBoundedPolicy returns the value-bounded policy: a cached value serves
// — regardless of clock age — until the accumulated |delta| against it may
// exceed bound, then revalidates (or hard-pulls when the locally pushed
// magnitude alone breaches the bound). Share ONE policy value per client.
func ValueBoundedPolicy(bound float64) ConsistencyPolicy {
	return consistency.NewValueBounded(bound)
}

// AdaptivePolicy returns the adaptive value-bounded policy: the effective
// bound starts at base, tightens while observed push magnitudes are large
// (early training) and relaxes back toward base as updates shrink
// (convergence). Share ONE policy value per client.
func AdaptivePolicy(base float64) ConsistencyPolicy {
	return consistency.NewAdaptive(base)
}

// Matrix is the raw column-partitioned parameter storage behind DCVs;
// Vector.Matrix exposes a vector's matrix for serving and low-level use.
type Matrix = ps.Matrix

// ReplicaConfig selects the hot columns replicated to every server
// (TrainOptions.Replicas, ServeOptions.Replicas); replica-served reads are
// exact as of the model clock.
type ReplicaConfig = ps.ReplicaConfig

// TopKCols returns the k highest-weight column indices, ascending — the
// standard way to pick ReplicaConfig.HotCols from a sampled access profile.
func TopKCols(weight []float64, k int) []int { return ps.TopKCols(weight, k) }

// ModelReader is the serving tier's read handle on one matrix — the one
// public entry point for inference reads. Build one with Serve.
type ModelReader = ps.ModelReader

// ModelSnapshot is a consistent read view pinned at a model clock: reads
// through it are bit-identical to the moment of the pin no matter how many
// pushes land meanwhile, with no bulk copy and without ever blocking pushes.
type ModelSnapshot = ps.ModelSnapshot

// ServeOptions configures a ModelReader: hot-column replication for the
// serving fan-out (nil keeps reads owner-routed).
type ServeOptions = ps.ServeConfig

// AdmissionConfig tunes per-server admission control (ps.Master.SetAdmission):
// sustained rate, burst, the bounded queue, and which class — serve or train —
// is favored when the queue fills.
type AdmissionConfig = ps.AdmissionConfig

// Serve attaches a ModelReader to a matrix — the Engine → Train → Serve step
// of the lifecycle. The matrix is typically a trained model's weight storage
// (model.Weights.Matrix()); serving may start while training is still
// running.
func Serve(mat *Matrix, cfg ServeOptions) (*ModelReader, error) {
	return ps.NewModelReader(mat, cfg)
}

// Snapshot is the single end-of-run report returned by Engine.Snapshot:
// communication, recovery, fusion, cache, load, migration, serving and phase
// views in one structured value.
type Snapshot = obs.Snapshot

// Tracer records structured spans of a run when Options.Trace is set; export
// it with its WriteChrome method and open the file in Perfetto/chrome://tracing.
type Tracer = obs.Tracer

// Typed errors of the data plane — check with errors.Is.
var (
	// ErrServerDown is surfaced (wrapped) when a parameter server stays
	// unreachable past the retry budget.
	ErrServerDown = ps.ErrServerDown
	// ErrBadIndices is surfaced on malformed sparse requests (unsorted,
	// duplicate, or out-of-range indices).
	ErrBadIndices = ps.ErrBadIndices
	// ErrOverload is surfaced when admission control sheds a call: the target
	// server's bounded queue was full. Shed calls are never retried
	// internally — back off and retry at the caller's pace.
	ErrOverload = ps.ErrOverload
	// ErrSnapshotInvalid is surfaced when a pinned ModelSnapshot was fenced
	// by a server recovery, a placement migration, or an undeclared bulk
	// write — re-pin and retry; a fenced snapshot never returns torn values.
	ErrSnapshotInvalid = ps.ErrSnapshotInvalid
)

// Typed errors of the elastic-membership layer: structurally invalid
// membership/migration requests, a lost placement-fingerprint CAS race, and
// a migration rolled back on an endpoint fault (retryable once the cluster
// heals).
var (
	ErrBadMigration     = ps.ErrBadMigration
	ErrStaleMigration   = ps.ErrStaleMigration
	ErrMigrationAborted = ps.ErrMigrationAborted
)

// Instance is one sparse labelled training example.
type Instance = data.Instance

// DefaultOptions mirrors the paper's standard setup: 20 executors and 20
// parameter servers on a 10×-scaled network.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewEngine boots a simulated cluster with the dataflow and parameter-server
// applications.
func NewEngine(opt Options) *Engine { return core.NewEngine(opt) }

// LoadInstances partitions instances round-robin over the executors and
// caches them, the standard way examples stage training data.
func LoadInstances(e *Engine, instances []Instance) *rdd.RDD[Instance] {
	return rdd.FromSlices(e.RDD, data.Partition(instances, e.RDD.NumExecutors())).Cache()
}

// TrainOptions is the shared cross-cutting seam of the Train* entry points:
// the knobs every trainer either supports uniformly or rejects explicitly,
// so trainer configs stop growing ad-hoc parameters. Pass at most one per
// Train* call; a zero TrainOptions changes nothing.
type TrainOptions struct {
	// Cache attaches a worker-side parameter cache (and, if configured,
	// write-combining push buffers) to the trainer's pulls.
	// Supported by: TrainLogistic, TrainDeepWalk.
	Cache *CacheConfig

	// Replicas replicates the configured hot columns to every server and
	// routes the trainer's hot reads through them. Mutually exclusive with
	// Cache (both intercept the pull path).
	// Supported by: TrainLogistic.
	Replicas *ReplicaConfig

	// CheckpointEvery, when positive, checkpoints the model matrix to the
	// reliable store every that many iterations.
	// Supported by: TrainLogistic, TrainDeepWalk.
	CheckpointEvery int
}

// one collapses a variadic TrainOptions to at most one value.
func one(topts []TrainOptions) (TrainOptions, error) {
	switch len(topts) {
	case 0:
		return TrainOptions{}, nil
	case 1:
		return topts[0], nil
	}
	return TrainOptions{}, fmt.Errorf("ps2: pass at most one TrainOptions, got %d", len(topts))
}

// TrainLogistic trains logistic regression (or a linear SVM via
// cfg.Objective) on PS2 with the given optimizer — the paper's Figure 3 flow.
// TrainOptions may add a cache or hot-column replicas and checkpointing.
func TrainLogistic(p *Proc, e *Engine, dataset *rdd.RDD[Instance], dim int, cfg lr.Config, opt lr.Optimizer, topts ...TrainOptions) (*lr.Model, error) {
	to, err := one(topts)
	if err != nil {
		return nil, err
	}
	if to.Cache != nil {
		cfg.Cache = to.Cache
	}
	if to.Replicas != nil {
		cfg.Replicas = to.Replicas
	}
	if to.CheckpointEvery > 0 {
		cfg.CheckpointEvery = to.CheckpointEvery
	}
	return lr.Train(p, e, dataset, dim, cfg, opt)
}

// TrainDeepWalk embeds a graph from skip-gram pairs — the paper's Figure 6
// flow. TrainOptions may add a cache and checkpointing; Replicas is not
// supported (embedding reads are row lookups, served after training via
// Serve with a ReplicaConfig instead).
func TrainDeepWalk(p *Proc, e *Engine, pairs *rdd.RDD[data.Pair], vertices int, cfg embedding.Config, topts ...TrainOptions) (*embedding.Model, error) {
	to, err := one(topts)
	if err != nil {
		return nil, err
	}
	if to.Replicas != nil {
		return nil, fmt.Errorf("ps2: TrainOptions.Replicas is not supported by TrainDeepWalk")
	}
	if to.Cache != nil {
		cfg.Cache = to.Cache
	}
	if to.CheckpointEvery > 0 {
		cfg.CheckpointEvery = to.CheckpointEvery
	}
	return embedding.Train(p, e, pairs, vertices, cfg)
}

// TrainGBDT boosts trees with PS-side histogram aggregation — the paper's
// Figure 8 flow. GBDT's PS traffic is histogram aggregation, not sparse
// model pulls, so no TrainOptions field applies yet: a non-zero TrainOptions
// is rejected rather than silently ignored.
func TrainGBDT(p *Proc, e *Engine, ds *data.TabularDataset, cfg gbdt.Config, topts ...TrainOptions) (*gbdt.Model, error) {
	to, err := one(topts)
	if err != nil {
		return nil, err
	}
	if to != (TrainOptions{}) {
		return nil, fmt.Errorf("ps2: TrainOptions is not supported by TrainGBDT")
	}
	r, edges, err := gbdt.PrepareRDD(p, e, ds, cfg)
	if err != nil {
		return nil, err
	}
	return gbdt.Train(p, e, r, ds.Config.Features, edges, cfg)
}

// TrainLDA fits a topic model with collapsed Gibbs sampling, the topic-word
// counts living on the parameter servers. Like TrainGBDT it rejects a
// non-zero TrainOptions rather than silently ignoring it. CheckpointEvery in
// particular stays refused although LDA runs on the shared loop and its count
// pushes are requests that mark the rows they write: PS2-LDA hands the loop
// no matrix to checkpoint (it implements no core.Epilogue), and no test yet
// crashes a server under LDA and restores the counts. A server lost during
// training, like under every trainer here, fails TrainLDA with an error
// wrapping ErrServerDown.
func TrainLDA(p *Proc, e *Engine, docs *rdd.RDD[data.Document], vocab int, cfg lda.Config, topts ...TrainOptions) (*lda.Model, error) {
	to, err := one(topts)
	if err != nil {
		return nil, err
	}
	if to != (TrainOptions{}) {
		return nil, fmt.Errorf("ps2: TrainOptions is not supported by TrainLDA")
	}
	return lda.Train(p, e, docs, vocab, cfg)
}
