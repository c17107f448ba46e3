// Chaos soak tests: full training jobs run under a fault plan — scheduled
// machine crashes mid-training plus ambient message loss — with no manual
// fault handling anywhere in the job. The self-healing stack (heartbeat
// detection, automatic checkpoint recovery, executor rescheduling, RPC retry)
// must keep the run converging to clean-run quality.
package ps2

import (
	"errors"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/embedding"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/rdd"
)

// tuneFaultTimescales matches the detector and RPC clocks to the quick test
// jobs, whose whole virtual runtime is well under a second: with the
// defaults (0.5 s heartbeats, 0.25 s timeouts) a scheduled crash would land
// before the first checkpoint and an outage would dominate the run. Misses=3
// keeps 2% ambient message loss from faking a dead server.
func tuneFaultTimescales(opt *Options) {
	opt.Detector = DetectorConfig{IntervalSec: 0.05, Misses: 3, AutoRecover: true, HeartbeatBytes: 64}
	opt.RPC = RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.005, MaxBackoffSec: 0.05, MaxRetries: 200}
}

// lrSoakConfig is the shared training setup for the LR soak runs.
func lrSoakConfig() (*data.ClassifyDataset, lr.Config) {
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 2000, Dim: 3000, NnzPerRow: 10, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 300, Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	cfg := lr.DefaultConfig()
	cfg.Iterations = 30
	cfg.BatchFraction = 0.3
	cfg.CheckpointEvery = 2
	return ds, cfg
}

// runLR trains LR under the given fault plan and returns the final full-data
// loss, the finishing virtual time and the engine for inspection.
func runLR(t *testing.T, ds *data.ClassifyDataset, cfg lr.Config, faults *FaultPlan) (float64, float64, *Engine) {
	t.Helper()
	opt := DefaultOptions()
	opt.Executors, opt.Servers = 8, 8
	opt.Faults = faults
	tuneFaultTimescales(&opt)
	engine := NewEngine(opt)
	var loss float64
	end := engine.Run(func(p *Proc) {
		dataset := LoadInstances(engine, ds.Instances)
		model, err := TrainLogistic(p, engine, dataset, ds.Config.Dim, cfg, lr.NewSGD())
		if err != nil {
			t.Errorf("train: %v", err)
			return
		}
		loss = lr.EvalLoss(lr.Logistic, ds.Instances, model.Weights.Pull(p, engine.Driver()))
	})
	return loss, float64(end), engine
}

func TestChaosSoakLogisticRegression(t *testing.T) {
	ds, cfg := lrSoakConfig()

	// Clean run: the loss the chaos run must match.
	cleanLoss, _, _ := runLR(t, ds, cfg, nil)
	if math.IsNaN(cleanLoss) || cleanLoss <= 0 {
		t.Fatalf("clean loss = %v", cleanLoss)
	}

	// Calibration run: message loss only. Its timeline is identical to the
	// crash run's up to the first crash (same chaos seed, deterministic
	// simulation), so crash times picked as fractions of its duration are
	// guaranteed to land mid-training.
	_, lossyEnd, _ := runLR(t, ds, cfg, &FaultPlan{LossProb: 0.02})

	// Chaos run: one PS-server crash and one executor crash mid-training,
	// plus ambient message loss. No KillServer/RecoverServer anywhere — the
	// monitor must notice and heal on its own.
	faults := &FaultPlan{
		LossProb:        0.02,
		ServerCrashes:   []CrashEvent{{AtSec: 0.4 * lossyEnd, Index: 2}},
		ExecutorCrashes: []CrashEvent{{AtSec: 0.6 * lossyEnd, Index: 3}},
	}
	chaosLoss, chaosEnd, engine := runLR(t, ds, cfg, faults)

	if math.IsNaN(chaosLoss) {
		t.Fatal("chaos run produced no model")
	}
	if rel := math.Abs(chaosLoss-cleanLoss) / cleanLoss; rel > 0.01 {
		t.Fatalf("chaos loss %v vs clean %v: relative gap %.3f%% exceeds 1%%",
			chaosLoss, cleanLoss, 100*rel)
	}
	if chaosEnd <= 0 {
		t.Fatal("chaos run did not finish")
	}

	rep := engine.Snapshot().Recovery
	if rep.ServerCrashes != 1 {
		t.Fatalf("ServerCrashes = %d, want 1 (did the fault plan fire?)", rep.ServerCrashes)
	}
	if rep.Detections < 1 || rep.Recoveries < 1 {
		t.Fatalf("detections/recoveries = %d/%d, want >= 1 each", rep.Detections, rep.Recoveries)
	}
	if rep.DetectLatencySum <= 0 {
		t.Fatalf("DetectLatencySum = %v, want > 0", rep.DetectLatencySum)
	}
	if rep.MeanRecoverySec() <= 0 {
		t.Fatalf("MeanRecoverySec = %v, want > 0", rep.MeanRecoverySec())
	}
	if rep.RestoreBytes <= 0 {
		t.Fatalf("RestoreBytes = %v, want > 0 (checkpoints existed)", rep.RestoreBytes)
	}
	// Delta checkpointing must have saved wire bytes versus full snapshots.
	if rep.CheckpointBytesWritten <= 0 || rep.CheckpointBytesWritten >= rep.CheckpointBytesFull {
		t.Fatalf("checkpoint bytes written %v vs full %v: deltas not cheaper",
			rep.CheckpointBytesWritten, rep.CheckpointBytesFull)
	}
	if engine.RDD.ExecutorCrashes != 1 {
		t.Fatalf("ExecutorCrashes = %d, want 1", engine.RDD.ExecutorCrashes)
	}
	if engine.Sim.Chaos().MessagesLost == 0 {
		t.Fatal("message loss enabled but nothing was ever dropped")
	}
}

// elasticChaosResult is one elastic-migration soak run's observations.
type elasticChaosResult struct {
	migStart, migEnd float64
	attempts         int // failed MigrateMatrix calls before success
	aborted          int // of those, mid-protocol rollbacks
	rows             [][]float64
	settled          bool
	engine           *Engine
}

// runElasticChaos drives a 4→8 scale-out migration with a concurrent pusher
// under the given fault plan. Pushed columns all live on server 0 under both
// placements, so a crash of any OTHER server can never destroy acknowledged
// push state — which makes exact value equality a sound oracle even with
// mid-migration crashes in the plan. The migration itself still moves every
// column (three quarters of them across machines).
func runElasticChaos(t *testing.T, servers int, faults *FaultPlan) elasticChaosResult {
	t.Helper()
	const dim, rows, pushes = 20000, 2, 60
	opt := DefaultOptions()
	opt.Executors, opt.Servers = 8, servers
	opt.Faults = faults
	tuneFaultTimescales(&opt)
	engine := NewEngine(opt)
	res := elasticChaosResult{engine: engine}
	engine.Run(func(p *Proc) {
		m := engine.PS
		start, err := ps.NewPartitioner(dim, min(4, servers))
		if err != nil {
			panic(err)
		}
		mat, err := m.CreateMatrixPlaced(p, rows, dim, start)
		if err != nil {
			panic(err)
		}
		worker := engine.Cluster.Executors[0]
		init := make([]float64, dim)
		for c := range init {
			init[c] = math.Sin(float64(c)) // every column nonzero: copies must carry it
		}
		for r := 0; r < rows; r++ {
			ps.MustOK(mat.SetRow(p, worker, r, init))
		}
		m.Checkpoint(p, mat)
		g := p.Sim().NewGroup()
		g.Go("pusher", func(cp *Proc) {
			for i := 0; i < pushes; i++ {
				cp.Sleep(0.0001)
				sv, err := linalg.NewSparse([]int{i, i*17 + 5}, []float64{1, 0.5})
				if err != nil {
					panic(err)
				}
				ps.MustOK(mat.PushAdd(cp, engine.Cluster.Executors[1], 0, sv))
			}
		})
		if servers >= 8 {
			g.Go("migrator", func(cp *Proc) {
				cp.Sleep(0.002)
				res.migStart = float64(cp.Now())
				target, err := ps.NewPartitioner(dim, 8)
				if err != nil {
					panic(err)
				}
				for {
					err := m.MigrateMatrix(cp, mat, target, mat.Part.Fingerprint())
					if err == nil {
						break
					}
					res.attempts++
					switch {
					case errors.Is(err, ErrMigrationAborted):
						res.aborted++
					case errors.Is(err, ErrServerDown):
						// Endpoint still dead: wait for the detector to heal it.
					default:
						t.Errorf("migration failed non-retryably: %v", err)
						return
					}
					cp.Sleep(0.05)
				}
				res.migEnd = float64(cp.Now())
			})
		}
		g.Wait(p)
		res.rows = make([][]float64, rows)
		for r := 0; r < rows; r++ {
			res.rows[r] = ps.Must(mat.PullRow(p, engine.Driver(), r))
		}
		res.settled = m.DedupSettled()
	})
	return res
}

// TestChaosElasticMigrationExactlyOnce crashes a migration SOURCE and a
// migration DESTINATION mid-transfer — with ambient message loss plus
// targeted drop/delay on two migration stream routes — and asserts the
// system converges to exactly the single-server oracle: the migration aborts
// and rolls back without double-applying anything, the detector heals the
// endpoints, the retry completes, and no push is lost or applied twice
// (dedup watermark settled, values bit-identical).
func TestChaosElasticMigrationExactlyOnce(t *testing.T) {
	// Single-server oracle: same logical schedule, no faults, no migration —
	// trivially exact values.
	oracle := runElasticChaos(t, 1, nil)

	// Calibration: same topology and ambient loss as the chaos run but no
	// crashes (the one scheduled action sits far past the end so the chaos
	// controller exists in both runs). The timeline is identical to the chaos
	// run's up to the first real fault, so crash times picked inside its
	// migration window are guaranteed to land mid-protocol.
	calib := runElasticChaos(t, 8, &FaultPlan{
		LossProb:      0.02,
		ServerCrashes: []CrashEvent{{AtSec: 1e9, Index: 0}},
	})
	if calib.aborted != 0 {
		t.Fatalf("calibration run aborted %d times without crashes", calib.aborted)
	}
	window := calib.migEnd - calib.migStart
	if window <= 0 {
		t.Fatalf("calibration migration window empty: [%v, %v]", calib.migStart, calib.migEnd)
	}

	// Chaos run. Server 1 is a bulk-copy SOURCE (owns columns under both
	// placements), server 6 a DESTINATION-only machine; the faulted links
	// 2→4 and 3→7 carry exclusively migration streams. Faults degrade but
	// never destroy pushed state: all pushed columns live on server 0.
	chaos := runElasticChaos(t, 8, &FaultPlan{
		LossProb: 0.02,
		ServerCrashes: []CrashEvent{
			{AtSec: calib.migStart + 0.25*window, Index: 1},
			{AtSec: calib.migStart + 0.75*window, Index: 6},
		},
		LinkFaults: []LinkFault{
			{AtSec: calib.migStart, Src: 2, Dst: 4, LossProb: 0.5, DelaySec: 0.0002},
			{AtSec: calib.migStart, Src: 3, Dst: 7, LossProb: 0.5},
		},
	})

	if chaos.aborted < 1 {
		t.Fatalf("no migration abort: crashes missed the protocol (attempts=%d window=%v)",
			chaos.attempts, window)
	}
	if !chaos.settled {
		t.Fatal("dedup watermark did not settle: some push never fully acknowledged")
	}
	for r := range oracle.rows {
		for c := range oracle.rows[r] {
			if chaos.rows[r][c] != oracle.rows[r][c] {
				t.Fatalf("row %d col %d = %v, oracle %v: push lost or double-applied across migration",
					r, c, chaos.rows[r][c], oracle.rows[r][c])
			}
		}
	}
	snap := chaos.engine.Snapshot()
	if snap.Migration.Migrations != 1 {
		t.Fatalf("Migrations = %d, want exactly 1", snap.Migration.Migrations)
	}
	if snap.Migration.Aborts != chaos.aborted || snap.Migration.BulkBytes <= 0 {
		t.Fatalf("migration accounting off: %+v vs %d observed aborts", snap.Migration, chaos.aborted)
	}
	if snap.Recovery.Detections < 2 || snap.Recovery.Recoveries < 2 {
		t.Fatalf("detections/recoveries = %d/%d, want >= 2 each (both crashed endpoints healed)",
			snap.Recovery.Detections, snap.Recovery.Recoveries)
	}
	if chaos.engine.Sim.Chaos().MessagesLost == 0 {
		t.Fatal("loss enabled but nothing dropped")
	}
}

func TestChaosSoakDeterministic(t *testing.T) {
	// A chaos run is still a deterministic simulation: same plan, same seed,
	// bit-identical result and virtual duration.
	ds, cfg := lrSoakConfig()
	cfg.Iterations = 10
	plan := func() *FaultPlan {
		return &FaultPlan{
			LossProb:      0.02,
			ServerCrashes: []CrashEvent{{AtSec: 2, Index: 1}},
		}
	}
	l1, e1, _ := runLR(t, ds, cfg, plan())
	l2, e2, _ := runLR(t, ds, cfg, plan())
	if l1 != l2 || e1 != e2 {
		t.Fatalf("chaos runs diverged: loss %v vs %v, end %v vs %v", l1, l2, e1, e2)
	}
}

func TestChaosSoakDeepWalk(t *testing.T) {
	g, err := data.GenerateGraph(data.GraphConfig{Vertices: 200, EdgesPerNode: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := data.DefaultWalkConfig()
	pairs := data.RandomWalks(g, wcfg)

	cfg := embedding.DefaultConfig()
	cfg.Iterations = 10
	cfg.CheckpointEvery = 2

	run := func(faults *FaultPlan) (float64, float64, *Engine) {
		opt := DefaultOptions()
		opt.Executors, opt.Servers = 8, 8
		opt.Faults = faults
		tuneFaultTimescales(&opt)
		engine := NewEngine(opt)
		var final float64
		end := engine.Run(func(p *Proc) {
			r := rdd.FromSlices(engine.RDD, data.PartitionPairs(pairs, 8)).Cache()
			model, err := TrainDeepWalk(p, engine, r, g.Vertices(), cfg)
			if err != nil {
				t.Errorf("train: %v", err)
				return
			}
			final = model.Trace.Final()
		})
		return final, float64(end), engine
	}

	cleanLoss, _, _ := run(nil)
	_, lossyEnd, _ := run(&FaultPlan{LossProb: 0.02})
	chaosLoss, _, engine := run(&FaultPlan{
		LossProb:      0.02,
		ServerCrashes: []CrashEvent{{AtSec: 0.4 * lossyEnd, Index: 5}},
	})
	if math.IsNaN(chaosLoss) || chaosLoss <= 0 {
		t.Fatalf("chaos DeepWalk loss = %v", chaosLoss)
	}
	if rel := math.Abs(chaosLoss-cleanLoss) / cleanLoss; rel > 0.05 {
		t.Fatalf("chaos DeepWalk loss %v vs clean %v: gap %.1f%% too large",
			chaosLoss, cleanLoss, 100*rel)
	}
	rep := engine.Snapshot().Recovery
	if rep.Recoveries < 1 || rep.RestoreBytes <= 0 {
		t.Fatalf("recovery did not run: %+v", rep)
	}
}
