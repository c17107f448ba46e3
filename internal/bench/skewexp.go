package bench

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/ml/embedding"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func init() {
	register("ext-skew", "Extension: skew-aware placement — per-server load imbalance under Zipf access across Range / BlockHash / LoadAware, plus hot-parameter replication", runExtSkew)
}

// skewParts is the LR partition count: several tasks per executor so hot
// columns are re-pulled by many concurrent tasks each iteration, the regime
// where the owner of a hot range becomes the straggler.
const skewParts = 32

// runExtSkew measures what the pluggable placement layer buys on a workload
// whose column-access distribution is heavily skewed: Zipf sparse LR over a
// frequency-sorted feature dictionary (ids assigned in popularity order, the
// layout CTR and NLP pipelines commonly produce), so the hottest features
// cluster at the low ids and appear in nearly every task's pull set. The
// default Range placement stripes the dimension contiguously, piling that
// hot prefix onto the first server; BlockHash spreads fixed-size blocks
// pseudorandomly (insensitive to where the hot columns sit, but only
// statistically even); LoadAware bin-packs blocks by a sampled access
// profile, so the hot mass is balanced by construction. The hot-replica arm
// keeps the Range placement but replicates the top-K columns to every
// server, spreading the hot reads over the whole cluster — at staleness 0
// replica reads revalidate against the owner every iteration, so served
// values match owner values exactly.
//
// The dense DeepWalk arm is the control: embedding columns are uniformly
// accessed, so skew-aware placements neither help nor hurt — they cost
// nothing to keep on.
func runExtSkew(o Opts) *Result {
	const servers = 8
	dcfg := data.ClassifyConfig{
		Rows: 4000, Dim: 6000, NnzPerRow: 12, Skew: 1.2,
		NoiseRate: 0.02, WeightNnz: 600, SortedFeatures: true, Seed: 11,
	}
	hotK := 64
	if o.Quick {
		dcfg.Rows, dcfg.Dim, dcfg.WeightNnz = 2000, 3000, 300
		hotK = 32
	}
	ds, err := data.GenerateClassify(dcfg)
	if err != nil {
		panic(err)
	}
	// The sampled column-access profile: how often each feature appears in
	// the dataset. LoadAware placements and the hot-column pick both key off
	// it — in a production system this comes from a profiling prefix of the
	// job; here the generator's output is the profile.
	freq := make([]float64, ds.Config.Dim)
	for _, inst := range ds.Instances {
		for _, idx := range inst.Features.Indices {
			freq[idx]++
		}
	}

	cfg := lr.DefaultConfig()
	cfg.Iterations = 30
	if o.Quick {
		cfg.Iterations = 20
	}
	// Full batch: every task re-pulls its partition's feature set each
	// iteration, so the access profile recurs exactly and per-server load
	// reflects the placement, not sampling noise.
	cfg.BatchFraction = 1.0

	r := &Result{ID: "ext-skew",
		Title:  "Skew-aware placement: per-server load imbalance (max/mean), wall-clock and exactness under Zipf access",
		Header: []string{"workload", "placement", "ops imb", "bytes imb", "max srv MB", "time (s)", "final loss"}}

	type lrArm struct {
		imb, end, loss float64
		replica        ps.ReplicaStats
	}
	runLR := func(mode string, factory ps.PlacementFactory, rcfg *ps.ReplicaConfig) lrArm {
		e := tracedEngine(o, 8, servers)
		e.PS.Placement = factory
		c := cfg
		c.Replicas = rcfg
		var loss float64
		end := e.Run(func(p *simnet.Proc) {
			dataset := rdd.FromSlices(e.RDD, data.Partition(ds.Instances, skewParts)).Cache()
			m, err := lr.Train(p, e, dataset, ds.Config.Dim, c, lr.NewSGD())
			if err != nil {
				panic(err)
			}
			loss = m.Trace.Final()
		})
		load := e.Snapshot().Load
		var maxMB float64
		for _, b := range load.Bytes {
			if b/1e6 > maxMB {
				maxMB = b / 1e6
			}
		}
		r.AddRow("LR-SGD zipf", mode,
			fmt.Sprintf("%.2f", load.OpsImbalance()),
			fmt.Sprintf("%.2f", load.BytesImbalance()),
			maxMB, float64(end), loss)
		return lrArm{imb: load.BytesImbalance(), end: float64(end), loss: loss, replica: e.PS.Replica}
	}

	blockHash := func(dim, n int) (ps.Placement, error) {
		return ps.NewBlockHashPlacement(dim, n, ps.DefaultPlacementBlock, 1)
	}
	loadAware := func(dim, n int) (ps.Placement, error) {
		if dim != len(freq) {
			// Auxiliary matrices with other dimensions (none today) keep the
			// default striping; the profile only describes the feature space.
			return ps.NewPartitioner(dim, n)
		}
		return ps.NewLoadAwarePlacement(dim, n, freq, ps.DefaultPlacementBlock)
	}

	rangeArm := runLR("range (default)", nil, nil)
	bhArm := runLR("blockhash", blockHash, nil)
	laArm := runLR("loadaware", loadAware, nil)
	hot := &ps.ReplicaConfig{HotCols: ps.TopKCols(freq, hotK)}
	repArm := runLR(fmt.Sprintf("range + %d hot replicas s=0", hotK), nil, hot)

	// Control: PS-style DeepWalk. Embedding columns (the dense dimensions of
	// each vertex row) are accessed uniformly, so placement cannot matter.
	gcfg := data.Graph1Like()
	gcfg.Vertices = 1200
	if o.Quick {
		gcfg.Vertices = 800
	}
	g, err := data.GenerateGraph(gcfg)
	if err != nil {
		panic(err)
	}
	pairs := data.RandomWalks(g, data.DefaultWalkConfig())
	dwCfg := embedding.DefaultConfig()
	dwCfg.Mode = embedding.ModePullPush
	dwCfg.Iterations = 8
	if o.Quick {
		dwCfg.Iterations = 4
	}
	runDW := func(mode string, factory ps.PlacementFactory) float64 {
		e := tracedEngine(o, 8, 4)
		e.PS.Placement = factory
		var loss float64
		end := e.Run(func(p *simnet.Proc) {
			prdd := rdd.FromSlices(e.RDD, data.PartitionPairs(pairs, 8)).Cache()
			m, err := embedding.Train(p, e, prdd, g.Vertices(), dwCfg)
			if err != nil {
				panic(err)
			}
			loss = m.Trace.Final()
		})
		load := e.Snapshot().Load
		r.AddRow("PS-DeepWalk", mode,
			fmt.Sprintf("%.2f", load.OpsImbalance()),
			fmt.Sprintf("%.2f", load.BytesImbalance()),
			"-", float64(end), loss)
		return float64(end)
	}
	dwRange := runDW("range (default)", nil)
	dwBH := runDW("blockhash", blockHash)

	r.Note("the frequency-sorted dictionary piles the hot prefix onto range's first stripe: that server carried %.2fx the mean request bytes; loadaware bin-packing cut it to %.2fx and finished %.1f%% sooner (blockhash: %.2fx)",
		rangeArm.imb, laArm.imb, 100*(1-laArm.end/rangeArm.end), bhArm.imb)
	r.Note("loadaware permutes which server owns each column but not the update math: final loss %.6g vs range %.6g (the residual difference is float regrouping from concurrent gradient-push arrival order)",
		laArm.loss, rangeArm.loss)
	rep := repArm.replica
	r.Note("%d replica stores served %d hot reads, %.1f%% from local copies, paying %d owner revalidation round-trips that shipped %d changed values — and staleness 0 kept the model bit-identical to the unreplicated run: %v",
		servers, rep.Reads, 100*float64(rep.LocalHits)/float64(rep.Reads), rep.OwnerFetches, rep.ChangedVals, repArm.loss == rangeArm.loss)
	r.Note("dense DeepWalk is placement-neutral: blockhash finished within %.1f%% of range", 100*absF(dwBH-dwRange)/dwRange)
	return r
}

// absF is a float abs without pulling in math for one call site.
func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
