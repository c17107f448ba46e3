package bench

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/embedding"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func init() {
	register("ext-serve", "Extension: online serving tier — snapshot-consistent reads, hot-replica fan-out and admission control under a Zipf inference stream", runExtServe)
}

// serveStream drives an open-loop request stream: one request every gap
// seconds regardless of how earlier requests are doing (the arrival process
// never backs off, so queueing shows up in the tail, as in a real serving
// load test). Requests round-robin over the executors. Latency is virtual
// time from arrival to response, in milliseconds, recorded only for served
// requests; shed requests must carry the typed ErrOverload.
type streamStats struct {
	served, shed int
	lats         []float64
}

func serveStream(p *simnet.Proc, e *core.Engine, reader *ps.ModelReader, n int,
	gap float64, mkReq func(i int) (row int, idx []int)) streamStats {
	var st streamStats
	// One spawned process per request, each waited on individually: a Group
	// would fire its done-signal at any quiet instant between arrivals (its
	// pending count transiently hits zero), dropping late in-flight requests
	// from the tally.
	procs := make([]*simnet.Proc, 0, n)
	for i := 0; i < n; i++ {
		row, idx := mkReq(i)
		from := e.Cluster.Executors[i%len(e.Cluster.Executors)]
		procs = append(procs, p.Sim().Spawn("serve-req", func(cp *simnet.Proc) {
			t0 := cp.Now()
			var err error
			if idx == nil {
				_, err = reader.ReadRow(cp, from, row)
			} else {
				_, err = reader.Read(cp, from, row, idx)
			}
			switch {
			case err == nil:
				st.served++
				st.lats = append(st.lats, float64(cp.Now()-t0)*1e3)
			case errors.Is(err, ps.ErrOverload):
				st.shed++
			default:
				panic(err)
			}
		}))
		p.Sleep(simnet.Time(gap))
	}
	for _, rp := range procs {
		rp.Done().Wait(p)
	}
	if st.served+st.shed != n {
		panic(fmt.Sprintf("bench: serve stream lost requests: %d served + %d shed != %d", st.served, st.shed, n))
	}
	return st
}

// pctile returns the exact q-quantile (order statistic, no interpolation) of
// the latency sample.
func pctile(lats []float64, q float64) float64 {
	if len(lats) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), lats...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// zipfIndices draws nnz distinct Zipf-skewed column ids, sorted — one
// inference request's feature set over a frequency-sorted dictionary.
func zipfIndices(rng *linalg.RNG, dim, nnz int, skew float64) []int {
	seen := make(map[int]bool, nnz)
	out := make([]int, 0, nnz)
	for len(out) < nnz {
		c := rng.Zipf(dim, skew)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// runExtServe measures the serving tier end to end: a trained LR model and a
// trained DeepWalk embedding table answer an open-loop Zipf inference stream
// while the metrics the tier promises are checked — exact p50/p99 virtual
// latency, the fraction of hot reads the replica fan-out keeps off the
// owners, typed overload shedding with class priorities, and snapshot reads
// that stay bit-identical while a push storm is landing.
//
// Arms:
//
//	owner-routed     every read goes to the columns' owners (the baseline)
//	hot-replicas     top-K hot columns served by a rotating replica store
//	mixed favor=serve reads + concurrent push storm; training class sheds first
//	mixed favor=train same storm; serving class sheds first
//	deepwalk rows    full-row embedding lookups (all K columns replicated)
func runExtServe(o Opts) *Result {
	const servers = 8
	dcfg := data.ClassifyConfig{
		Rows: 4000, Dim: 6000, NnzPerRow: 12, Skew: 1.2,
		NoiseRate: 0.02, WeightNnz: 600, SortedFeatures: true, Seed: 11,
	}
	hotK := 64
	nReq := 1200
	if o.Quick {
		dcfg.Rows, dcfg.Dim, dcfg.WeightNnz = 2000, 3000, 300
		hotK = 32
		nReq = 400
	}
	ds, err := data.GenerateClassify(dcfg)
	if err != nil {
		panic(err)
	}
	freq := make([]float64, ds.Config.Dim)
	for _, inst := range ds.Instances {
		for _, idx := range inst.Features.Indices {
			freq[idx]++
		}
	}
	hot := ps.TopKCols(freq, hotK)

	cfg := lr.DefaultConfig()
	cfg.Iterations = 20
	if o.Quick {
		cfg.Iterations = 10
	}
	cfg.BatchFraction = 1.0

	r := &Result{ID: "ext-serve",
		Title:  "Online serving tier: open-loop Zipf inference stream — exact latency percentiles, replica locality, typed overload shedding",
		Header: []string{"arm", "requests", "served", "shed", "hot local %", "p50 (ms)", "p99 (ms)"}}

	const gap = 0.002 // open-loop arrival gap: 500 requests/s of virtual time

	e := tracedEngine(o, 8, servers)
	m := e.PS
	var weights *ps.Matrix
	var wrow int
	var hotLocalPct, snapIdentical, snapTotal float64
	var favorServeTrainShed, favorTrainServeShed uint64
	end := e.Run(func(p *simnet.Proc) {
		dataset := rdd.FromSlices(e.RDD, data.Partition(ds.Instances, skewParts)).Cache()
		model, err := lr.Train(p, e, dataset, ds.Config.Dim, cfg, lr.NewSGD())
		if err != nil {
			panic(err)
		}
		weights = model.Weights.Matrix()
		wrow = model.Weights.Row()
		rng := linalg.NewRNG(23)
		mkReq := func(int) (int, []int) { return wrow, zipfIndices(rng, ds.Config.Dim, dcfg.NnzPerRow, dcfg.Skew) }

		// Arm 1: owner-routed baseline — no replicas, no admission.
		owner, err := ps.NewModelReader(weights, ps.ServeConfig{})
		if err != nil {
			panic(err)
		}
		st := serveStream(p, e, owner, nReq, gap, mkReq)
		r.AddRow("LR owner-routed", nReq, st.served, st.shed, "-", pctile(st.lats, 0.50), pctile(st.lats, 0.99))

		// Arm 2: hot-replica fan-out. The model is frozen between storms, so
		// after each store's first validation every hot read is local.
		hotReader, err := ps.NewModelReader(weights, ps.ServeConfig{Replicas: &ps.ReplicaConfig{HotCols: hot}})
		if err != nil {
			panic(err)
		}
		before := m.Replica
		st = serveStream(p, e, hotReader, nReq, gap, mkReq)
		rep := m.Replica
		hotLocalPct = 100 * float64(rep.LocalHits-before.LocalHits) / float64(rep.Reads-before.Reads)
		r.AddRow("LR hot-replicas", nReq, st.served, st.shed,
			fmt.Sprintf("%.1f%%", hotLocalPct), pctile(st.lats, 0.50), pctile(st.lats, 0.99))

		// Mixed arms: the same serving stream with a concurrent training push
		// storm, under a per-server admission budget sized below the combined
		// offered load. The favored class keeps the full queue bound, the
		// other sheds early with the typed ErrOverload.
		storm := func(sp *simnet.Proc, done *bool) {
			srng := linalg.NewRNG(97)
			for !*done {
				g := sp.Sim().NewGroup()
				for b := 0; b < 24; b++ {
					cols := zipfIndices(srng, ds.Config.Dim, 3, dcfg.Skew)
					vals := make([]float64, len(cols))
					for i := range vals {
						vals[i] = 1e-4
					}
					sv, err := linalg.NewSparse(cols, vals)
					if err != nil {
						panic(err)
					}
					from := e.Cluster.Executors[b%len(e.Cluster.Executors)]
					g.Go("train-push", func(cp *simnet.Proc) {
						// Shed pushes are dropped — exactly what admission
						// promises: bounded queueing, typed refusal.
						if err := weights.PushAdd(cp, from, wrow, sv); err != nil && !errors.Is(err, ps.ErrOverload) {
							panic(err)
						}
					})
				}
				g.Wait(sp)
				weights.TickClock() // the trainer's per-iteration tick
				sp.Sleep(0.004)
			}
		}
		runMixed := func(favor ps.Class) streamStats {
			adm, err := ps.NewAdmissionControl(ps.AdmissionConfig{
				RatePerSec: 800, Burst: 32, MaxQueue: 48, LowQueue: 4, Favor: favor,
			})
			if err != nil {
				panic(err)
			}
			m.SetAdmission(adm)
			done := false
			g := p.Sim().NewGroup()
			g.Go("push-storm", func(sp *simnet.Proc) { storm(sp, &done) })
			var st streamStats
			g.Go("serve-stream", func(cp *simnet.Proc) {
				st = serveStream(cp, e, hotReader, nReq, gap, mkReq)
				done = true
			})
			if favor == ps.ClassServe {
				// Snapshot consistency under fire: a snapshot pinned before
				// the storm keeps serving the pinned bits while pushes land.
				g.Go("snapshot-probe", func(cp *simnet.Proc) {
					snap, err := weights.PinSnapshot(cp)
					if err != nil {
						panic(err)
					}
					defer snap.Close()
					probe := hot[:12]
					base, err := snap.ReadRowIndices(cp, e.Cluster.Executors[0], wrow, probe)
					if err != nil {
						panic(err)
					}
					for !done {
						got, err := snap.ReadRowIndices(cp, e.Cluster.Executors[0], wrow, probe)
						if errors.Is(err, ps.ErrOverload) {
							cp.Sleep(0.01) // shed probe: retry at our own pace
							continue
						}
						if err != nil {
							panic(err)
						}
						snapTotal++
						same := true
						for k := range base {
							if got[k] != base[k] {
								same = false
							}
						}
						if same {
							snapIdentical++
						}
						cp.Sleep(0.02)
					}
				})
			}
			g.Wait(p)
			m.SetAdmission(nil)
			return st
		}

		shedBase := m.Serve
		st = runMixed(ps.ClassServe)
		favorServeTrainShed = m.Serve.ShedTrain - shedBase.ShedTrain
		r.AddRow("LR mixed favor=serve", nReq, st.served, st.shed, "-", pctile(st.lats, 0.50), pctile(st.lats, 0.99))

		shedBase = m.Serve
		st = runMixed(ps.ClassTrain)
		favorTrainServeShed = m.Serve.ShedServe - shedBase.ShedServe
		r.AddRow("LR mixed favor=train", nReq, st.served, st.shed, "-", pctile(st.lats, 0.50), pctile(st.lats, 0.99))
	})

	// Arm 5: embedding lookups — DeepWalk input vectors served as full rows,
	// every one of the K columns replicated, vertices drawn Zipf.
	gcfg := data.Graph1Like()
	gcfg.Vertices = 1200
	nDW := 800
	if o.Quick {
		gcfg.Vertices = 800
		nDW = 300
	}
	g, err := data.GenerateGraph(gcfg)
	if err != nil {
		panic(err)
	}
	pairs := data.RandomWalks(g, data.DefaultWalkConfig())
	dwCfg := embedding.DefaultConfig()
	dwCfg.Mode = embedding.ModePullPush
	dwCfg.Iterations = 6
	if o.Quick {
		dwCfg.Iterations = 3
	}
	e2 := tracedEngine(o, 8, 4)
	var dwLocalPct float64
	var dwStats streamStats
	e2.Run(func(p *simnet.Proc) {
		prdd := rdd.FromSlices(e2.RDD, data.PartitionPairs(pairs, 8)).Cache()
		model, err := embedding.Train(p, e2, prdd, g.Vertices(), dwCfg)
		if err != nil {
			panic(err)
		}
		allK := make([]int, model.K)
		for i := range allK {
			allK[i] = i
		}
		reader, err := ps.NewModelReader(model.Mat, ps.ServeConfig{Replicas: &ps.ReplicaConfig{HotCols: allK}})
		if err != nil {
			panic(err)
		}
		rng := linalg.NewRNG(41)
		before := e2.PS.Replica
		dwStats = serveStream(p, e2, reader, nDW, gap,
			func(int) (int, []int) { return rng.Zipf(model.V, 1.0), nil })
		rep := e2.PS.Replica
		dwLocalPct = 100 * float64(rep.LocalHits-before.LocalHits) / float64(rep.Reads-before.Reads)
	})
	r.AddRow("DeepWalk rows", nDW, dwStats.served, dwStats.shed,
		fmt.Sprintf("%.1f%%", dwLocalPct), pctile(dwStats.lats, 0.50), pctile(dwStats.lats, 0.99))

	r.Note("hot-replica fan-out served %.1f%% of hot reads from local replica stores (target ≥70%%): the owners of the hot prefix stop being the serving bottleneck", hotLocalPct)
	r.Note("snapshot pinned before the push storm stayed bit-identical in %.0f of %.0f reads while training pushes kept landing (copy-on-write pre-images, no bulk copy)", snapIdentical, snapTotal)
	r.Note("admission favor=serve shed %d training pushes and favor=train shed %d serving reads — the unfavored class sheds first, always with the typed ErrOverload, never by unbounded queueing", favorServeTrainShed, favorTrainServeShed)
	r.Note("serving ran against the live engine after %d LR iterations (%.1fs virtual); total snapshot fences %d, max admission queue depth %d",
		cfg.Iterations, float64(end), m.Serve.SnapshotFences, m.Serve.MaxQueueDepth)
	return r
}
