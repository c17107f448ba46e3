package bench

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/simnet"
)

func init() {
	register("ext-elastic", "Extension: elastic membership — epoch-fenced live shard migration under a drifting-Zipf workload: 4→8 scale-out, 8→4 scale-in, and phase rebalancing vs static placements", runExtElastic)
}

// elasticWorkload is the drifting-Zipf access schedule every arm replays
// identically: each iteration, every task pulls and pushes a Zipf-skewed
// column set centred on a hot window that jumps across the dimension at
// every phase boundary. The drift is what static placements cannot follow —
// a profile taken in the first phase is wrong by the last — and the narrow
// hot mass is what block hashing spreads only statistically.
type elasticWorkload struct {
	Dim    int // matrix dimension (one weight row)
	Iters  int // BSP iterations
	Tasks  int // concurrent tasks per iteration
	K      int // columns pulled/pushed per task
	Phases int // equal phases; elastic arms act at phase boundaries
}

// elasticSpread bounds hot offsets to ±spread of the drifting center.
const elasticSpread = 192

func elasticScale(o Opts) elasticWorkload {
	if o.Quick {
		return elasticWorkload{Dim: 4000, Iters: 120, Tasks: 16, K: 1200, Phases: 4}
	}
	return elasticWorkload{Dim: 8000, Iters: 160, Tasks: 16, K: 1200, Phases: 4}
}

// mix64 is the splitmix64 finalizer, the deterministic hash the chaos layer
// and block-hash placement already use for seed expansion.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// center returns the hot-window center at iteration t: constant within a
// phase, jumping a quarter of the dimension at every boundary, so a profile
// of one phase predicts that phase exactly and says nothing about the next.
func (w elasticWorkload) center(t int) int {
	phase := t / (w.Iters / w.Phases)
	if phase >= w.Phases {
		phase = w.Phases - 1
	}
	span := w.Dim - 2*elasticSpread
	return elasticSpread + phase*span/(w.Phases-1)
}

// cols returns task k's column set at iteration t, strictly ascending. Draws
// are uniform across the window with every fourth doubling down near the
// center (u²·spread — the Zipf head whose hottest columns recur in every
// task's set), with the sign and magnitude both splitmix-derived so every
// arm replays the same schedule.
func (w elasticWorkload) cols(t, task int) []int {
	out := make([]int, 0, w.K)
	c0 := w.center(t)
	for j := 0; j < w.K; j++ {
		h := mix64(uint64(t)<<40 ^ uint64(task)<<20 ^ uint64(j))
		u := float64(h>>11) / (1 << 53)
		off := int(u * elasticSpread)
		if j&3 == 0 {
			off = int(u * u * elasticSpread)
		}
		if h&1 == 1 {
			off = -off
		}
		c := c0 + off
		if c < 0 {
			c = 0
		}
		if c >= w.Dim {
			c = w.Dim - 1
		}
		out = append(out, c)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// elasticSchedule is the whole run's access schedule, drawn once per
// experiment: [t][k] is cols(t, k). Every arm and every profile replays it.
type elasticSchedule [][][]int

func (w elasticWorkload) schedule() elasticSchedule {
	sched := make(elasticSchedule, w.Iters)
	for t := range sched {
		sched[t] = make([][]int, w.Tasks)
		for k := range sched[t] {
			sched[t][k] = w.cols(t, k)
		}
	}
	return sched
}

// profile returns the exact per-column access counts of iterations
// [from, to) of a dim-wide matrix — the load profile a production master
// would accumulate in per-column counters; here the schedule is
// deterministic so the counts are reproduced instead of sampled.
func (sched elasticSchedule) profile(dim, from, to int) []float64 {
	weight := make([]float64, dim)
	for _, tasks := range sched[from:to] {
		for _, cols := range tasks {
			for _, c := range cols {
				weight[c]++
			}
		}
	}
	return weight
}

// elasticArmResult is one arm's observations, consumed by the table renderer.
type elasticArmResult struct {
	Name       string
	EndSec     float64
	Final      []float64
	Migrations int
	MovedMB    float64
	GateSec    float64
	BytesImb   float64
}

// elasticHook runs at each phase boundary (boundary = 1..Phases-1) with the
// first iteration of the new phase; elastic arms re-profile and migrate here.
type elasticHook func(p *simnet.Proc, e *core.Engine, mat *ps.Matrix, boundary, firstIter int)

// runElasticArm replays the workload on one cluster/placement policy. All
// pushes carry integer deltas, so final values are placement-independent and
// the table's exact column compares them bit-wise against the oracle.
func runElasticArm(o Opts, w elasticWorkload, sched elasticSchedule, name string, bootServers int,
	initial ps.Placement, hook elasticHook) elasticArmResult {
	e := tracedEngine(o, 8, bootServers)
	res := elasticArmResult{Name: name}
	end := e.Run(func(p *simnet.Proc) {
		m := e.PS
		mat, err := m.CreateMatrixPlaced(p, 1, w.Dim, initial)
		if err != nil {
			panic(err)
		}
		perPhase := w.Iters / w.Phases
		for t := 0; t < w.Iters; t++ {
			if hook != nil && t > 0 && t%perPhase == 0 {
				hook(p, e, mat, t/perPhase, t)
			}
			g := p.Sim().NewGroup()
			for k := 0; k < w.Tasks; k++ {
				k := k
				g.Go("task", func(cp *simnet.Proc) {
					node := e.Cluster.Executors[k%len(e.Cluster.Executors)]
					cols := sched[t][k]
					if _, err := mat.PullRowIndices(cp, node, 0, cols); err != nil {
						panic(err)
					}
					ones := make([]float64, len(cols))
					for i := range ones {
						ones[i] = 1
					}
					sv, err := linalg.NewSparse(cols, ones)
					if err != nil {
						panic(err)
					}
					if err := mat.PushAdd(cp, node, 0, sv); err != nil {
						panic(err)
					}
				})
			}
			g.Wait(p)
		}
		if res.Final, err = mat.PullRow(p, e.Driver(), 0); err != nil {
			panic(err)
		}
	})
	snap := e.Snapshot()
	res.EndSec = float64(end)
	res.Migrations = snap.Migration.Migrations
	res.MovedMB = snap.Migration.MovedMB()
	res.GateSec = snap.Migration.GateClosedSec
	res.BytesImb = snap.Load.BytesImbalance()
	return res
}

// elasticLoadAware builds a load-aware placement from a phase profile with a
// block size fine enough to split the narrow hot mass across servers.
func elasticLoadAware(w elasticWorkload, n int, weight []float64) ps.Placement {
	pl, err := ps.NewLoadAwarePlacement(w.Dim, n, weight, ps.DefaultPlacementBlock)
	if err != nil {
		panic(err)
	}
	return pl
}

// rebalanceHook re-profiles the upcoming phase and CAS-migrates the matrix
// onto a fresh load-aware placement over n servers. A no-op migration (the
// packing did not change) is fine; a genuine failure, an abort included, is a
// bench bug and panics the run.
func rebalanceHook(w elasticWorkload, sched elasticSchedule, n int) elasticHook {
	perPhase := w.Iters / w.Phases
	return func(p *simnet.Proc, e *core.Engine, mat *ps.Matrix, _, firstIter int) {
		target := elasticLoadAware(w, n, sched.profile(w.Dim, firstIter, firstIter+perPhase))
		if err := e.PS.MigrateMatrix(p, mat, target, mat.Part.Fingerprint()); err != nil {
			panic(err)
		}
	}
}

// runExtElastic renders the elastic-membership experiment: virtual
// completion time, per-server load imbalance and migration accounting for
// static placements vs live rebalancing, scale-out and scale-in.
func runExtElastic(o Opts) *Result {
	w := elasticScale(o)
	sched := w.schedule()
	perPhase := w.Iters / w.Phases
	profile0 := sched.profile(w.Dim, 0, perPhase) // the "profiling prefix" statics key off
	// The expected final row: every push adds exactly 1 to each of its
	// columns, so the oracle is the whole run's access count — integral,
	// hence order-independent and bit-exact under any placement or migration.
	want := sched.profile(w.Dim, 0, w.Iters)

	mustRange := func(n int) ps.Placement {
		pl, err := ps.NewPartitioner(w.Dim, n)
		if err != nil {
			panic(err)
		}
		return pl
	}
	mustBH := func(n int) ps.Placement {
		pl, err := ps.NewBlockHashPlacement(w.Dim, n, ps.DefaultPlacementBlock, 1)
		if err != nil {
			panic(err)
		}
		return pl
	}

	arms := []elasticArmResult{
		runElasticArm(o, w, sched, "static range ×4", 4, mustRange(4), nil),
		runElasticArm(o, w, sched, "static blockhash ×4", 4, mustBH(4), nil),
		runElasticArm(o, w, sched, "static loadaware ×4", 4, elasticLoadAware(w, 4, profile0), nil),
		runElasticArm(o, w, sched, "rebalance ×4", 4, elasticLoadAware(w, 4, profile0),
			rebalanceHook(w, sched, 4)),
		// Scale-out: join 4 servers at the first boundary, then rebalance onto
		// all 8 each phase — the placement migration rides the same protocol
		// whether or not membership changed.
		runElasticArm(o, w, sched, "elastic 4→8", 4, elasticLoadAware(w, 4, profile0),
			func(p *simnet.Proc, e *core.Engine, mat *ps.Matrix, boundary, firstIter int) {
				if boundary == 1 {
					if err := e.PS.AddServers(p, 4); err != nil {
						panic(err)
					}
				}
				rebalanceHook(w, sched, 8)(p, e, mat, boundary, firstIter)
			}),
		// Scale-in: shrink the placement at the first boundary, retire the
		// emptied machines, keep rebalancing on the survivors.
		runElasticArm(o, w, sched, "elastic 8→4", 8, elasticLoadAware(w, 8, profile0),
			func(p *simnet.Proc, e *core.Engine, mat *ps.Matrix, boundary, firstIter int) {
				rebalanceHook(w, sched, 4)(p, e, mat, boundary, firstIter)
				if boundary == 1 {
					if err := e.PS.RemoveServers(p, 4); err != nil {
						panic(err)
					}
				}
			}),
	}

	r := &Result{ID: "ext-elastic",
		Title:  "Elastic membership: drifting-Zipf workload under static placements vs live migration (rebalance, 4→8 scale-out, 8→4 scale-in)",
		Header: []string{"arm", "time (s)", "bytes imb", "migrations", "moved MB", "gate closed (µs)", "exact"}}

	exact := func(a elasticArmResult) bool { return slices.Equal(a.Final, want) }
	byName := map[string]elasticArmResult{}
	for _, a := range arms {
		byName[a.Name] = a
		r.AddRow(a.Name, a.EndSec, fmt.Sprintf("%.2f", a.BytesImb),
			a.Migrations, a.MovedMB, fmt.Sprintf("%.1f", 1e6*a.GateSec),
			fmt.Sprint(exact(a)))
	}
	stat, reb := byName["static loadaware ×4"], byName["rebalance ×4"]
	out, rng := byName["elastic 4→8"], byName["static range ×4"]
	r.Note("the hot window drifts out of the profiling prefix: static loadaware decays to %.2fx bytes imbalance while per-phase rebalancing holds %.2fx and finishes %.1f%% sooner (%d migrations, %.1f MB moved, gate closed %.0f µs total)",
		stat.BytesImb, reb.BytesImb, 100*(1-reb.EndSec/stat.EndSec), reb.Migrations, reb.MovedMB, 1e6*reb.GateSec)
	r.Note("4→8 scale-out under load cuts completion time %.1f%% vs the static 4-server run (%.1fx vs range ×4) with training never paused longer than the cutover deltas: %.0f µs of gate time across %d migrations",
		100*(1-out.EndSec/stat.EndSec), rng.EndSec/out.EndSec, 1e6*out.GateSec, out.Migrations)
	in := byName["elastic 8→4"]
	r.Note("8→4 scale-in drains the retired half onto the survivors mid-run (%.1f MB moved) and still finishes exactly: every arm's final row equals the access-count oracle bit-for-bit",
		in.MovedMB)
	return r
}
