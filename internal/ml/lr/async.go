package lr

import (
	"fmt"
	"math"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// AsyncConfig configures SSP training (the extension beyond the paper's BSP
// execution; see internal/ps.SSPClock).
type AsyncConfig struct {
	Config
	// Staleness bounds how many clocks apart the fastest and slowest worker
	// may drift: 0 is BSP lockstep, large values approach fully async.
	Staleness int
}

// AsyncModel is the result of SSP training. TrainAsync returns it as soon as
// the workers are spawned; call Wait to block until every worker finishes its
// iteration budget, or stop the simulation early (simnet.RunUntil) and read
// the model state wherever training got to — the pattern the ext-ssp
// experiment uses to measure progress at a fixed wall-clock budget.
type AsyncModel struct {
	Weights *ps.Matrix
	Clock   *ps.SSPClock
	Trace   *core.Trace // mean batch loss indexed by global clock

	group *simnet.Group
}

// Wait blocks until every worker has finished its iterations.
func (m *AsyncModel) Wait(p *simnet.Proc) { m.group.Wait(p) }

// UpdatesApplied returns the total number of worker iterations completed so
// far (the sum of all SSP clocks).
func (m *AsyncModel) UpdatesApplied() int {
	total := 0
	for w := 0; w < m.workers(); w++ {
		total += m.Clock.Clock(w)
	}
	return total
}

func (m *AsyncModel) workers() int { return m.Clock.Workers() }

// TrainAsync trains LR under the Stale Synchronous Parallel model: one
// long-lived process per executor loops over its own partition's
// mini-batches, gated only by the SSP clock — no per-iteration Spark stage
// barrier. Updates are applied server-side as scaled increments. With a
// straggling executor, bounded staleness lets fast workers run ahead instead
// of idling at a barrier.
func TrainAsync(p *simnet.Proc, e *core.Engine, parts [][]data.Instance, dim int, cfg AsyncConfig) (*AsyncModel, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("lr: iterations must be positive")
	}
	if len(parts) == 0 || len(parts) > len(e.Cluster.Executors) {
		return nil, fmt.Errorf("lr: need 1..%d partitions, got %d", len(e.Cluster.Executors), len(parts))
	}
	mat, err := e.PS.CreateMatrix(p, 1, dim)
	if err != nil {
		return nil, err
	}
	clock := ps.NewSSPClock(p.Sim(), len(parts))
	// The SSP bound: worker w may start iteration it once no worker is more
	// than cfg.Staleness clocks behind it (0 is BSP lockstep).
	bound := consistency.NewClockBounded(cfg.Staleness)
	cost := e.Cluster.Cost

	// Optional worker-side cache: each SSP worker's cache clock ticks with
	// its own SSPClock entry. Unless Config.Cache names a policy the cache
	// rides the SSP bound — a weight cached at a worker's clock c may reflect
	// updates no older than the clock gate already admits.
	var cache *ps.CachedClient
	if cfg.Cache != nil {
		ccfg := *cfg.Cache
		if ccfg.Policy == nil {
			ccfg.Policy = bound
		}
		cache = ps.NewCachedClient(mat, ccfg)
	}

	lossByClock := make([]float64, cfg.Iterations)
	countByClock := make([]int, cfg.Iterations)

	model := &AsyncModel{Weights: mat, Clock: clock}
	g := p.Sim().NewGroup()
	model.group = g
	for w := range parts {
		w := w
		node := e.Cluster.Executors[w]
		rows := parts[w]
		g.Go(fmt.Sprintf("ssp-worker-%d", w), func(wp *simnet.Proc) {
			rng := linalg.NewRNG(cfg.Seed*13 + uint64(w))
			var buf *ps.PushBuffer
			if cache != nil && cfg.Cache.CombinePushes {
				buf = cache.NewPushBuffer()
			}
			var bi BatchIndex
			var grad []float64
			for it := 0; it < cfg.Iterations; it++ {
				clock.WaitPolicy(wp, bound, it)
				// Sample this worker's mini-batch.
				batch := sampleRows(rows, cfg.BatchFraction, rng)
				if len(batch) > 0 {
					bi.Build(batch)
					var vals []float64
					if cache != nil {
						vals = ps.Must(cache.PullRowIndices(wp, node, 0, bi.Indices))
					} else {
						vals = ps.Must(mat.PullRowIndices(wp, node, 0, bi.Indices))
					}
					grad = fit(grad, len(bi.Indices))
					lossSum := bi.Gradient(cfg.Objective, batch, vals, grad)
					node.Compute(wp, cost.GradWork(TotalNnz(batch)))
					// Apply the scaled update directly (async increment).
					eta := cfg.LearningRate / math.Sqrt(float64(it+1)) / float64(len(batch)) / float64(len(parts))
					idx, g := bi.Sparse(grad)
					linalg.Scale(-eta, g)
					sv := &linalg.SparseVector{Indices: idx, Values: g}
					if buf != nil {
						ps.MustOK(buf.Add(0, sv))
						ps.MustOK(buf.Flush(wp, node))
					} else {
						ps.MustOK(mat.PushAdd(wp, node, 0, sv))
					}
					lossByClock[it] += lossSum
					countByClock[it] += len(batch)
				}
				clock.Tick(w)
				if cache != nil {
					cache.TickNode(node)
				}
			}
		})
	}
	// Note: TrainAsync does NOT wait; the workers run concurrently with the
	// caller (use model.Wait). A separate observer process fills the trace
	// once the workers finish.
	trace := &core.Trace{Name: fmt.Sprintf("SSP-%d", cfg.Staleness)}
	model.Trace = trace
	p.Sim().Spawn("ssp-trace", func(tp *simnet.Proc) {
		g.Wait(tp)
		for it := 0; it < cfg.Iterations; it++ {
			if countByClock[it] > 0 {
				trace.Add(float64(it), lossByClock[it]/float64(countByClock[it]))
			}
		}
	})
	return model, nil
}

// sampleRows Bernoulli-samples a slice of instances.
func sampleRows(rows []data.Instance, fraction float64, rng *linalg.RNG) []data.Instance {
	if fraction >= 1 {
		return rows
	}
	out := make([]data.Instance, 0, int(float64(len(rows))*fraction)+1)
	for _, r := range rows {
		if rng.Float64() < fraction {
			out = append(out, r)
		}
	}
	return out
}

// FinalWeights pulls the trained async model to the caller.
func (m *AsyncModel) FinalWeights(p *simnet.Proc, from *simnet.Node) ([]float64, error) {
	return m.Weights.PullRow(p, from, 0)
}
