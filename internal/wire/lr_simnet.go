package wire

// The simnet twin of the wire LR job: the same runLRLoop driven through the
// simulated parameter server, so a real-TCP run has a deterministic
// reference trajectory to be checked against. The two arms share batch
// selection, the batch index with its weight-aligned pull and gradient, and
// update order; only the bytes-mover differs — which is exactly the claim the
// transport seam makes. Here a round is the three calls in sequence, and the
// aligned pull is one PullRowIndices copied into the loop's weight slice.

import (
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// simnetStore drives the shared loop through a ps.Matrix on virtual time.
type simnetStore struct {
	p      *simnet.Proc
	m      *ps.Master
	worker *simnet.Node
	mat    *ps.Matrix
}

func (st *simnetStore) create(rows, dim int) error {
	mat, err := st.m.CreateMatrix(st.p, rows, dim)
	if err != nil {
		return err
	}
	st.mat = mat
	return nil
}

// round makes the wire round's three calls in sequence: push, step, then
// the next batch's pull, copied into its aligned weight slice; then it turns
// b, as the wire round does.
func (st *simnetStore) round(step *lrStep, b *lrBatches) error {
	if step != nil {
		sv, err := linalg.NewSparse(step.cols, step.vals)
		if err != nil {
			return err
		}
		if err := st.mat.PushAdd(st.p, st.worker, rowGrad, sv); err != nil {
			return err
		}
		if err := st.step(step.scale); err != nil {
			return err
		}
	}
	if cols, w, ok := b.ahead(); ok {
		vals, err := st.mat.PullRowIndices(st.p, st.worker, rowWeight, cols, nil)
		if err != nil {
			return err
		}
		copy(w, vals)
	}
	b.turn()
	return nil
}

// step applies w += scale·grad and zeroes grad as one fused invocation.
func (st *simnetStore) step(scale float64) error {
	cost := st.m.Cl.Cost
	ops := []ps.InvokeOp{
		{
			// w += scale·grad: two rows touched per element, priced like
			// dcv's fused Axpy.
			ReqBytes:  24,
			Work:      func(w int) float64 { return cost.FlopsPerElem * float64(w) * 2 },
			Mutates:   true,
			DirtyRows: []int{rowWeight},
			Fn: func(_ int, sh *ps.Shard) float64 {
				dst, src := sh.Rows[rowWeight], sh.Rows[rowGrad]
				for i := range dst {
					dst[i] += scale * src[i]
				}
				return 0
			},
		},
		{
			ReqBytes:  24,
			Work:      func(w int) float64 { return cost.FlopsPerElem * float64(w) },
			Mutates:   true,
			DirtyRows: []int{rowGrad},
			Fn: func(_ int, sh *ps.Shard) float64 {
				row := sh.Rows[rowGrad]
				for i := range row {
					row[i] = 0
				}
				return 0
			},
		},
	}
	_, err := st.mat.Invoke(st.p, st.worker, ops...)
	return err
}

// weights pulls the whole row, as the reference arm always has, so its
// virtual time and call counts stay those of a full-row read.
func (st *simnetStore) weights(cols []int, w []float64) error {
	row, err := st.mat.PullRow(st.p, st.worker, rowWeight)
	if err != nil {
		return err
	}
	for k, c := range cols {
		w[k] = row[c]
	}
	return nil
}

// SimnetLRRun is the reference arm's outcome: the shared-loop result plus
// the simulated cluster's clock and RPC accounting, which
// `ps2worker -compare-simnet` prints beside the TCP run it checks.
type SimnetLRRun struct {
	Result   *LRResult
	WallSec  float64 // virtual seconds the run took
	Calls    uint64  // logical shard calls
	Attempts uint64
}

// RunLRSimnet trains the same LR job on a simulated cluster with the given
// server count and returns the trajectory plus virtual-time accounting.
func RunLRSimnet(cfg LRConfig, servers int) (*SimnetLRRun, error) {
	cfg = cfg.withDefaults()
	ds, err := data.GenerateClassify(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	sim := simnet.New()
	ccfg := cluster.DefaultConfig()
	ccfg.Executors = 1
	ccfg.Servers = servers
	cl := cluster.New(sim, ccfg)
	m := ps.NewMaster(cl)

	run := &SimnetLRRun{}
	var loopErr error
	sim.Spawn("wire-ref-worker", func(p *simnet.Proc) {
		st := &simnetStore{p: p, m: m, worker: cl.Executors[0]}
		run.Result, loopErr = runLRLoop(st, ds, cfg)
	})
	sim.Run()
	if loopErr != nil {
		return nil, loopErr
	}
	run.WallSec = float64(sim.Now())
	run.Calls = m.Net.Calls
	run.Attempts = m.Net.Attempts
	return run, nil
}
