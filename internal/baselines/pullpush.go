package baselines

import (
	"repro/internal/core"
	"repro/internal/dcv"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// PullPushAdam is the paper's "PS-Adam" (Figure 9(a)/(b)): it runs on the
// same parameter servers as PS2-Adam but without server-side computation.
// After the gradient push, the driver must pull all four model vectors, run
// the Adam update locally, and push the three mutated vectors back — full
// dense vector traffic every iteration, against PS2's scalar-only zip.
// It implements lr.Optimizer, so the training loop is byte-for-byte the one
// PS2-Adam uses; only the update step's communication differs.
type PullPushAdam struct {
	// Adam holds the hyperparameters, the auxiliary vectors and the update
	// kernel PS2-Adam runs on the servers.
	Adam *lr.Adam
}

// NewPullPushAdam returns PS-Adam with the paper's hyperparameters.
func NewPullPushAdam() *PullPushAdam { return &PullPushAdam{Adam: lr.NewAdam()} }

func (a *PullPushAdam) Name() string { return "PullPushAdam" }

func (a *PullPushAdam) AuxVectors() int { return 2 }

// Init derives the same auxiliary vectors PS2-Adam derives.
func (a *PullPushAdam) Init(p *simnet.Proc, e *core.Engine, w *dcv.Vector) error {
	return a.Adam.Init(p, e, w)
}

// Step performs the pull/push-only realization of equation (1), matching the
// paper's description word for word: each worker "has to pull the gradient
// as well as the model onto each worker, update the model and push the model
// back". Every worker redundantly pulls all four full vectors, runs Adam
// locally, and writes the three mutated vectors back — 7 full-vector
// transfers per worker per iteration, against PS2's scalar-only zip. The
// writes are idempotent (every worker computes identical values), so the
// redundancy costs bandwidth, not correctness.
func (a *PullPushAdam) Step(p *simnet.Proc, e *core.Engine, w, grad *dcv.Vector, iter, batchSize int) error {
	update := a.Adam.Update(iter, batchSize)
	velocity, square := a.Adam.Moments()
	cost := e.Cluster.Cost

	g := p.Sim().NewGroup()
	for _, exec := range e.Cluster.Executors {
		g.Go("ps-adam-update", func(cp *simnet.Proc) {
			wv := w.Pull(cp, exec)
			vv := velocity.Pull(cp, exec)
			sv := square.Pull(cp, exec)
			gv := grad.Pull(cp, exec)
			exec.Compute(cp, cost.ElemWork(3*len(wv)))
			update(0, [][]float64{wv, vv, sv, gv})
			ps.MustOK(w.Set(cp, exec, wv))
			ps.MustOK(velocity.Set(cp, exec, vv))
			ps.MustOK(square.Set(cp, exec, sv))
		})
	}
	g.Wait(p)
	return nil
}

var _ lr.Optimizer = (*PullPushAdam)(nil)
