package baselines

import (
	"errors"

	"repro/internal/core"
	"repro/internal/dcv"
	"repro/internal/ml/lr"
	"repro/internal/simnet"
)

// pullPush runs an optimizer on the parameter servers without server-side
// computation: the paper's "PS-Adam" (Figure 9(a)/(b)) when the optimizer is
// lr.Adam. The vectors live on the same servers PS2 uses and the kernel is
// the one PS2 zips there; only the update step's communication differs.
type pullPush struct{ lr.Optimizer }

// PullPush returns opt as a pull/push-only optimizer for lr.Train, so the
// training loop is byte-for-byte the one PS2 runs with opt.
func PullPush(opt lr.Optimizer) lr.Stepper { return pullPush{opt} }

func (pp pullPush) Name() string { return "PullPush" + pp.Optimizer.Name() }

// Step performs the pull/push-only realization of equation (1), matching the
// paper's description word for word: each worker "has to pull the gradient
// as well as the model onto each worker, update the model and push the model
// back". Every worker redundantly pulls the weight, the auxiliary vectors and
// the gradient in full, runs the kernel locally, and writes the weight and
// auxiliary vectors back — for Adam 7 full-vector transfers per worker per
// iteration, against PS2's scalar-only zip. The writes are idempotent (every
// worker computes identical values), so the redundancy costs bandwidth, not
// correctness.
func (pp pullPush) Step(p *simnet.Proc, e *core.Engine, vecs []*dcv.Vector, iter, batchSize int) error {
	update := pp.Update(iter, batchSize)
	cost := e.Cluster.Cost

	g := p.Sim().NewGroup()
	errs := make([]error, len(e.Cluster.Executors))
	for x, exec := range e.Cluster.Executors {
		g.Go("pullpush-update", func(cp *simnet.Proc) {
			rows := make([][]float64, len(vecs))
			for i, v := range vecs {
				if rows[i], errs[x] = v.Matrix().PullRow(cp, exec, v.Row()); errs[x] != nil {
					return
				}
			}
			exec.Compute(cp, cost.ElemWork((len(vecs)-1)*len(rows[0])))
			update(0, rows)
			for i, v := range vecs[:len(vecs)-1] {
				if errs[x] = v.Set(cp, exec, rows[i]); errs[x] != nil {
					return
				}
			}
		})
	}
	g.Wait(p)
	return errors.Join(errs...)
}
