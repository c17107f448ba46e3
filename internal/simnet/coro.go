//go:build go1.23

package simnet

import "iter"

// newWorker creates a worker whose coroutine runs work. iter.Pull starts it
// suspended: the first resume runs the process Spawn gives it. Its stop
// function is not kept: Sim.stop resumes every worker until work returns.
func (s *Sim) newWorker() *worker {
	w := &worker{}
	w.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		w.suspend = yield
		s.work(w)
	})
	return w
}
