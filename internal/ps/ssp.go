package ps

import (
	"repro/internal/consistency"
	"repro/internal/simnet"
)

// SSPClock implements the Stale Synchronous Parallel consistency model
// (Petuum's signature protocol) on the coordinator: every worker owns a
// clock it ticks after each iteration, and a worker about to start iteration
// t blocks until every other worker has reached at least t - staleness.
// staleness 0 degenerates to BSP lockstep; a large bound approaches fully
// asynchronous execution. PS2's paper runs BSP (Spark stages are barriers);
// the SSP extension quantifies what bounded staleness buys under stragglers
// (experiment ext-ssp).
//
// The admission question SSP asks — "is the slowest clock close enough to
// mine?" — is the same question the worker cache and replica layers ask of a
// cached value, so the wait gate delegates to a consistency.Policy: a waiter
// is admitted once Admit({CachedClock: MinClock, CurrentClock: target}) says
// ServeCached. ClockBounded(s) is classic SSP — worker w about to run
// iteration iter waits until iter - MinClock <= s — and waiters are released
// in insertion order.
type SSPClock struct {
	sim     *simnet.Sim
	clocks  []int
	waiters []*sspWaiter
}

type sspWaiter struct {
	pol    consistency.Policy
	target int
	sig    *simnet.Signal
}

// admitted reports whether the policy clears a waiter for target given the
// current minimum clock. Decision counters are deliberately not bumped here:
// SSP admission is a scheduling gate, not a cached-value read.
func (c *SSPClock) admitted(pol consistency.Policy, target int) bool {
	m := consistency.Meta{CachedClock: int64(c.MinClock()), CurrentClock: int64(target)}
	return pol.Admit(m) == consistency.ServeCached
}

// NewSSPClock creates a clock table for n workers, all at clock 0.
func NewSSPClock(sim *simnet.Sim, n int) *SSPClock {
	if n < 1 {
		panic("ps: SSPClock needs at least one worker")
	}
	return &SSPClock{sim: sim, clocks: make([]int, n)}
}

// Clock returns worker w's current clock.
func (c *SSPClock) Clock(w int) int { return c.clocks[w] }

// Workers returns the number of tracked workers.
func (c *SSPClock) Workers() int { return len(c.clocks) }

// MinClock returns the slowest worker's clock.
func (c *SSPClock) MinClock() int {
	min := c.clocks[0]
	for _, v := range c.clocks[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Tick advances worker w's clock by one and wakes any waiter whose policy now
// admits it, in insertion order.
func (c *SSPClock) Tick(w int) {
	c.clocks[w]++
	kept := c.waiters[:0]
	for _, wt := range c.waiters {
		if c.admitted(wt.pol, wt.target) {
			wt.sig.Fire()
			continue
		}
		kept = append(kept, wt)
	}
	c.waiters = kept
}

// WaitPolicy blocks the calling process until pol admits target against the
// minimum clock — the policy-generalized SSP gate. A clock-bounded policy
// reproduces classic SSP; note that value-bounded policies make the gate's
// admission depend only on what they can see here (clocks), so Meta's delta
// fields stay zero and a pure ValueBounded policy never blocks.
func (c *SSPClock) WaitPolicy(p *simnet.Proc, pol consistency.Policy, target int) {
	if c.admitted(pol, target) {
		return
	}
	wt := &sspWaiter{pol: pol, target: target, sig: c.sim.NewSignal()}
	c.waiters = append(c.waiters, wt)
	wt.sig.Wait(p)
}
