package ps

import "repro/internal/simnet"

// SSPClock implements the Stale Synchronous Parallel consistency model
// (Petuum's signature protocol) on the coordinator: every worker owns a
// clock it ticks after each iteration, and a worker about to start iteration
// t blocks until every other worker has reached at least t - staleness.
// staleness 0 degenerates to BSP lockstep; a large bound approaches fully
// asynchronous execution. PS2's paper runs BSP (Spark stages are barriers);
// the SSP extension quantifies what bounded staleness buys under stragglers
// (experiment ext-ssp).
//
// The staleness, fixed in NewSSPClock, is SSP training's one freshness knob:
// the gate compares two clocks, and its workers read the model from the
// servers, not through a cache with a policy of its own. Waiters are
// released in insertion order.
type SSPClock struct {
	sim       *simnet.Sim
	staleness int
	clocks    []int
	waiters   []sspWaiter
}

type sspWaiter struct {
	target int
	sig    *simnet.Signal
}

// NewSSPClock creates a clock table for n workers, all at clock 0, under
// which a worker runs at most staleness clocks ahead of the slowest; a
// negative staleness clamps to 0 (BSP lockstep).
func NewSSPClock(sim *simnet.Sim, n, staleness int) *SSPClock {
	if n < 1 {
		panic("ps: SSPClock needs at least one worker")
	}
	return &SSPClock{sim: sim, staleness: max(staleness, 0), clocks: make([]int, n)}
}

// admitted reports whether a worker may start iteration target: no worker is
// more than staleness clocks behind it.
func (c *SSPClock) admitted(target int) bool { return target-c.MinClock() <= c.staleness }

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

// Tick advances worker w's clock by one and wakes every waiter now within
// the bound, in insertion order.
func (c *SSPClock) Tick(w int) {
	c.clocks[w]++
	kept := c.waiters[:0]
	for _, wt := range c.waiters {
		if c.admitted(wt.target) {
			wt.sig.Fire()
			continue
		}
		kept = append(kept, wt)
	}
	c.waiters = kept
}

// Wait blocks the calling process until a worker may start iteration target:
// until the slowest clock is at least target - staleness.
func (c *SSPClock) Wait(p *simnet.Proc, target int) {
	if c.admitted(target) {
		return
	}
	wt := sspWaiter{target: target, sig: c.sim.NewSignal()}
	c.waiters = append(c.waiters, wt)
	wt.sig.Wait(p)
}
