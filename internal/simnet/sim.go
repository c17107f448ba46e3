// Package simnet provides a deterministic discrete-event simulation kernel
// with virtual time, cooperative processes, FIFO resources, signals,
// mailboxes, and a simple store-and-forward network model.
//
// The kernel is the substrate for the PS2 reproduction: the mini-Spark engine
// (internal/rdd) and the parameter server (internal/ps) run their drivers,
// executors and servers as simnet processes, so communication costs (driver
// in-cast, parallel server service, AllReduce rings) fall out of the queueing
// behaviour of simulated NICs rather than being hard-coded formulas.
//
// Determinism: events are ordered by (time, sequence number); processes only
// run one at a time and hand control back to the scheduler explicitly, so a
// simulation with seeded randomness produces bit-identical results on every
// run.
package simnet

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/obs"
)

// Time is virtual time in seconds since the start of the simulation.
type Time = float64

// errStopped is panicked inside blocked processes to unwind them when the
// simulation shuts down. It never escapes the kernel.
type stopUnwind struct{}

// Sim is a discrete-event simulation. The zero value is not usable; create
// one with New.
type Sim struct {
	now       Time
	events    eventHeap
	seq       uint64
	sched     chan struct{} // signalled by a process when it yields control
	live      []*Proc       // processes that have started and not yet finished
	stopped   bool
	processed uint64 // events delivered so far (observability)
	failure   any    // first panic raised by a user process, re-raised by Run
	chaos     *Chaos // optional link-fault injection, see fault.go

	tracer *obs.Tracer // optional span tracer, see trace.go
}

// New creates an empty simulation at virtual time zero.
func New() *Sim {
	return &Sim{sched: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() Time { return s.now }

// EventsProcessed returns how many events the scheduler has delivered — a
// cheap sanity metric for how much simulated activity a run generated.
func (s *Sim) EventsProcessed() uint64 { return s.processed }

type event struct {
	t         Time
	seq       uint64
	p         *Proc
	cancelled bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return
}

// schedule enqueues a wake-up for p at time t and returns the event so the
// caller can cancel it.
func (s *Sim) schedule(t Time, p *Proc) *event {
	if s.stopped {
		return &event{cancelled: true}
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	ev := &event{t: t, seq: s.seq, p: p}
	heap.Push(&s.events, ev)
	return ev
}

// Proc is a simulated process. All blocking operations (Sleep, resource
// acquisition, mailbox receive, …) must be called from the process's own
// goroutine, i.e. from inside the function passed to Spawn.
type Proc struct {
	sim  *Sim
	name string
	wake chan wakeMsg
	done *Signal
	dead bool
	span obs.Span // current trace context, see trace.go
}

type wakeMsg struct{ stop bool }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Done returns a signal fired when the process function returns.
func (p *Proc) Done() *Signal { return p.done }

// Spawn registers a new process that starts at the current virtual time,
// after the currently running process (if any) next yields. The returned
// Proc can be waited on via Done.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, wake: make(chan wakeMsg), done: s.NewSignal()}
	if s.stopped {
		// The simulation is unwinding: return an inert process that never
		// runs. Its Done signal never fires, but nothing can wait on it
		// anymore either.
		p.dead = true
		return p
	}
	s.live = append(s.live, p)
	go func() {
		if msg := <-p.wake; msg.stop {
			s.procExit(p)
			return
		}
		defer func() {
			if r := recover(); r != nil {
				if _, unwind := r.(stopUnwind); !unwind && s.failure == nil {
					s.failure = fmt.Sprintf("simnet: process %q panicked: %v", name, r)
					s.stopped = true
				}
			}
			p.done.fire()
			s.procExit(p)
		}()
		fn(p)
	}()
	s.schedule(s.now, p)
	return p
}

// procExit removes p from the live set and returns control to the scheduler.
func (s *Sim) procExit(p *Proc) {
	p.dead = true
	for i, q := range s.live {
		if q == p {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	s.sched <- struct{}{}
}

// yield hands control back to the scheduler and blocks until the process is
// woken again. It must only be called after arranging a future wake-up
// (a scheduled event or membership in some waiter list).
func (p *Proc) yield() {
	p.sim.sched <- struct{}{}
	if msg := <-p.wake; msg.stop {
		panic(stopUnwind{})
	}
}

// checkStopped aborts the calling process if the simulation is shutting down.
func (p *Proc) checkStopped() {
	if p.sim.stopped {
		panic(stopUnwind{})
	}
}

// Sleep advances the process by d seconds of virtual time. Negative or zero
// durations still yield control once, preserving round-robin fairness at a
// single instant.
func (p *Proc) Sleep(d Time) {
	p.checkStopped()
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	p.sim.schedule(p.sim.now+d, p)
	p.yield()
}

// Run executes the simulation until no scheduled events remain, then unwinds
// any still-blocked processes. It panics if any process panicked.
func (s *Sim) Run() {
	s.RunUntil(math.Inf(1))
}

// RunUntil executes events with time <= deadline, then stops the simulation:
// remaining events are discarded and all live processes are unwound. The
// simulation cannot be resumed afterwards.
func (s *Sim) RunUntil(deadline Time) {
	for s.events.Len() > 0 && !s.stopped {
		ev := heap.Pop(&s.events).(*event)
		if ev.cancelled || ev.p.dead {
			continue
		}
		if ev.t > deadline {
			break
		}
		s.now = ev.t
		s.processed++
		ev.p.wake <- wakeMsg{}
		<-s.sched
	}
	s.stop()
	if s.failure != nil {
		panic(s.failure)
	}
}

// stop unwinds all remaining live processes.
func (s *Sim) stop() {
	s.stopped = true
	for len(s.live) > 0 {
		p := s.live[0]
		p.wake <- wakeMsg{stop: true}
		<-s.sched
	}
	s.events = nil
}
