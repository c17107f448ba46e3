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
// Events and hand-offs: an event is one scheduled wake-up of a process at a
// virtual time, and EventsProcessed counts every one delivered. Most events
// hand control to the process's own code (a hand-off), which costs a
// goroutine switch whenever another process held control. A NIC step of a
// transfer does not: Send, TrySend and Resource.Use schedule their middle
// steps (a grant, the end of a hold, the end of propagation) as events of
// the process like any other, but the event loop runs each step itself, on
// whichever goroutine is passing control, and wakes the process only when
// the operation ends. An uncontended message is three events and one
// hand-off.
//
// Determinism: events are ordered by (time, sequence number); processes only
// run one at a time, and a process that blocks hands control explicitly to
// the process of the next due event, so a simulation with seeded randomness
// produces bit-identical results on every run.
package simnet

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Time is virtual time in seconds since the start of the simulation.
type Time = float64

// stopUnwind is panicked inside blocked processes to unwind them when the
// simulation shuts down. It never escapes the kernel.
type stopUnwind struct{}

// Sim is a discrete-event simulation. The zero value is not usable; create
// one with New.
type Sim struct {
	now       Time
	events    eventHeap   // wake-ups due after now
	due       fifo[*Proc] // wake-ups due at now, in the order they were made
	seq       uint64
	deadline  Time          // RunUntil's: no event past it is delivered
	sched     chan struct{} // RunUntil takes control back on it when the run ends
	live      []*Proc       // spawned processes not yet finished, oldest first; exit leaves nil holes
	holes     int           // nil entries in live
	idle      []*worker     // goroutines parked between processes
	stopped   bool
	processed uint64 // events delivered so far (observability)
	handoffs  uint64 // events that resumed a process's own code
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

// event is a wake-up of p at time t; seq breaks ties in scheduling order.
type event struct {
	t   Time
	seq uint64
	p   *Proc
}

func (e event) before(f event) bool {
	return e.t < f.t || e.t == f.t && e.seq < f.seq
}

// eventHeap is a binary min-heap of events by (t, seq), held by value.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < n && q[l].before(q[least]) {
			least = l
		}
		if r := l + 1; r < n && q[r].before(q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// schedule enqueues a wake-up for p at time t. A wake-up due now joins the
// same-instant FIFO; a later one goes on the heap. Nothing cancels an event.
func (s *Sim) schedule(t Time, p *Proc) {
	if s.stopped {
		return
	}
	if t <= s.now {
		s.due.push(p)
		return
	}
	s.seq++
	s.events.push(event{t: t, seq: s.seq, p: p})
}

// after schedules a wake-up for p in d seconds; a negative or NaN d means
// now.
func (s *Sim) after(p *Proc, d Time) {
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	s.schedule(s.now+d, p)
}

// next delivers due events until one resumes a process, and returns that
// process; nil means the run is over: no event left, the next one past the
// deadline, or the simulation stopped. An event of a process inside a
// kernel-run operation runs the operation's next step here instead (see
// Proc.step), and resumes the process only if that step ends the operation.
func (s *Sim) next() *Proc {
	for {
		p := s.pop()
		if p == nil {
			return nil
		}
		if step := p.step; step != nil {
			p.step = nil
			if step(p); p.step != nil {
				continue
			}
		}
		s.handoffs++
		return p
	}
}

// pop pops the next due event, advancing the clock to it, and returns its
// process, or nil when the run is over.
//
// The order is (t, seq), as if every event were on the heap. Heap events are
// all due after the instant they were scheduled at, so when the clock
// reaches t every heap event at t was scheduled before any FIFO entry:
// heap events at now go first, then the FIFO in its order.
func (s *Sim) pop() *Proc {
	switch {
	case s.stopped:
		return nil
	case s.due.len() > 0 && (len(s.events) == 0 || s.events[0].t > s.now):
		if s.now > s.deadline {
			return nil
		}
		s.processed++
		return s.due.pop()
	case len(s.events) > 0 && s.events[0].t <= s.deadline:
		ev := s.events.pop()
		s.now = ev.t
		s.processed++
		return ev.p
	}
	return nil
}

// pass hands control to the goroutine of the next due event, or back to
// RunUntil when the run is over. When the next event is from's own process
// it returns false without any goroutine switch; otherwise the caller must
// block on its wake channel or end.
func (s *Sim) pass(from *worker) bool {
	p := s.next()
	switch {
	case p == nil:
		s.sched <- struct{}{}
	case p.w == from:
		return false
	default:
		p.w.wake <- wakeMsg{}
	}
	return true
}

// Proc is a simulated process. All blocking operations (Sleep, resource
// acquisition, mailbox receive, …) must be called from the process's own
// goroutine, i.e. from inside the function passed to Spawn.
type Proc struct {
	sim  *Sim
	name string
	w    *worker // the goroutine running the process
	slot int     // index in sim.live
	done *Signal
	span obs.Span // current trace context, see trace.go

	// A kernel-run operation in progress (Resource.Use, a transfer). step,
	// when set, runs in the event loop at the process's next event instead
	// of resuming it; it sets the step after it, or leaves none to resume
	// the process. Steps are top-level functions over this state, so an
	// operation allocates nothing.
	step func(*Proc)
	res  *Resource   // the resource the operation waits for or holds
	hold Time        // how long it holds res once granted
	then func(*Proc) // runs when res is released; nil resumes the process
	src  *Node       // a transfer's sender, receiver and size
	dst  *Node
	size float64
	try  bool  // TrySend: a down endpoint or a chaos drop fails the transfer
	err  error // the transfer's result
}

// worker is a goroutine that runs processes one after another: when a
// process function returns, the goroutine parks on the simulation's idle
// list and the next Spawn runs on it.
type worker struct {
	wake chan wakeMsg
	p    *Proc
	fn   func(*Proc)
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
	p := &Proc{sim: s, name: name, done: s.NewSignal()}
	if s.stopped {
		// The simulation is unwinding: return an inert process that never
		// runs. Its Done signal never fires, but nothing can wait on it
		// anymore either.
		return p
	}
	p.slot = len(s.live)
	s.live = append(s.live, p)
	var w *worker
	if n := len(s.idle); n > 0 {
		w = s.idle[n-1]
		s.idle = s.idle[:n-1]
	} else {
		w = &worker{wake: make(chan wakeMsg)}
		go s.work(w)
	}
	w.p, w.fn, p.w = p, fn, w
	s.schedule(s.now, p)
	return p
}

// work is a worker goroutine's loop: wait for a process to start, run it,
// park. It ends when the simulation stops, and when a process calls
// runtime.Goexit (see run).
func (s *Sim) work(w *worker) {
	for {
		if msg := <-w.wake; msg.stop {
			if w.p != nil { // spawned, never started
				s.exit(w)
			}
			s.sched <- struct{}{}
			return
		}
		s.run(w)
		if s.stopped { // control goes back to RunUntil or stop
			s.sched <- struct{}{}
			return
		}
		s.idle = append(s.idle, w)
		s.pass(nil)
	}
}

// run executes w's process function. Its epilogue also runs when the function
// panics or calls runtime.Goexit; in the last case the goroutine ends, so
// the epilogue hands control on itself.
func (s *Sim) run(w *worker) {
	p, returned := w.p, false
	defer func() {
		goexit := false
		if !returned {
			r := recover()
			if _, unwind := r.(stopUnwind); r != nil && !unwind && s.failure == nil {
				s.failure = fmt.Sprintf("simnet: process %q panicked: %v", p.name, r)
				s.stopped = true
			}
			goexit = r == nil
		}
		p.done.fire()
		s.exit(w)
		if goexit {
			s.pass(nil)
		}
	}()
	w.fn(p)
	returned = true
}

// exit retires w's process: it leaves the live set and w is free. Its slot
// becomes a hole; once holes are the majority, live is compacted in order
// (never while stop walks it).
func (s *Sim) exit(w *worker) {
	s.live[w.p.slot] = nil
	s.holes++
	if !s.stopped && 2*s.holes > len(s.live) {
		k := 0
		for _, q := range s.live {
			if q != nil {
				q.slot = k
				s.live[k] = q
				k++
			}
		}
		clear(s.live[k:])
		s.live, s.holes = s.live[:k], 0
	}
	w.p, w.fn = nil, nil
}

// yield hands control on and blocks until the process is woken again. It
// must only be called after arranging a future wake-up (a scheduled event
// or membership in some waiter list).
func (p *Proc) yield() {
	if w := p.w; p.sim.pass(w) {
		if msg := <-w.wake; msg.stop {
			panic(stopUnwind{})
		}
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
	p.sim.after(p, d)
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
//
// RunUntil only starts the run and takes control back at its end: each
// process that yields pops the next event itself and wakes its goroutine.
func (s *Sim) RunUntil(deadline Time) {
	s.deadline = deadline
	if p := s.next(); p != nil {
		p.w.wake <- wakeMsg{}
		<-s.sched
	}
	s.stop()
	if s.failure != nil {
		panic(s.failure)
	}
}

// stop unwinds all remaining live processes, oldest first, then ends the
// parked goroutines.
func (s *Sim) stop() {
	s.stopped = true
	for _, p := range s.live {
		if p != nil {
			p.w.wake <- wakeMsg{stop: true}
			<-s.sched
		}
	}
	for _, w := range s.idle {
		w.wake <- wakeMsg{stop: true}
		<-s.sched
	}
	s.live, s.holes, s.idle, s.events, s.due = nil, 0, nil, nil, fifo[*Proc]{}
}

// fifo is a queue that reuses its backing array: once warm, pushing and
// popping allocate nothing.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		// More than half the array is popped slots: slide the queue down
		// rather than grow.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
