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
// virtual time, and EventsProcessed counts every one delivered. Each process
// runs as a coroutine (iter.Pull) that the event loop resumes and that
// yields back to it when it blocks, so the loop is the scheduler and no Go
// scheduler wake-up sits between two processes. Most events hand control to
// the process's own code (a hand-off): a coroutine switch when another
// process held control, nothing when the blocking process is itself the
// next due. A NIC step of a transfer is not a hand-off: Send, TrySend and
// Resource.Use schedule their middle steps (a grant, the end of a hold, the
// end of propagation) as events of the process like any other, but the
// event loop runs each step itself and resumes the process only when the
// operation ends. An uncontended message is three events and one hand-off.
//
// Step chains: a longer operation (an RPC with its retries) is a chain of
// such steps, each a function over the caller's record that starts the next
// kernel-run operation (After, TrySendThen, ComputeThen) or ends the chain.
// A process runs one with Chain and is resumed once, when it ends. A
// Group.Step child is a chain with no coroutine at all: a pooled Proc the
// group counts out when its chain ends. A step that must block (wait on a
// signal, make a plain transfer) is a Block: it runs on the process's own
// coroutine, or for a step child on a parked one lent for that step only.
//
// Determinism: events are ordered by (time, sequence number) and processes
// run one at a time, each until it blocks, so a simulation with seeded
// randomness produces bit-identical results on every run.
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
	deadline  Time      // RunUntil's: no event past it is delivered
	handTo    *Proc     // set by a yielding process: the one the loop resumes next, nil to end the run
	live      []*Proc   // spawned processes and step children not yet finished, oldest first; exit leaves nil holes
	holes     int       // nil entries in live
	idle      []*worker // coroutines parked between processes
	spare     []*Proc   // finished step children, for Group.Step to reuse
	stopped   bool
	processed uint64 // events delivered so far (observability)
	handoffs  uint64 // events that resumed a process's own code
	failure   any    // first panic raised by a user process, re-raised by Run
	chaos     *Chaos // optional link-fault injection, see fault.go

	tracer *obs.Tracer // optional span tracer, see trace.go
}

// New creates an empty simulation at virtual time zero.
func New() *Sim {
	return &Sim{}
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
		if p.step != nil && !s.advance(p) {
			continue
		}
		s.handoffs++
		return p
	}
}

// advance runs p's due step and reports whether p's coroutine is to be
// resumed: p's operation ended and p is a process, or the chain reached a
// Block, for which a step child borrows a parked coroutine. A step child
// whose chain ended is retired here. A step that panics fails the run in
// p's name.
func (s *Sim) advance(p *Proc) (resume bool) {
	defer func() {
		if r := recover(); r != nil {
			s.fail(p, r)
			resume = false
		}
	}()
	step := p.step
	p.step = nil
	step(p)
	switch {
	case p.step != nil:
		return false
	case p.w != nil:
		return true
	case p.block != nil:
		w := s.worker()
		w.p, p.w = p, w
		return true
	}
	s.retire(p)
	return false
}

// fail records the first panic of a process (or of one of its steps) as
// the run's failure and stops the simulation; the unwinding of a stopped
// process is not a failure.
func (s *Sim) fail(p *Proc, r any) {
	if _, unwind := r.(stopUnwind); r != nil && !unwind && s.failure == nil {
		s.failure = fmt.Sprintf("simnet: process %q panicked: %v", p.name, r)
		s.stopped = true
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

// Proc is a simulated process. All blocking operations (Sleep, resource
// acquisition, mailbox receive, …) must be called from the process's own
// goroutine, i.e. from inside the function passed to Spawn.
type Proc struct {
	sim   *Sim
	name  string
	w     *worker // the coroutine running the process; nil for a step child outside a Block
	slot  int     // index in sim.live
	group *Group  // counts the process out when it finishes, or nil
	done  Signal
	span  obs.Span // current trace context, see trace.go

	// A kernel-run operation in progress (Resource.Use, a transfer). step,
	// when set, runs in the event loop at the process's next event instead
	// of resuming it; it sets the step after it, or leaves none to end the
	// operation. Steps are top-level functions over this state, so an
	// operation allocates nothing.
	step     func(*Proc)
	next     func(*Proc) // the chain's step after the operation; nil ends the chain
	block    func(*Proc) // a Block's code, due to run on a coroutine before next
	unwind   func(*Proc) // the chain's cleanup, run if the simulation stops mid-chain
	res      *Resource   // the resource the operation waits for or holds
	hold     Time        // how long it holds res once granted
	then     func(*Proc) // runs when res is released
	src      *Node       // a transfer's sender, receiver and size
	dst      *Node
	size     float64
	try      bool     // TrySend: a down endpoint or a chaos drop fails the transfer
	err      error    // the transfer's result
	sendSpan obs.Span // the transfer's trace span
}

// worker is a coroutine that runs processes one after another: when a
// process function returns, the worker parks on the simulation's idle list
// and the next Spawn runs on it. Lent to a step child (fn nil), it runs the
// child's Blocks instead. newWorker creates one.
type worker struct {
	resume  func() (struct{}, bool) // run the coroutine until it yields or ends
	suspend func(struct{}) bool     // yield back to the loop, from inside the coroutine
	p       *Proc
	fn      func(*Proc)
}

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Done returns a signal fired when the process function returns.
func (p *Proc) Done() *Signal { return &p.done }

// Spawn registers a new process that starts at the current virtual time,
// after the currently running process (if any) next yields. The returned
// Proc can be waited on via Done.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.spawn(name, fn, nil)
}

// spawn is Spawn for a process that group g, if any, counts out when it
// finishes.
func (s *Sim) spawn(name string, fn func(p *Proc), g *Group) *Proc {
	p := &Proc{sim: s, name: name, group: g, done: Signal{sim: s}}
	if s.stopped {
		// The simulation is unwinding: return an inert process that never
		// runs. Its Done signal never fires, but nothing can wait on it
		// anymore either.
		return p
	}
	s.enter(p)
	w := s.worker()
	w.p, w.fn, p.w = p, fn, w
	s.schedule(s.now, p)
	return p
}

// enter adds p to the live set.
func (s *Sim) enter(p *Proc) {
	p.slot = len(s.live)
	s.live = append(s.live, p)
}

// worker takes a parked coroutine, or makes one.
func (s *Sim) worker() *worker {
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return w
	}
	return s.newWorker()
}

// work is a worker coroutine's body: run a process (or a lent step child's
// Blocks), park on the idle list and yield, run what it is given next.
// Resumed once the simulation has stopped, it returns (stop resumes every
// parked worker); a process that calls runtime.Goexit ends it too, and the
// loop with it (see RunUntil).
func (s *Sim) work(w *worker) {
	for !s.stopped {
		if w.fn != nil {
			s.run(w)
		} else {
			s.runBlocks(w)
		}
		s.idle = append(s.idle, w)
		s.handTo = s.next()
		w.suspend(struct{}{})
	}
	if w.p != nil { // spawned, never started
		s.exit(w.p)
	}
}

// run executes w's process function. Its epilogue also runs when the function
// panics or calls runtime.Goexit.
func (s *Sim) run(w *worker) {
	p, returned := w.p, false
	defer func() {
		if !returned {
			s.fail(p, recover())
		}
		if g := p.group; g != nil {
			g.countOut()
		}
		p.done.fire()
		s.exit(p)
		w.p, w.fn = nil, nil
	}()
	w.fn(p)
	returned = true
}

// runBlocks runs the Blocks of the step child lent w, and the steps after
// each, until its chain waits for an event or ends; an ended chain retires
// the child. A panic or the simulation's stop ends the chain where it is.
func (s *Sim) runBlocks(w *worker) {
	p := w.p
	defer func() {
		if r := recover(); r != nil {
			s.fail(p, r)
			if u := p.unwind; u != nil {
				p.unwind = nil
				u(p)
			}
			s.exit(p)
		}
		w.p = nil
	}()
	for p.block != nil {
		p.runBlock()
	}
	p.w = nil
	if p.step == nil {
		s.retire(p)
	}
}

// exit takes p out of the live set. Its slot becomes a hole; once holes are
// the majority, live is compacted in order (never while stop walks it).
func (s *Sim) exit(p *Proc) {
	s.live[p.slot] = nil
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
}

// retire ends a step child whose chain has ended: its group counts it out,
// and its Proc goes back to the pool.
func (s *Sim) retire(p *Proc) {
	g := p.group
	g.countOut()
	s.exit(p)
	*p = Proc{sim: s}
	s.spare = append(s.spare, p)
}

// yield blocks the process until it is resumed again. It must only be
// called after arranging a future wake-up (a scheduled event or membership in
// some waiter list). It pops the next due process itself: when that is p, p
// goes on without a switch; otherwise p's coroutine yields to the loop, which
// resumes that process, or ends the run if there is none.
func (p *Proc) yield() {
	s := p.sim
	if q := s.next(); q != p {
		s.handTo = q
		p.w.suspend(struct{}{})
		if s.stopped { // resumed by stop to unwind
			if u := p.unwind; u != nil {
				p.unwind = nil
				u(p)
			}
			panic(stopUnwind{})
		}
	}
}

// wait blocks the process until the kernel-run operation it started ends;
// an operation that ended at once (a failed TrySend) does not yield.
func (p *Proc) wait() {
	if p.step != nil {
		p.checkStopped()
		p.yield()
	}
}

// Chain runs a step chain from the calling process: first runs now, each
// later step in the event loop at its event, and the process is resumed
// once, when the chain ends, or to run a Block on its own coroutine. If the
// simulation stops mid-chain, unwind (if not nil) runs as the process
// unwinds.
func (p *Proc) Chain(first, unwind func(*Proc)) {
	p.checkStopped()
	outer := p.unwind
	p.unwind = unwind
	first(p)
	for p.step != nil || p.block != nil {
		if p.block != nil {
			p.runBlock()
		} else {
			p.yield()
		}
	}
	p.unwind = outer
}

// After is a step: next runs in d seconds (a negative or NaN d means now).
func (p *Proc) After(d Time, next func(*Proc)) {
	p.step = next
	p.sim.after(p, d)
}

// Block is a step that runs fn, which may block, on a coroutine: the
// process's own, or for a step child a parked one lent for this step only.
// It adds no event: next (nil ends the chain) runs as soon as fn returns.
func (p *Proc) Block(fn, next func(*Proc)) {
	p.block, p.next = fn, next
}

// runBlock runs the pending Block on the calling coroutine, then the step
// after it.
func (p *Proc) runBlock() {
	fn, next := p.block, p.next
	p.block, p.next = nil, nil
	fn(p)
	if next != nil {
		next(p)
	}
}

// endOp ends a kernel-run operation: the chain's next step runs now, or, with
// none, the chain ends.
func endOp(p *Proc) {
	if next := p.next; next != nil {
		p.next = nil
		next(p)
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
// The event loop (loop) is the scheduler: it resumes one process coroutine
// at a time, and each hands control back when it blocks. It runs on a
// goroutine of its own because iter.Pull re-raises a process's
// runtime.Goexit in the goroutine that resumed it: that ends the loop's
// goroutine, not RunUntil's caller, and RunUntil starts the loop again, so
// the run goes on.
func (s *Sim) RunUntil(deadline Time) {
	s.deadline = deadline
	ended := make(chan bool)
	for done := false; !done; done = <-ended {
		go s.loop(ended)
	}
	if s.failure != nil {
		panic(s.failure)
	}
}

// loop resumes the process of each next due event until the run is over,
// then stops the simulation, and reports on ended whether it got that far.
func (s *Sim) loop(ended chan<- bool) {
	done := false
	defer func() { ended <- done }()
	for p := s.next(); p != nil; p = s.handTo {
		s.handTo = nil
		p.w.resume()
	}
	s.stop()
	done = true
}

// stop unwinds all remaining live processes, oldest first (a step child
// waiting for an event runs its chain's unwind), then ends the parked
// coroutines: each is resumed once more, sees the simulation stopped
// and returns.
func (s *Sim) stop() {
	s.stopped = true
	for _, p := range s.live {
		switch {
		case p == nil:
		case p.w != nil:
			p.w.resume()
		case p.unwind != nil:
			u := p.unwind
			p.unwind = nil
			u(p)
		}
	}
	for _, w := range s.idle {
		w.resume()
	}
	s.live, s.holes, s.idle, s.spare, s.events, s.due = nil, 0, nil, nil, nil, fifo[*Proc]{}
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
