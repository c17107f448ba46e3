package simnet

// Signal is a one-shot broadcast event: processes block on Wait until Fire is
// called, after which Wait returns immediately forever.
type Signal struct {
	sim     *Sim
	fired   bool
	waiters []*Proc
}

// NewSignal creates an unfired signal.
func (s *Sim) NewSignal() *Signal { return &Signal{sim: s} }

// Fired reports whether the signal has been fired.
func (g *Signal) Fired() bool { return g.fired }

// Fire wakes all current and future waiters at the current virtual time.
// Firing twice is a no-op. Fire may be called from any process or from
// outside the simulation (before Run).
func (g *Signal) Fire() { g.fire() }

func (g *Signal) fire() {
	if g.fired {
		return
	}
	g.fired = true
	for _, p := range g.waiters {
		g.sim.schedule(g.sim.now, p)
	}
	clear(g.waiters)
	g.waiters = g.waiters[:0] // a re-armed Group waits again without allocating
}

// Wait blocks the calling process until the signal fires.
func (g *Signal) Wait(p *Proc) {
	p.checkStopped()
	if g.fired {
		return
	}
	g.waiters = append(g.waiters, p)
	p.yield()
}

// Resource is a counting semaphore with FIFO admission, used to model
// serialization points such as NICs and CPU cores. A process holds a unit
// for a span of virtual time with Use.
type Resource struct {
	sim      *Sim
	capacity int
	inUse    int
	waiters  fifo[*Proc]
}

// NewResource creates a resource with the given capacity (>= 1).
func (s *Sim) NewResource(capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{sim: s, capacity: capacity}
}

// Use waits for a unit of the resource (units are granted in FIFO order),
// holds it for hold seconds and returns it. It is the common pattern for
// charging time against a serialized device. The event loop runs the grant
// and the release (see the package doc), so the process is woken once, at
// the end.
func (r *Resource) Use(p *Proc, hold Time) {
	p.checkStopped()
	p.use(r, hold, endOp)
	p.yield()
}

// use starts a kernel-run hold of r for hold seconds: the grant (now, or at
// an event when r is busy), the hold's end, the release, then the step
// then. A busy grant and the hold's end are one event each.
func (p *Proc) use(r *Resource, hold Time, then func(*Proc)) {
	p.res, p.hold, p.then = r, hold, then
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.inUse++
		granted(p)
		return
	}
	p.step = granted
	r.waiters.push(p)
}

// granted starts the hold of p.res, whose unit p now has.
func granted(p *Proc) {
	p.step = held
	p.sim.after(p, p.hold)
}

// held ends the hold: the unit passes to the head of p.res's queue, whose
// grant is due now, or goes back to the resource. Then p.then runs.
func held(p *Proc) {
	if r := p.res; r.waiters.len() > 0 {
		r.sim.schedule(r.sim.now, r.waiters.pop())
	} else {
		r.inUse--
	}
	p.then(p)
}

// Mailbox is an unbounded FIFO message queue between processes. Put never
// blocks; Get blocks until a message is available.
type Mailbox struct {
	sim     *Sim
	queue   fifo[any]
	waiters fifo[*Proc]
}

// NewMailbox creates an empty mailbox.
func (s *Sim) NewMailbox() *Mailbox { return &Mailbox{sim: s} }

// Put enqueues a message and wakes the oldest waiting receiver, if any.
func (m *Mailbox) Put(msg any) {
	m.queue.push(msg)
	if m.waiters.len() > 0 {
		m.sim.schedule(m.sim.now, m.waiters.pop())
	}
}

// Get dequeues the oldest message, blocking until one is available.
func (m *Mailbox) Get(p *Proc) any {
	p.checkStopped()
	for m.queue.len() == 0 {
		m.waiters.push(p)
		p.yield()
	}
	return m.queue.pop()
}

// Group runs a set of children — processes (Go) or step chains (Step) — and
// lets the parent wait for all of them, mirroring sync.WaitGroup for
// simulated processes.
type Group struct {
	sim     *Sim
	pending int
	done    Signal
}

// NewGroup creates an empty group.
func (s *Sim) NewGroup() *Group { return &Group{sim: s, done: Signal{sim: s}} }

// add counts a child in. A group whose children have all finished is
// re-armed, so a Wait after this add waits.
func (g *Group) add() {
	if g.pending == 0 {
		g.done.fired = false // its waiters, if any, are already scheduled
	}
	g.pending++
}

// countOut counts a finished child out, releasing the waiters with the last.
func (g *Group) countOut() {
	g.pending--
	if g.pending == 0 {
		g.done.fire()
	}
}

// Go spawns fn as a child process tracked by the group.
func (g *Group) Go(name string, fn func(p *Proc)) {
	g.add()
	g.sim.spawn(name, fn, g)
}

// Step starts a child with no coroutine of its own: a pooled Proc whose step
// chain (see the package doc) begins with first at the current instant, in
// the order a Go child would start, and which the kernel counts out of the
// group when the chain ends. If the simulation stops mid-chain, unwind (if
// not nil) runs in the child's place among the live processes.
func (g *Group) Step(name string, first, unwind func(*Proc)) {
	g.add()
	s := g.sim
	if s.stopped {
		return // inert, as Spawn's
	}
	var p *Proc
	if n := len(s.spare); n > 0 {
		p = s.spare[n-1]
		s.spare = s.spare[:n-1]
	} else {
		p = &Proc{sim: s}
	}
	p.name, p.group, p.step, p.unwind = name, g, first, unwind
	s.enter(p)
	s.schedule(s.now, p)
}

// Wait blocks the calling process until every child started with Go or
// Step has finished. Waiting on an empty group returns immediately.
func (g *Group) Wait(p *Proc) {
	if g.pending == 0 {
		return
	}
	g.done.Wait(p)
}
