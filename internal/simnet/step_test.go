package simnet

// Step children against the process children they replace: a seeded
// fan-out schedule run both ways must deliver the same events in the same
// order, borrow a coroutine only for a Block, unwind in the same order when
// RunUntil stops mid-flight, and blame the child a panicking step belongs to.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// rpcShape is one child's simulated RPC: a fallible request to srv, the
// server's compute, for some children a stretch of code that blocks (a
// signal wait and a plain send to a third machine), and a fallible reply.
// A failed transfer costs a timeout and ends the call.
type rpcShape struct {
	log               *[]string
	name              string
	client, srv, peer *Node
	bytes, work       float64
	block             bool
	sig               func() *Signal
	finished          bool
}

func (c *rpcShape) record(p *Proc, what string, err error) {
	*c.log = append(*c.log, fmt.Sprintf("%g %s %s %v", p.Now(), c.name, what, err))
}

// asProcess is the reference: the call as a process body.
func (c *rpcShape) asProcess(p *Proc) {
	defer func() {
		if !c.finished {
			c.record(p, "unwound", nil)
		}
	}()
	if err := c.client.TrySend(p, c.srv, c.bytes); err != nil {
		p.Sleep(0.01)
		c.finished = true
		c.record(p, "request", err)
		return
	}
	c.srv.Compute(p, c.work)
	if c.block {
		c.blocking(p)
	}
	err := c.srv.TrySend(p, c.client, c.bytes)
	c.finished = true
	c.record(p, "reply", err)
}

// The same call as a step chain.

func (c *rpcShape) start(p *Proc) { c.client.TrySendThen(p, c.srv, c.bytes, c.requested) }

func (c *rpcShape) requested(p *Proc) {
	if err := p.Err(); err != nil {
		p.After(0.01, func(p *Proc) {
			c.finished = true
			c.record(p, "request", err)
		})
		return
	}
	c.srv.ComputeThen(p, c.work, c.computed)
}

func (c *rpcShape) computed(p *Proc) {
	if c.block {
		p.Block(c.blocking, c.respond)
		return
	}
	c.respond(p)
}

func (c *rpcShape) blocking(p *Proc) {
	c.sig().Wait(p)
	c.srv.Send(p, c.peer, c.bytes)
}

func (c *rpcShape) respond(p *Proc) { c.srv.TrySendThen(p, c.client, c.bytes, c.replied) }

func (c *rpcShape) replied(p *Proc) {
	c.finished = true
	c.record(p, "reply", p.Err())
}

func (c *rpcShape) unwind(p *Proc) { c.record(p, "unwound", nil) }

// fanoutLog runs one seeded fan-out schedule with process children (steps
// false) or step children (steps true) and returns its log: a line per
// call's end, per parent round and per unwound call, and a closing line
// with the clock and the event count. Three parents fan out to four servers
// over lossy, delayed links; a third of the calls block on a signal a ticker
// fires; odd seeds end at a RunUntil deadline mid-flight.
func fanoutLog(seed uint64, steps bool) []string {
	rng := splitmix(seed)
	s := New()
	nodes := make([]*Node, 6)
	for i := range nodes {
		nodes[i] = s.NewNode(i, NodeConfig{BandwidthBps: 1e4, LatencySec: 0.002, Cores: 1 + i%2, WorkRate: 1e3})
	}
	c := s.EnableChaos(seed, 0.1)
	c.SetLinkDelay(0, 2, 0.004)
	c.SetLinkLoss(3, 1, 0.3)
	sig := s.NewSignal()
	current := func() *Signal { return sig }
	var log []string
	s.Spawn("ticker", func(p *Proc) {
		for range 40 {
			p.Sleep(0.005)
			sig.Fire()
			sig = s.NewSignal()
		}
	})
	for i := range 3 {
		client := nodes[i%2]
		name := fmt.Sprintf("parent%d", i)
		s.Spawn(name, func(p *Proc) {
			for round := range 4 {
				g := s.NewGroup()
				for k := range 2 + rng.intn(4) {
					call := &rpcShape{
						log: &log, name: fmt.Sprintf("%s.%d.%d", name, round, k),
						client: client, srv: nodes[2+rng.intn(4)], peer: nodes[rng.intn(len(nodes))],
						bytes: float64(10 * (1 + rng.intn(8))), work: float64(rng.intn(3)),
						block: rng.intn(3) == 0, sig: current,
					}
					if steps {
						g.Step("call", call.start, call.unwind)
					} else {
						g.Go("call", call.asProcess)
					}
				}
				g.Wait(p)
				log = append(log, fmt.Sprintf("%g %s round %d", p.Now(), name, round))
			}
		})
	}
	if seed%2 == 1 {
		s.RunUntil(0.03 + Time(rng.intn(20))*0.003)
	} else {
		s.Run()
	}
	return append(log, fmt.Sprintf("end %g %d", s.Now(), s.EventsProcessed()))
}

// TestStepChildrenMatchProcessChildren: over forty seeded schedules, step
// children deliver the same log — every call's result at the same virtual
// time in the same order, the same unwinding at a RunUntil cut, the same
// end time and event count — as the process children they replace.
func TestStepChildrenMatchProcessChildren(t *testing.T) {
	hash := func(steps bool) (string, int, int) {
		h := sha256.New()
		lines, unwound := 0, 0
		for seed := uint64(1); seed <= 40; seed++ {
			for _, l := range fanoutLog(seed, steps) {
				fmt.Fprintln(h, l)
				lines++
				if strings.HasSuffix(l, "unwound <nil>") {
					unwound++
				}
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil))[:16], lines, unwound
	}
	want, wantLines, unwound := hash(false)
	got, lines, _ := hash(true)
	if got != want || lines != wantLines {
		t.Fatalf("step children: %d lines, hash %s; process children: %d lines, hash %s", lines, got, wantLines, want)
	}
	if unwound == 0 {
		t.Fatal("no call was in flight at a RunUntil cut: the unwinding is untested")
	}
	for seed := uint64(1); seed <= 4; seed++ {
		a, b := fanoutLog(seed, false), fanoutLog(seed, true)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Fatalf("seed %d differs", seed)
		}
	}
}

// TestStepFanoutIsOneHandoff: a 20-way fan-out of step children resumes no
// coroutine but the parent's, once, when the last call ends, and delivers
// the events of the process children it replaces; a child whose chain
// reaches a Block borrows a parked coroutine for that step only.
func TestStepFanoutIsOneHandoff(t *testing.T) {
	s := New()
	client := s.NewNode(0, DefaultNodeConfig())
	servers := make([]*Node, 20)
	for i := range servers {
		servers[i] = s.NewNode(i+1, DefaultNodeConfig())
	}
	var log []string
	sig := s.NewSignal()
	sig.Fire()
	fanout := func(p *Proc, blocking int, steps bool) (handoffs, events uint64) {
		h, e := s.handoffs, s.EventsProcessed()
		g := s.NewGroup()
		for i, srv := range servers {
			c := &rpcShape{log: &log, name: "call", client: client, srv: srv, peer: client,
				bytes: 4096, work: 1e4, block: i < blocking, sig: func() *Signal { return sig }}
			if steps {
				g.Step("call", c.start, nil)
			} else {
				g.Go("call", c.asProcess)
			}
		}
		g.Wait(p)
		return s.handoffs - h, s.EventsProcessed() - e
	}
	var procEvents, plain, plainEvents, blocked uint64
	var idle int
	s.Spawn("driver", func(p *Proc) {
		fanout(p, 0, false) // warm-up: the first round at t=0 delivers fewer events than later ones
		_, procEvents = fanout(p, 0, false)
		idle = len(s.idle)
		plain, plainEvents = fanout(p, 0, true)
		idle = len(s.idle) - idle
		blocked, _ = fanout(p, 3, true)
	})
	s.Run()
	if plain != 1 {
		t.Errorf("a 20-call step fan-out made %d hand-offs, want 1 (the parent's wake)", plain)
	}
	if plainEvents != procEvents {
		t.Errorf("a 20-call step fan-out delivered %d events, process children %d", plainEvents, procEvents)
	}
	// Each Block resumes a lent coroutine: at its start, and when the
	// plain Send inside it ends.
	if blocked != 1+3*2 {
		t.Errorf("a fan-out with 3 blocking calls made %d hand-offs, want 7", blocked)
	}
	if idle != 0 {
		t.Errorf("a fan-out without Blocks took %d coroutines, want 0", -idle)
	}
	if len(log) != 80 {
		t.Errorf("%d calls ended, want 80", len(log))
	}
}

// TestStepPanicBlamesTheChild: a panic in a step, run in the event loop, or
// in a Block, run on a lent coroutine, fails the run in the name of the
// child it belongs to, however the loop reached the step.
func TestStepPanicBlamesTheChild(t *testing.T) {
	for _, inBlock := range []bool{false, true} {
		s := New()
		a, b := s.NewNode(0, DefaultNodeConfig()), s.NewNode(1, DefaultNodeConfig())
		boom := func(*Proc) { panic("handler failed") }
		s.Spawn("parent", func(p *Proc) {
			g := s.NewGroup()
			g.Step("bystander", func(cp *Proc) { a.TrySendThen(cp, b, 100, func(*Proc) {}) }, nil)
			g.Step("doomed", func(cp *Proc) {
				a.TrySendThen(cp, b, 100, func(cp *Proc) {
					if inBlock {
						cp.Block(func(cp *Proc) { cp.Sleep(1); boom(cp) }, nil)
						return
					}
					boom(cp)
				})
			}, nil)
			g.Wait(p)
		})
		s.Spawn("other", func(p *Proc) { p.Sleep(0.5) })
		got := func() (r any) {
			defer func() { r = recover() }()
			s.Run()
			return nil
		}()
		want := `simnet: process "doomed" panicked: handler failed`
		if got != want {
			t.Errorf("inBlock=%v: Run panicked with %v, want %q", inBlock, got, want)
		}
	}
}
