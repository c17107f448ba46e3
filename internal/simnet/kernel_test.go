package simnet

// Kernel-level guards: the delivery order of a seeded mix of schedules is
// pinned by hash, the process goroutines neither hang nor leak however a run
// ends, and the steady-state event path allocates nothing.

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/par"
)

// splitmix is a tiny seeded generator, independent of math/rand's stream.
type splitmix uint64

func (r *splitmix) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// scheduleLog runs one seeded kernel-level schedule and returns its delivery
// log: a line "virtual-time process step op" per step any process
// completes, a line per process exit (including the unwinding of processes
// still blocked when the run ends) and a closing line with the clock and
// the event count. The schedule mixes zero and equal sleeps, resources of
// capacity 1 and 2, mailboxes, signals, groups and spawns within an
// instant, and a feeder puts messages and fires the signals on a fixed
// clock; odd seeds end at a RunUntil deadline mid-flight.
func scheduleLog(seed uint64) []string {
	rng := splitmix(seed)
	s := New()
	res := []*Resource{s.NewResource(1), s.NewResource(2)}
	boxes := []*Mailbox{s.NewMailbox(), s.NewMailbox()}
	sigs := []*Signal{s.NewSignal(), s.NewSignal(), s.NewSignal()}
	var log []string
	var body func(name string, depth, steps int) func(*Proc)
	body = func(name string, depth, steps int) func(*Proc) {
		return func(p *Proc) {
			defer func() { log = append(log, fmt.Sprintf("%g %s exit", p.Now(), name)) }()
			for step := range steps {
				var op string
				switch k := rng.intn(10); {
				case k == 0:
					p.Sleep(0)
					op = "sleep0"
				case k == 1:
					p.Sleep(0.5)
					op = "sleep.5"
				case k == 2:
					d := rng.intn(4)
					p.Sleep(Time(d) * 0.25)
					op = "sleep" + strconv.Itoa(d)
				case k == 3:
					i, h := rng.intn(2), rng.intn(3)
					res[i].Use(p, Time(h)*0.25)
					op = fmt.Sprintf("use%d/%d", i, h)
				case k == 4:
					i := rng.intn(2)
					boxes[i].Put(name)
					op = "put" + strconv.Itoa(i)
				case k == 5:
					i := rng.intn(2)
					op = fmt.Sprintf("get%d<%v", i, boxes[i].Get(p))
				case k == 6:
					i := rng.intn(3)
					sigs[i].Fire()
					op = "fire" + strconv.Itoa(i)
				case k == 7:
					i := rng.intn(3)
					sigs[i].Wait(p)
					op = "wait" + strconv.Itoa(i)
				case k == 8 && depth < 2:
					g := s.NewGroup()
					n := 1 + rng.intn(3)
					for c := range n {
						g.Go(name, body(fmt.Sprintf("%s.g%d.%d", name, step, c), depth+1, 4))
					}
					g.Wait(p)
					op = "group" + strconv.Itoa(n)
				case k == 9 && depth < 2:
					s.Spawn(name, body(fmt.Sprintf("%s.s%d", name, step), depth+1, 5))
					op = "spawn"
				default:
					p.Sleep(0.25)
					op = "sleep1"
				}
				log = append(log, fmt.Sprintf("%g %s %d %s", p.Now(), name, step, op))
			}
		}
	}
	for i := range 6 {
		name := "p" + strconv.Itoa(i)
		s.Spawn(name, body(name, 0, 12))
	}
	// The feeder keeps receivers and waiters from all blocking early.
	s.Spawn("feeder", func(p *Proc) {
		for k := range 16 {
			p.Sleep(0.25)
			boxes[k%2].Put("feed")
			if k%5 == 4 {
				sigs[k/5].Fire()
			}
		}
	})
	if seed%2 == 1 {
		s.RunUntil(2.25)
	} else {
		s.Run()
	}
	return append(log, fmt.Sprintf("end %g %d", s.Now(), s.EventsProcessed()))
}

// TestKernelDeliveryOrderPinned pins the kernel's delivery order by a hash
// over forty seeded schedules' logs. Any change to which process runs when —
// same-instant ties, FIFO grants, spawn order, the deadline cut, the
// unwinding order at stop — changes the hash. A change that means to alter
// the order must say so and re-pin; nothing else may.
func TestKernelDeliveryOrderPinned(t *testing.T) {
	const (
		wantLines = 10523
		wantHash  = "6ea4dfa67aef1e49"
	)
	h := sha256.New()
	lines := 0
	for seed := uint64(1); seed <= 40; seed++ {
		for _, l := range scheduleLog(seed) {
			fmt.Fprintln(h, l)
			lines++
		}
	}
	got := fmt.Sprintf("%x", h.Sum(nil))[:16]
	if lines != wantLines || got != wantHash {
		t.Fatalf("delivery log: %d lines, hash %s; pinned %d lines, hash %s", lines, got, wantLines, wantHash)
	}
}

// transferLog runs one seeded network schedule and returns its delivery log:
// a line "virtual-time process step op result bytes-received" per operation
// any process completes, a line per fault the controller injects, a line per
// process exit and a closing line with the clock and the event count. Five
// nodes share slow NICs, so transfers queue on egress and ingress; most
// messages go to node 0, an in-cast. Senders mix Send, TrySend under chaos
// loss with per-link extra delay, local sends and Compute on node 4's two
// cores, while a controller fails nodes at times that land mid-egress,
// mid-propagation and mid-ingress, and restores them a moment later. Odd
// seeds end at a RunUntil deadline mid-transfer.
func transferLog(seed uint64) []string {
	rng := splitmix(seed)
	s := New()
	nodes := make([]*Node, 5)
	for i := range nodes {
		nodes[i] = s.NewNode(i, NodeConfig{BandwidthBps: 1000, LatencySec: 0.02, Cores: 1 + i/4, WorkRate: 100})
	}
	c := s.EnableChaos(seed, 0.15)
	c.SetLinkDelay(1, 0, 0.03)
	c.SetLinkDelay(2, 3, 0.01)
	c.SetLinkLoss(3, 0, 0.4)
	var log []string
	for i := range 7 {
		name := "p" + strconv.Itoa(i)
		s.Spawn(name, func(p *Proc) {
			defer func() { log = append(log, fmt.Sprintf("%g %s exit", p.Now(), name)) }()
			for step := range 10 {
				src := nodes[rng.intn(len(nodes))]
				dst := nodes[0]
				if rng.intn(3) == 0 {
					dst = nodes[rng.intn(len(nodes))]
				}
				bytes := float64(10 * (1 + rng.intn(10)))
				var op string
				var err error
				switch k := rng.intn(8); {
				case k < 3:
					src.Send(p, dst, bytes)
					op = fmt.Sprintf("send%d>%d", src.ID, dst.ID)
				case k < 6:
					err = src.TrySend(p, dst, bytes)
					op = fmt.Sprintf("try%d>%d", src.ID, dst.ID)
				case k == 6:
					nodes[4].Compute(p, bytes/10)
					op = "compute"
					dst = nodes[4]
				default:
					p.Sleep(Time(rng.intn(4)) * 0.01)
					op = "sleep"
				}
				log = append(log, fmt.Sprintf("%g %s %d %s %v %g", p.Now(), name, step, op, err, dst.BytesRecv))
			}
		})
	}
	s.Spawn("faults", func(p *Proc) {
		for range 12 {
			p.Sleep(Time(1+rng.intn(40)) * 0.003)
			n := nodes[rng.intn(len(nodes))]
			n.Fail()
			log = append(log, fmt.Sprintf("%g faults fail node%d", p.Now(), n.ID))
			p.Sleep(Time(1+rng.intn(20)) * 0.003)
			n.Restore()
			log = append(log, fmt.Sprintf("%g faults restore node%d", p.Now(), n.ID))
		}
	})
	if seed%2 == 1 {
		s.RunUntil(0.4 + Time(rng.intn(40))*0.0123)
	} else {
		s.Run()
	}
	return append(log, fmt.Sprintf("end %g %d", s.Now(), s.EventsProcessed()))
}

// TestTransferDeliveryOrderPinned pins the order in which transfers, their
// faults and their results are delivered, by a hash over forty seeded
// network schedules' logs (transferLog). The constants were recorded on
// the kernel at commit 69cb8ec, in which every NIC step of a transfer woke
// the sending process (egress Use, propagation Sleep, ingress Use), before
// transfers ran their middle steps inside the event loop; the two must
// agree event for event. A change that means to alter the order must say so and
// re-pin; nothing else may.
func TestTransferDeliveryOrderPinned(t *testing.T) {
	const (
		wantLines = 3050
		wantHash  = "6f312bd70e106174"
	)
	h := sha256.New()
	lines := 0
	for seed := uint64(1); seed <= 40; seed++ {
		for _, l := range transferLog(seed) {
			fmt.Fprintln(h, l)
			lines++
		}
	}
	got := fmt.Sprintf("%x", h.Sum(nil))[:16]
	if lines != wantLines || got != wantHash {
		t.Fatalf("transfer log: %d lines, hash %s; pinned %d lines, hash %s", lines, got, wantLines, wantHash)
	}
}

// TestTransferWakesOnce checks the mechanism behind a transfer's host cost,
// not just its clock: the event loop runs a message's NIC steps itself, so
// the sending process is resumed once per message, while the events the
// kernel delivers stay those of the kernel that woke the sender at every
// step (the event counts below were measured at commit 69cb8ec).
func TestTransferWakesOnce(t *testing.T) {
	s := New()
	a, b := s.NewNode(0, DefaultNodeConfig()), s.NewNode(1, DefaultNodeConfig())
	var sendWakes, tryWakes uint64
	s.Spawn("sender", func(p *Proc) {
		h := s.handoffs
		a.Send(p, b, 4096)
		sendWakes = s.handoffs - h
		h = s.handoffs
		if err := a.TrySend(p, b, 4096); err != nil {
			t.Errorf("TrySend: %v", err)
		}
		tryWakes = s.handoffs - h
	})
	s.Run()
	if sendWakes != 1 || tryWakes != 1 {
		t.Errorf("an uncontended Send woke its process %d times and TrySend %d, want 1 each", sendWakes, tryWakes)
	}
	if got := s.EventsProcessed(); got != 7 {
		t.Errorf("start, Send and TrySend delivered %d events, want 7", got)
	}

	// A 20-to-1 in-cast: every message queues on one ingress NIC, and each
	// sender is still resumed twice, to start and when its message is in.
	s = New()
	sink := s.NewNode(0, DefaultNodeConfig())
	for i := range 20 {
		src := s.NewNode(i+1, DefaultNodeConfig())
		s.Spawn("sender", func(p *Proc) { src.Send(p, sink, 4096) })
	}
	s.Run()
	if s.handoffs != 40 {
		t.Errorf("20 senders into one NIC made %d hand-offs, want 40", s.handoffs)
	}
	if got := s.EventsProcessed(); got != 99 {
		t.Errorf("the in-cast delivered %d events, want 99", got)
	}
}

// TestGoexitInProcessEndsRun: a process that calls runtime.Goexit (as
// t.FailNow does) counts as finished, and the run goes on to its end
// instead of hanging — including when the process runs on a goroutine a
// finished process left behind, and for spawns that follow it.
func TestGoexitInProcessEndsRun(t *testing.T) {
	finished := make(chan []string, 1)
	go func() {
		s := New()
		var order []string
		s.Spawn("main", func(p *Proc) {
			s.Spawn("first", func(*Proc) { order = append(order, "first") })
			p.Sleep(1)
			q := s.Spawn("quitter", func(q *Proc) {
				q.Sleep(1)
				runtime.Goexit()
			})
			q.Done().Wait(p)
			order = append(order, "quitter done")
			s.Spawn("after", func(a *Proc) {
				a.Sleep(1)
				order = append(order, "after")
			})
			p.Sleep(5)
		})
		s.Run()
		finished <- append(order, fmt.Sprint(s.Now()))
	}()
	select {
	case got := <-finished:
		if want := "[first quitter done after 7]"; fmt.Sprint(got) != want {
			t.Fatalf("run = %v, want %s", got, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Run hung after a process called runtime.Goexit")
	}
}

// TestProcessGoroutinesDoNotLeak: however a Sim ends — Run draining it,
// RunUntil stopping it mid-flight, or a process panicking — every goroutine
// it started ends with it, the parked idle ones included.
func TestProcessGoroutinesDoNotLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	populate := func(s *Sim, ticker bool) {
		r := s.NewResource(1)
		mb := s.NewMailbox()
		never := s.NewSignal()
		for i := range 8 {
			s.Spawn("quick", func(p *Proc) { p.Sleep(Time(i) * 0.1) })
		}
		s.Spawn("waiter", func(p *Proc) { never.Wait(p) })
		s.Spawn("reader", func(p *Proc) { mb.Get(p) })
		for range 3 {
			s.Spawn("user", func(p *Proc) { r.Use(p, 10) })
		}
		if !ticker {
			return
		}
		s.Spawn("ticker", func(p *Proc) {
			for {
				p.Sleep(1)
				g := s.NewGroup()
				g.Go("child", func(c *Proc) { c.Sleep(0.5) })
				g.Wait(p)
			}
		})
	}
	for range 30 {
		s := New()
		populate(s, false)
		s.Run()

		s = New()
		populate(s, true) // the ticker never ends
		s.RunUntil(3.3)

		s = New()
		populate(s, true)
		s.Spawn("bad", func(p *Proc) {
			p.Sleep(2)
			panic("boom")
		})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the process panic did not reach RunUntil's caller")
				}
			}()
			s.Run()
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines before the runs, %d after", base, n)
	}
}

// TestProcessesBlockOnHostSync: a process body may block on host
// synchronisation while the loop has handed it control — par.Range's
// WaitGroup when a linalg kernel is wide enough to fan out (as inside a
// server handler), or a plain channel fed by a goroutine outside the
// simulation. Every process still finishes with the serial result, at the
// virtual time its sleeps add up to. scripts/check.sh runs it under -race.
func TestProcessesBlockOnHostSync(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const procs, rounds = 4, 3
	n := 2 * par.MinParallel
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 97)
	}
	feeds := make([]chan float64, procs)
	for k := range feeds {
		feeds[k] = make(chan float64)
		go func() {
			for r := range rounds {
				feeds[k] <- float64(k + r + 1)
			}
		}()
	}
	ys := make([][]float64, procs)
	fanouts := par.PoolStats().Parallel
	s := New()
	for k := range procs {
		s.Spawn("axpy", func(p *Proc) {
			y := make([]float64, n)
			for range rounds {
				linalg.Axpy(<-feeds[k], x, y)
				p.Sleep(1)
			}
			ys[k] = y
		})
	}
	s.Run()
	if s.Now() != rounds {
		t.Errorf("run ended at %v, want %d", s.Now(), rounds)
	}
	if got := par.PoolStats().Parallel - fanouts; got < procs*rounds {
		t.Errorf("%d Axpy calls fanned out, want %d", got, procs*rounds)
	}
	for k, y := range ys {
		for i := range y {
			want := 0.0
			for r := range rounds {
				want += float64(k+r+1) * x[i]
			}
			if y[i] != want {
				t.Fatalf("process %d: y[%d] = %v, want %v", k, i, y[i], want)
			}
		}
	}
}

// TestKernelZeroAlloc is the kernel's allocation contract: once warm, a
// Sleep, an uncontended Resource.Use, a mailbox ping-pong, a Send and a
// TrySend allocate nothing per event. scripts/check.sh runs it without
// -race.
func TestKernelZeroAlloc(t *testing.T) {
	s := New()
	r := s.NewResource(1)
	a, b := s.NewNode(0, DefaultNodeConfig()), s.NewNode(1, DefaultNodeConfig())
	ping, pong := s.NewMailbox(), s.NewMailbox()
	ball := new(int)
	var allocs float64
	s.Spawn("echo", func(p *Proc) {
		for {
			pong.Put(ping.Get(p))
		}
	})
	s.Spawn("driver", func(p *Proc) {
		events := s.EventsProcessed()
		round := func() {
			p.Sleep(0.5)
			r.Use(p, 0.25)
			ping.Put(ball)
			pong.Get(p)
			a.Send(p, b, 4096)
			if err := b.TrySend(p, a, 4096); err != nil {
				t.Error(err)
			}
		}
		for range 16 {
			round()
		}
		allocs = testing.AllocsPerRun(200, round)
		if s.EventsProcessed() == events {
			t.Error("the measured rounds delivered no events")
		}
	})
	s.Run()
	if allocs != 0 {
		t.Fatalf("steady-state kernel round allocates %v times, want 0", allocs)
	}
}

// BenchmarkKernel measures the kernel's host cost per delivered event, and
// the share of events that resume a process (hand-offs), on three shapes: a
// mailbox ping-pong between two processes; a 20-way fan-out in the shape of
// ps.CallShards — per shard a step child sends a request, computes on the
// server and sends the reply, a chain over a record reused from round to
// round, while the parent waits on the group; and a 20-to-1 in-cast, where
// every sender's message queues on one ingress NIC.
func BenchmarkKernel(b *testing.B) {
	perEvent := func(b *testing.B, s *Sim) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.EventsProcessed()), "ns/event")
		b.ReportMetric(float64(s.handoffs)/float64(s.EventsProcessed()), "handoffs/event")
	}
	b.Run("pingpong", func(b *testing.B) {
		b.ReportAllocs()
		s := New()
		ping, pong := s.NewMailbox(), s.NewMailbox()
		ball := new(int)
		s.Spawn("echo", func(p *Proc) {
			for {
				pong.Put(ping.Get(p))
			}
		})
		s.Spawn("driver", func(p *Proc) {
			for range b.N {
				ping.Put(ball)
				pong.Get(p)
			}
		})
		b.ResetTimer()
		s.Run()
		b.StopTimer()
		perEvent(b, s)
	})
	b.Run("fanout20", func(b *testing.B) {
		b.ReportAllocs()
		s := New()
		client := s.NewNode(0, DefaultNodeConfig())
		servers := make([]*Node, 20)
		for i := range servers {
			servers[i] = s.NewNode(i+1, DefaultNodeConfig())
		}
		// Each call's steps are bound once, as ps binds them to a pooled
		// record.
		starts := make([]func(*Proc), len(servers))
		for i, srv := range servers {
			replied := func(*Proc) {}
			computed := func(p *Proc) { srv.TrySendThen(p, client, 4096, replied) }
			requested := func(p *Proc) { srv.ComputeThen(p, 1e4, computed) }
			starts[i] = func(p *Proc) { client.TrySendThen(p, srv, 4096, requested) }
		}
		s.Spawn("driver", func(p *Proc) {
			g := s.NewGroup()
			for range b.N {
				for _, start := range starts {
					g.Step("call", start, nil)
				}
				g.Wait(p)
			}
		})
		b.ResetTimer()
		s.Run()
		b.StopTimer()
		perEvent(b, s)
	})
	b.Run("incast20", func(b *testing.B) {
		b.ReportAllocs()
		s := New()
		sink := s.NewNode(0, DefaultNodeConfig())
		for i := range 20 {
			src := s.NewNode(i+1, DefaultNodeConfig())
			s.Spawn("sender", func(p *Proc) {
				for range b.N {
					src.Send(p, sink, 4096)
				}
			})
		}
		b.ResetTimer()
		s.Run()
		b.StopTimer()
		perEvent(b, s)
	})
}
