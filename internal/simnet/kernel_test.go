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

// TestKernelZeroAlloc is the kernel's allocation contract: once warm, a
// Sleep, an uncontended Resource.Use and a mailbox ping-pong allocate
// nothing per event. scripts/check.sh runs it without -race.
func TestKernelZeroAlloc(t *testing.T) {
	s := New()
	r := s.NewResource(1)
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

// BenchmarkKernel measures the kernel's host cost per delivered event on
// two shapes: a mailbox ping-pong between two processes, and a 20-way
// fan-out in the shape of ps.CallShard — per shard a child process sends a
// request, computes on the server and sends the reply, while the parent
// waits on the group.
func BenchmarkKernel(b *testing.B) {
	perEvent := func(b *testing.B, s *Sim) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.EventsProcessed()), "ns/event")
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
		s.Spawn("driver", func(p *Proc) {
			for range b.N {
				g := s.NewGroup()
				for _, srv := range servers {
					g.Go("call", func(cp *Proc) {
						client.Send(cp, srv, 4096)
						srv.Compute(cp, 1e4)
						srv.Send(cp, client, 4096)
					})
				}
				g.Wait(p)
			}
		})
		b.ResetTimer()
		s.Run()
		b.StopTimer()
		perEvent(b, s)
	})
}
