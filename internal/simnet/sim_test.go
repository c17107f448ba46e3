package simnet

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var end Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1.5)
		p.Sleep(2.5)
		end = p.Now()
	})
	s.Run()
	if end != 4.0 {
		t.Fatalf("end = %v, want 4.0", end)
	}
	if s.Now() != 4.0 {
		t.Fatalf("sim.Now() = %v, want 4.0", s.Now())
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	s := New()
	order := []string{}
	s.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "a")
	})
	s.Spawn("b", func(p *Proc) {
		p.Sleep(-5)
		order = append(order, "b")
	})
	s.Run()
	if len(order) != 2 {
		t.Fatalf("order = %v, want both processes to run", order)
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v on zero sleeps", s.Now())
	}
}

func TestEventOrderingIsFIFOAtSameTime(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			p.Sleep(1)
			order = append(order, i)
		})
	}
	s.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events ran out of spawn order: %v", order)
	}
}

func TestSignalBroadcast(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	woke := 0
	for i := 0; i < 5; i++ {
		s.Spawn("waiter", func(p *Proc) {
			sig.Wait(p)
			if p.Now() != 3 {
				t.Errorf("waiter woke at %v, want 3", p.Now())
			}
			woke++
		})
	}
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(3)
		sig.Fire()
	})
	s.Run()
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestSignalWaitAfterFire(t *testing.T) {
	s := New()
	sig := s.NewSignal()
	sig.Fire()
	ran := false
	s.Spawn("late", func(p *Proc) {
		sig.Wait(p) // must not block
		ran = true
	})
	s.Run()
	if !ran {
		t.Fatal("waiter on already-fired signal never ran")
	}
}

func TestResourceSerializes(t *testing.T) {
	s := New()
	r := s.NewResource(1)
	var finish []Time
	for i := 0; i < 4; i++ {
		s.Spawn("user", func(p *Proc) {
			r.Use(p, 2)
			finish = append(finish, p.Now())
		})
	}
	s.Run()
	want := []Time{2, 4, 6, 8}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	s := New()
	r := s.NewResource(2)
	var finish []Time
	for i := 0; i < 4; i++ {
		s.Spawn("user", func(p *Proc) {
			r.Use(p, 2)
			finish = append(finish, p.Now())
		})
	}
	s.Run()
	want := []Time{2, 2, 4, 4}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	s := New()
	r := s.NewResource(1)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		s.Spawn("user", func(p *Proc) {
			r.Use(p, 1)
			order = append(order, i)
		})
	}
	s.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("resource admitted out of FIFO order: %v", order)
	}
}

func TestMailboxDelivers(t *testing.T) {
	s := New()
	mb := s.NewMailbox()
	var got []int
	s.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Get(p).(int))
		}
	})
	s.Spawn("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
			mb.Put(i)
		}
	})
	s.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got = %v, want [0 1 2]", got)
	}
}

func TestMailboxManyReceivers(t *testing.T) {
	s := New()
	mb := s.NewMailbox()
	received := 0
	for i := 0; i < 4; i++ {
		s.Spawn("recv", func(p *Proc) {
			mb.Get(p)
			received++
		})
	}
	s.Spawn("send", func(p *Proc) {
		p.Sleep(1)
		for i := 0; i < 4; i++ {
			mb.Put(i)
		}
	})
	s.Run()
	if received != 4 {
		t.Fatalf("received = %d, want 4", received)
	}
}

func TestGroupWait(t *testing.T) {
	s := New()
	var end Time
	s.Spawn("parent", func(p *Proc) {
		g := s.NewGroup()
		for i := 1; i <= 3; i++ {
			d := Time(i)
			g.Go("child", func(c *Proc) { c.Sleep(d) })
		}
		g.Wait(p)
		end = p.Now()
	})
	s.Run()
	if end != 3 {
		t.Fatalf("group wait finished at %v, want 3", end)
	}
}

func TestGroupWaitEmpty(t *testing.T) {
	s := New()
	ran := false
	s.Spawn("parent", func(p *Proc) {
		g := s.NewGroup()
		g.Wait(p)
		ran = true
	})
	s.Run()
	if !ran {
		t.Fatal("Wait on empty group blocked forever")
	}
}

// TestGroupReusedAfterWait: a group whose Wait has returned waits again for
// the children Go adds after it.
func TestGroupReusedAfterWait(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("parent", func(p *Proc) {
		g := s.NewGroup()
		g.Go("a", func(c *Proc) {
			c.Sleep(1)
			order = append(order, "a")
		})
		g.Wait(p)
		g.Go("b", func(c *Proc) {
			c.Sleep(1)
			order = append(order, "b")
		})
		g.Wait(p)
		order = append(order, "parent after b")
	})
	s.Run()
	if got, want := fmt.Sprint(order), "[a b parent after b]"; got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestDoneSignal(t *testing.T) {
	s := New()
	var end Time
	child := s.Spawn("child", func(p *Proc) { p.Sleep(7) })
	s.Spawn("parent", func(p *Proc) {
		child.Done().Wait(p)
		end = p.Now()
	})
	s.Run()
	if end != 7 {
		t.Fatalf("Done fired at %v, want 7", end)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	s := New()
	var reached []Time
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(1)
			reached = append(reached, p.Now())
		}
	})
	s.RunUntil(5)
	if len(reached) != 5 {
		t.Fatalf("ticker ran %d times, want 5 (stopped at deadline)", len(reached))
	}
}

func TestBlockedProcessesUnwindCleanly(t *testing.T) {
	s := New()
	sig := s.NewSignal() // never fired
	cleaned := false
	s.Spawn("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		sig.Wait(p)
		t.Error("stuck process should never resume")
	})
	s.Run()
	if !cleaned {
		t.Fatal("deferred cleanup did not run during unwind")
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	s := New()
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Run did not propagate process panic")
		}
	}()
	s.Run()
}

func TestNodeTransferTime(t *testing.T) {
	s := New()
	cfg := NodeConfig{BandwidthBps: 100, LatencySec: 0.5, Cores: 1, WorkRate: 10}
	a := s.NewNode(0, cfg)
	b := s.NewNode(1, cfg)
	var end Time
	s.Spawn("xfer", func(p *Proc) {
		a.Send(p, b, 200) // 2s egress + 0.5s latency + 2s ingress
		end = p.Now()
	})
	s.Run()
	if math.Abs(end-4.5) > 1e-9 {
		t.Fatalf("transfer finished at %v, want 4.5", end)
	}
	if a.BytesSent != 200 || b.BytesRecv != 200 {
		t.Fatalf("byte counters wrong: sent=%v recv=%v", a.BytesSent, b.BytesRecv)
	}
}

func TestIncastSerializesAtReceiver(t *testing.T) {
	// W senders each push S bytes to one receiver: the receiver's ingress NIC
	// should make the total take ~W*S/bw, not S/bw. This is the driver
	// bottleneck at the heart of the PS2 paper.
	s := New()
	cfg := NodeConfig{BandwidthBps: 100, LatencySec: 0, Cores: 1, WorkRate: 1}
	recv := s.NewNode(0, cfg)
	var last Time
	g := s.NewGroup()
	for i := 1; i <= 8; i++ {
		n := s.NewNode(i, cfg)
		g.Go("sender", func(p *Proc) {
			n.Send(p, recv, 100) // 1s egress, 1s ingress
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	s.Spawn("join", func(p *Proc) { g.Wait(p) })
	s.Run()
	// Egress happens in parallel (1s); ingress serializes (8s): total 9s.
	if math.Abs(last-9) > 1e-9 {
		t.Fatalf("in-cast finished at %v, want 9", last)
	}
}

func TestFanoutParallelReceivers(t *testing.T) {
	// The mirror image: one node sends to 8 receivers; its own egress NIC
	// serializes (8*S/bw) and the last packet then spends S/bw on its
	// receiver's ingress, so the store-and-forward total is 9 seconds.
	s := New()
	cfg := NodeConfig{BandwidthBps: 100, LatencySec: 0, Cores: 1, WorkRate: 1}
	src := s.NewNode(0, cfg)
	var last Time
	g := s.NewGroup()
	for i := 1; i <= 8; i++ {
		n := s.NewNode(i, cfg)
		g.Go("send", func(p *Proc) {
			src.Send(p, n, 100)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	s.Spawn("join", func(p *Proc) { g.Wait(p) })
	s.Run()
	if math.Abs(last-9) > 1e-9 {
		t.Fatalf("fan-out finished at %v, want 9", last)
	}
}

func TestComputeUsesCores(t *testing.T) {
	s := New()
	n := s.NewNode(0, NodeConfig{BandwidthBps: 1, LatencySec: 0, Cores: 2, WorkRate: 10})
	var finish []Time
	for i := 0; i < 4; i++ {
		s.Spawn("task", func(p *Proc) {
			n.Compute(p, 20) // 2s each, 2 cores
			finish = append(finish, p.Now())
		})
	}
	s.Run()
	want := []Time{2, 2, 4, 4}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestLocalSendIsFree(t *testing.T) {
	s := New()
	n := s.NewNode(0, NodeConfig{BandwidthBps: 1, LatencySec: 10, Cores: 1, WorkRate: 1})
	var end Time
	s.Spawn("local", func(p *Proc) {
		n.Send(p, n, 1e9)
		end = p.Now()
	})
	s.Run()
	if end != 0 {
		t.Fatalf("local send took %v, want 0", end)
	}
}

// Property: virtual time never goes backwards across an arbitrary set of
// sleeps from concurrently spawned processes.
func TestClockMonotonicProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) > 40 {
			delays = delays[:40]
		}
		s := New()
		prev := Time(-1)
		monotonic := true
		for _, d := range delays {
			d := Time(d) / 16
			s.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				if p.Now() < prev {
					monotonic = false
				}
				prev = p.Now()
				p.Sleep(d / 2)
				if p.Now() < prev {
					monotonic = false
				}
				prev = p.Now()
			})
		}
		s.Run()
		return monotonic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO resource with capacity 1 and unit holds finishes the k-th
// arrival at time k, for any number of arrivals.
func TestResourceQueueingProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%32) + 1
		s := New()
		r := s.NewResource(1)
		var finish []Time
		for i := 0; i < n; i++ {
			s.Spawn("u", func(p *Proc) {
				r.Use(p, 1)
				finish = append(finish, p.Now())
			})
		}
		s.Run()
		if len(finish) != n {
			return false
		}
		for i, tm := range finish {
			if math.Abs(tm-Time(i+1)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New()
		r := s.NewResource(2)
		mb := s.NewMailbox()
		var trace []Time
		for i := 0; i < 10; i++ {
			i := i
			s.Spawn("w", func(p *Proc) {
				p.Sleep(Time(i%3) * 0.25)
				r.Use(p, 0.5)
				mb.Put(i)
				trace = append(trace, p.Now())
			})
		}
		s.Spawn("drain", func(p *Proc) {
			for i := 0; i < 10; i++ {
				mb.Get(p)
				trace = append(trace, p.Now())
			}
		})
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEventsProcessedCounter(t *testing.T) {
	s := New()
	if s.EventsProcessed() != 0 {
		t.Fatal("fresh sim has processed events")
	}
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1)
		}
	})
	s.Run()
	// 1 spawn wake + 5 sleep wakes.
	if got := s.EventsProcessed(); got != 6 {
		t.Fatalf("EventsProcessed = %d, want 6", got)
	}
}

func TestSlowDownStretchesCompute(t *testing.T) {
	s := New()
	n := s.NewNode(0, NodeConfig{BandwidthBps: 1e9, Cores: 1, WorkRate: 100})
	var first, second Time
	s.Spawn("worker", func(p *Proc) {
		n.Compute(p, 100) // 1s at rate 100
		first = p.Now()
		n.SlowDown(4)
		n.Compute(p, 100) // 4s at rate 25
		second = p.Now()
	})
	s.Run()
	if first != 1 || second != 5 {
		t.Fatalf("compute times %v/%v, want 1/5", first, second)
	}
	if n.WorkRate() != 25 {
		t.Fatalf("WorkRate = %v, want 25", n.WorkRate())
	}
	n.SlowDown(0) // no-op
	if n.WorkRate() != 25 {
		t.Fatal("SlowDown(0) should be a no-op")
	}
}
