package simnet

import (
	"errors"
	"math"
	"testing"
)

func faultPair(s *Sim) (*Node, *Node) {
	cfg := NodeConfig{BandwidthBps: 100, LatencySec: 0.5, Cores: 1, WorkRate: 10}
	return s.NewNode(0, cfg), s.NewNode(1, cfg)
}

func TestTrySendDeliversLikeSend(t *testing.T) {
	s := New()
	a, b := faultPair(s)
	var end Time
	var err error
	s.Spawn("xfer", func(p *Proc) {
		err = a.TrySend(p, b, 200) // 2s egress + 0.5s latency + 2s ingress
		end = p.Now()
	})
	s.Run()
	if err != nil {
		t.Fatalf("TrySend: %v", err)
	}
	if math.Abs(float64(end)-4.5) > 1e-9 {
		t.Fatalf("transfer finished at %v, want 4.5", end)
	}
	if a.BytesSent != 200 || b.BytesRecv != 200 {
		t.Fatalf("byte counters wrong: sent=%v recv=%v", a.BytesSent, b.BytesRecv)
	}
}

func TestTrySendFromDeadNode(t *testing.T) {
	s := New()
	a, b := faultPair(s)
	a.Fail()
	var err error
	s.Spawn("xfer", func(p *Proc) { err = a.TrySend(p, b, 100) })
	s.Run()
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if a.BytesSent != 0 || b.BytesRecv != 0 {
		t.Fatalf("dead sender moved bytes: sent=%v recv=%v", a.BytesSent, b.BytesRecv)
	}
}

func TestTrySendToDeadNodeChargesSender(t *testing.T) {
	s := New()
	a, b := faultPair(s)
	b.Fail()
	var err error
	var end Time
	s.Spawn("xfer", func(p *Proc) {
		err = a.TrySend(p, b, 200)
		end = p.Now()
	})
	s.Run()
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	// The sender still pays egress serialization + propagation: the bytes
	// left its NIC before anyone could know the peer was dead.
	if math.Abs(float64(end)-2.5) > 1e-9 {
		t.Fatalf("failed send took %v, want 2.5 (egress + latency)", end)
	}
	if a.BytesSent != 200 {
		t.Fatalf("sender egress counter = %v, want 200", a.BytesSent)
	}
	if b.BytesRecv != 0 {
		t.Fatalf("dead receiver counted %v bytes", b.BytesRecv)
	}
}

func TestFailRestoreRoundTrip(t *testing.T) {
	s := New()
	a, b := faultPair(s)
	if !b.Up() {
		t.Fatal("new node should be up")
	}
	b.Fail()
	if b.Up() {
		t.Fatal("failed node reports up")
	}
	b.Restore()
	var err error
	s.Spawn("xfer", func(p *Proc) { err = a.TrySend(p, b, 10) })
	s.Run()
	if err != nil {
		t.Fatalf("send to restored node: %v", err)
	}
}

func TestChaosLossDropsMessages(t *testing.T) {
	s := New()
	a, b := faultPair(s)
	s.EnableChaos(1, 1.0) // drop everything
	var err error
	var end Time
	s.Spawn("xfer", func(p *Proc) {
		err = a.TrySend(p, b, 200)
		end = p.Now()
	})
	s.Run()
	if !errors.Is(err, ErrMsgLost) {
		t.Fatalf("err = %v, want ErrMsgLost", err)
	}
	// Sender paid egress + latency before the drop.
	if math.Abs(float64(end)-2.5) > 1e-9 {
		t.Fatalf("lost send took %v, want 2.5", end)
	}
	if b.BytesRecv != 0 {
		t.Fatalf("lost message delivered %v bytes", b.BytesRecv)
	}
	if s.Chaos().MessagesLost != 1 {
		t.Fatalf("MessagesLost = %d, want 1", s.Chaos().MessagesLost)
	}
}

func TestPlainSendIgnoresChaos(t *testing.T) {
	s := New()
	a, b := faultPair(s)
	s.EnableChaos(1, 1.0)
	s.Spawn("xfer", func(p *Proc) { a.Send(p, b, 100) })
	s.Run()
	if b.BytesRecv != 100 {
		t.Fatalf("Send under chaos delivered %v bytes, want 100", b.BytesRecv)
	}
}

func TestChaosLinkOverrides(t *testing.T) {
	s := New()
	a, b := faultPair(s)
	c := s.EnableChaos(1, 1.0)
	c.SetLinkLoss(a.ID, b.ID, 0) // this one link is clean
	var err error
	s.Spawn("xfer", func(p *Proc) { err = a.TrySend(p, b, 100) })
	s.Run()
	if err != nil {
		t.Fatalf("clean-link send: %v", err)
	}
	if b.BytesRecv != 100 {
		t.Fatalf("BytesRecv = %v, want 100", b.BytesRecv)
	}
}

func TestChaosDelayBoundedAndDeterministic(t *testing.T) {
	deliver := func() []Time {
		s := New()
		a, b := faultPair(s)
		c := s.EnableChaos(7, 0)
		c.SetLinkDelay(a.ID, b.ID, 2.0)
		var times []Time
		s.Spawn("xfer", func(p *Proc) {
			for i := 0; i < 16; i++ {
				start := p.Now()
				if err := a.TrySend(p, b, 100); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				times = append(times, p.Now()-start)
			}
		})
		s.Run()
		return times
	}
	t1, t2 := deliver(), deliver()
	base := Time(2.5) // 1s egress + 0.5 latency + 1s ingress
	varied := false
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("send %d: %v vs %v — chaos delay not deterministic", i, t1[i], t2[i])
		}
		if t1[i] < base-1e-9 || t1[i] > base+2.0+1e-9 {
			t.Fatalf("send %d took %v, want within [%v, %v]", i, t1[i], base, base+2.0)
		}
		if t1[i] > base+1e-9 {
			varied = true
		}
	}
	if !varied {
		t.Fatal("extra delay never applied across 16 sends")
	}
}

func TestChaosLossRateRoughlyHonored(t *testing.T) {
	s := New()
	a, b := faultPair(s)
	s.EnableChaos(42, 0.3)
	lost := 0
	const n = 500
	s.Spawn("xfer", func(p *Proc) {
		for i := 0; i < n; i++ {
			if errors.Is(a.TrySend(p, b, 1), ErrMsgLost) {
				lost++
			}
		}
	})
	s.Run()
	if lost < n/5 || lost > n/2 {
		t.Fatalf("lost %d of %d at p=0.3 — generator looks broken", lost, n)
	}
	if uint64(lost) != s.Chaos().MessagesLost {
		t.Fatalf("counter %d != observed %d", s.Chaos().MessagesLost, lost)
	}
}

func TestFaultPlanFiresInOrderAndStops(t *testing.T) {
	s := New()
	var fired []string
	var at []Time
	stop := s.NewSignal()
	plan := &FaultPlan{Actions: []FaultAction{
		// Deliberately unsorted.
		{At: 2.0, Name: "second", Do: func() { fired = append(fired, "second"); at = append(at, s.Now()) }},
		{At: 1.0, Name: "first", Do: func() { fired = append(fired, "first"); at = append(at, s.Now()) }},
		{At: 9.0, Name: "never", Do: func() { fired = append(fired, "never") }},
	}}
	s.StartFaultPlan(plan, stop)
	s.Spawn("driver", func(p *Proc) {
		p.Sleep(3)
		stop.Fire()
	})
	s.Run()
	if len(fired) != 2 || fired[0] != "first" || fired[1] != "second" {
		t.Fatalf("fired = %v, want [first second]", fired)
	}
	if at[0] != 1.0 || at[1] != 2.0 {
		t.Fatalf("actions fired at %v, want [1 2]", at)
	}
}

func TestFaultPlanCrashMidTransfer(t *testing.T) {
	// The receiver dies while a long transfer is serializing on its ingress
	// NIC: the sender gets ErrNodeDown, not a delivered message.
	s := New()
	a, b := faultPair(s) // 100 B/s, 0.5s latency: 1000 bytes ≈ 10s ingress
	stop := s.NewSignal()
	s.StartFaultPlan(&FaultPlan{Actions: []FaultAction{
		{At: 5, Name: "crash-b", Do: func() { b.Fail() }},
	}}, stop)
	var err error
	s.Spawn("xfer", func(p *Proc) {
		err = a.TrySend(p, b, 1000)
		stop.Fire()
	})
	s.Run()
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown (crash landed mid-transfer)", err)
	}
	if b.BytesRecv != 0 {
		t.Fatalf("dead receiver counted %v bytes", b.BytesRecv)
	}
}
