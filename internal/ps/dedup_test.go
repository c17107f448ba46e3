package ps

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/simnet"
)

// minScanLedger is the reference the Ledger must match: it recomputes the
// watermark from scratch after every settle — the last ID issued when nothing
// is in flight, one below the smallest in-flight ID otherwise.
type minScanLedger struct {
	seq, acked uint64
	inFlight   map[uint64]bool
}

func (r *minScanLedger) next() uint64 {
	r.seq++
	r.inFlight[r.seq] = true
	return r.seq
}

func (r *minScanLedger) settle(seq uint64) {
	delete(r.inFlight, seq)
	if len(r.inFlight) == 0 {
		r.acked = r.seq
		return
	}
	min := r.seq
	for s := range r.inFlight {
		if s < min {
			min = s
		}
	}
	r.acked = min - 1
}

// TestLedgerMatchesMinScanReference runs seeded schedules of interleaved
// Next and out-of-order Settle calls and checks the incremental watermark
// against the min-scan reference after every step.
func TestLedgerMatchesMinScanReference(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		session := uint32(seed % 3) // session 0 is the simulated master's
		hi := uint64(session) << 32
		l := NewLedger(session)
		ref := minScanLedger{inFlight: map[uint64]bool{}}
		var open []uint64
		for step := 0; step < 100; step++ {
			if len(open) == 0 || rng.Intn(5) < 2 {
				id := l.Next()
				if want := hi | ref.next(); id != want {
					t.Fatalf("seed %d step %d: Next = %#x, want %#x", seed, step, id, want)
				}
				open = append(open, id)
			} else {
				i := rng.Intn(len(open))
				id := open[i]
				open = append(open[:i], open[i+1:]...)
				l.Settle(id)
				ref.settle(id - hi)
			}
			if got, want := l.Watermark(), hi|ref.acked; got != want {
				t.Fatalf("seed %d step %d: Watermark = %#x, want %#x", seed, step, got, want)
			}
			if got, want := l.Settled(), len(ref.inFlight) == 0; got != want {
				t.Fatalf("seed %d step %d: Settled = %v, want %v", seed, step, got, want)
			}
		}
	}
}

// TestAppliedSetRetiresOwnSessionOnly: a watermark drops exactly its own
// session's entries at or below it and reports how many; one that did not
// advance past the session's last watermark changes nothing.
func TestAppliedSetRetiresOwnSessionOnly(t *testing.T) {
	const a, b = uint64(7) << 32, uint64(9) << 32
	var set AppliedSet
	for seq := uint64(1); seq <= 10; seq++ {
		set.Record(a|seq, []byte{byte(seq)})
		set.Record(b|seq, nil)
	}
	if got := set.Retire(a | 4); got != 4 {
		t.Fatalf("Retire(a|4) dropped %d entries, want 4", got)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		resp, ok := set.Lookup(a | seq)
		if ok != (seq > 4) {
			t.Fatalf("a|%d present = %v after Retire(a|4)", seq, ok)
		}
		if ok && !bytes.Equal(resp, []byte{byte(seq)}) {
			t.Fatalf("a|%d replays %v, want [%d]", seq, resp, seq)
		}
		if _, ok := set.Lookup(b | seq); !ok {
			t.Fatalf("b|%d retired by session a's watermark", seq)
		}
	}
	if set.Len() != 16 {
		t.Fatalf("Len = %d, want 16", set.Len())
	}

	// An entry recorded at or below the session's retired watermark survives
	// every watermark that does not advance past the last one.
	set.Record(a|2, nil)
	for _, w := range []uint64{a | 4, a | 3, a} {
		if got := set.Retire(w); got != 0 {
			t.Fatalf("Retire(%#x) without advancing dropped %d entries", w, got)
		}
	}
	if set.Len() != 17 {
		t.Fatalf("Len = %d after non-advancing retires, want 17", set.Len())
	}
	if got := set.Retire(a | 6); got != 3 {
		t.Fatalf("Retire(a|6) dropped %d entries, want 3 (a|2, a|5, a|6)", got)
	}
	if got := set.Retire(b | 10); got != 10 {
		t.Fatalf("Retire(b|10) dropped %d entries, want 10", got)
	}
	if set.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (a|7..a|10)", set.Len())
	}
}

// maxDedupSize returns the largest applied-set across servers.
func maxDedupSize(m *Master) int {
	max := 0
	for i := 0; i < m.NumServers(); i++ {
		if n := m.Server(i).DedupSize(); n > max {
			max = n
		}
	}
	return max
}

// TestDedupBoundedByWatermark drives many mutating calls through a lossy
// network and asserts the servers' dedup sets stay bounded: the master's
// acknowledgement watermark rides every request, so each server retires the
// entries of calls that can never be resent instead of accumulating one entry
// per mutation forever.
func TestDedupBoundedByWatermark(t *testing.T) {
	sim, cl, m := testMaster(3)
	sim.EnableChaos(42, 0.1)
	m.Unreliable = true
	const rounds = 200
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		worker := cl.Executors[0]
		peak := 0
		for r := 0; r < rounds; r++ {
			sv, _ := linalg.NewSparse([]int{r % 30}, []float64{1})
			MustOK(mat.PushAdd(p, worker, 0, sv))
			if n := maxDedupSize(m); n > peak {
				peak = n
			}
		}
		// Each round issues at most one call per server; nothing older than
		// the in-flight window may survive on any server.
		if peak > 16 {
			t.Fatalf("dedup set peaked at %d entries over %d mutations; watermark not pruning", peak, rounds)
		}
		if m.Net.DedupPruned == 0 {
			t.Fatal("no dedup entries were ever pruned")
		}
		if !m.ledger.Settled() {
			t.Fatalf("watermark %d lags the last ID %d after all calls returned", m.ledger.Watermark(), m.ledger.seq)
		}
	})
}

// TestReadOnlyCallsAllocateNoIDs asserts the read-only invoke path stays out
// of the dedup machinery even in unreliable runs: reductions are naturally
// idempotent, so they must not grow the request-ID sequence or any server's
// applied set.
func TestReadOnlyCallsAllocateNoIDs(t *testing.T) {
	sim, cl, m := testMaster(3)
	m.Unreliable = true
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		worker := cl.Executors[0]
		vals := make([]float64, 30)
		for i := range vals {
			vals[i] = float64(i % 5)
		}
		MustOK(mat.SetRow(p, worker, 0, vals))
		seqAfterWrite := m.ledger.seq
		sum := InvokeOp{RespBytes: 8, Fn: func(_ int, sh *Shard) float64 { return linalg.Sum(sh.Rows[0]) }}
		Must(mat.Invoke(p, worker, sum))
		Must(mat.Invoke(p, worker, sum, sum))
		if _, err := mat.PullRow(p, worker, 0); err != nil {
			t.Fatal(err)
		}
		if m.ledger.seq != seqAfterWrite {
			t.Fatalf("read-only operators allocated %d request IDs", m.ledger.seq-seqAfterWrite)
		}
	})
}

// TestCrashResetsPruneWatermark asserts a recovered server re-enters the
// dedup protocol cleanly: its incarnation-local applied set and prune cursor
// both restart at zero, and subsequent mutations still dedup and prune.
func TestCrashResetsPruneWatermark(t *testing.T) {
	sim, cl, m := testMaster(3)
	m.Unreliable = true
	run(sim, func(p *simnet.Proc) {
		mat, err := m.CreateMatrix(p, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		worker := cl.Executors[0]
		for r := 0; r < 10; r++ {
			sv, _ := linalg.NewSparse([]int{r}, []float64{1})
			MustOK(mat.PushAdd(p, worker, 0, sv))
		}
		m.CrashServer(0)
		m.RecoverServer(p, 0)
		if got := len(m.Server(0).applied.retiredTo); got != 0 {
			t.Fatalf("recovered server kept %d sessions' prune cursors, want none", got)
		}
		if got := m.Server(0).DedupSize(); got != 0 {
			t.Fatalf("recovered server applied set has %d entries, want 0", got)
		}
		for r := 0; r < 10; r++ {
			sv, _ := linalg.NewSparse([]int{r}, []float64{1})
			MustOK(mat.PushAdd(p, worker, 0, sv))
		}
		if n := maxDedupSize(m); n > 16 {
			t.Fatalf("dedup set grew to %d entries after recovery", n)
		}
	})
}
