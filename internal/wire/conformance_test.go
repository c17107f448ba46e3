package wire

// The transport conformance suite: each test pins one behaviour the two
// transports under the PS data plane must share, with one subtest driving the
// simnet kernel's fallible send (what ps.CallShard calls, on virtual time) and
// one driving this package's TCP backend on real sockets.
//
//   delivery       a send between live endpoints succeeds and is counted
//   timeout        a lost/stalled exchange surfaces as a retryable timeout
//                  signal, not a hang and not a permanent failure
//   endpoint-down  a dead endpoint surfaces as the down-classified error
//   large-payload  multi-megabyte payloads survive the trip intact
//   exactly-once   a resent mutating request applies once (TCP only: the
//                  simnet side of this contract is pinned by the ps dedup
//                  tests, which drive the same machinery through chaos)

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

// fastRetry keeps conformance failures quick: ~100ms per attempt.
func fastRetry() Retry {
	return Retry{
		Timeout:    100 * time.Millisecond,
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 40 * time.Millisecond,
		MaxRetries: 3,
	}
}

// simPair builds a one-executor, one-server simulated cluster and runs fn
// on a spawned process.
func simPair(t *testing.T, fn func(p *simnet.Proc, from, to *simnet.Node)) {
	t.Helper()
	sim := simnet.New()
	cfg := cluster.DefaultConfig()
	cfg.Executors = 1
	cfg.Servers = 1
	cl := cluster.New(sim, cfg)
	sim.Spawn("conformance", func(p *simnet.Proc) {
		fn(p, cl.Executors[0], cl.Servers[0])
	})
	sim.Run()
}

// startServer boots a wire server on a loopback port and returns it with
// its address; cleanup closes it.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv, addr
}

func TestConformanceDelivery(t *testing.T) {
	t.Run("simnet", func(t *testing.T) {
		simPair(t, func(p *simnet.Proc, from, to *simnet.Node) {
			if err := from.TrySend(p, to, 1024); err != nil {
				t.Errorf("send between live endpoints failed: %v", err)
			}
			if from.BytesSent != 1024 || to.BytesRecv != 1024 {
				t.Errorf("NIC counters = %v sent, %v received, want 1024B each", from.BytesSent, to.BytesRecv)
			}
		})
	})
	t.Run("tcp", func(t *testing.T) {
		_, addr := startServer(t)
		c := NewClient([]string{addr}, fastRetry())
		defer c.Close()
		got, err := c.Ping(0, []byte("conformance"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte("conformance")) {
			t.Fatalf("echo = %q", got)
		}
		if st := c.Stats(); st.Calls != 1 || st.BytesOut == 0 || st.BytesIn == 0 {
			t.Fatalf("stats = %+v, want 1 counted call with traffic", st)
		}
	})
}

func TestConformanceTimeout(t *testing.T) {
	t.Run("simnet", func(t *testing.T) {
		// Total message loss: the send must surface ErrMsgLost — the signal
		// CallShard maps to its timeout-and-resend wait — not block forever
		// and not report the endpoint down.
		sim := simnet.New()
		cfg := cluster.DefaultConfig()
		cfg.Executors = 1
		cfg.Servers = 1
		cl := cluster.New(sim, cfg)
		sim.EnableChaos(1, 1.0)
		sim.Spawn("conformance", func(p *simnet.Proc) {
			err := cl.Executors[0].TrySend(p, cl.Servers[0], 256)
			if !errors.Is(err, simnet.ErrMsgLost) {
				t.Errorf("err = %v, want ErrMsgLost", err)
			}
		})
		sim.Run()
	})
	t.Run("tcp", func(t *testing.T) {
		// A listener that accepts and reads but never answers: every
		// attempt must die on the deadline and the call must classify as
		// timeout after the schedule is exhausted.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func(c net.Conn) {
					defer c.Close()
					buf := make([]byte, 4096)
					for {
						if _, err := c.Read(buf); err != nil {
							return
						}
					}
				}(conn)
			}
		}()
		c := NewClient([]string{ln.Addr().String()}, fastRetry())
		defer c.Close()
		_, err = c.Ping(0, []byte("x"))
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout class", err)
		}
		st := c.Stats()
		if st.Attempts != uint64(fastRetry().MaxRetries) {
			t.Fatalf("attempts = %d, want %d (full retry schedule)", st.Attempts, fastRetry().MaxRetries)
		}
		if st.Timeouts == 0 {
			t.Fatalf("stats = %+v, want counted timeouts", st)
		}
	})
}

func TestConformanceEndpointDown(t *testing.T) {
	t.Run("simnet", func(t *testing.T) {
		simPair(t, func(p *simnet.Proc, from, to *simnet.Node) {
			to.Fail()
			if to.Up() {
				t.Error("Up() true for failed node")
			}
			if err := from.TrySend(p, to, 256); !errors.Is(err, simnet.ErrNodeDown) {
				t.Errorf("err = %v, want ErrNodeDown", err)
			}
		})
	})
	t.Run("tcp", func(t *testing.T) {
		// Bind a port, then close it: nothing listens there afterwards.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		c := NewClient([]string{addr}, fastRetry())
		defer c.Close()
		_, err = c.Ping(0, nil)
		if !errors.Is(err, ErrEndpointDown) {
			t.Fatalf("err = %v, want ErrEndpointDown class", err)
		}
	})
}

func TestConformanceLargePayload(t *testing.T) {
	const size = 8 << 20
	t.Run("simnet", func(t *testing.T) {
		simPair(t, func(p *simnet.Proc, from, to *simnet.Node) {
			before := p.Now()
			if err := from.TrySend(p, to, size); err != nil {
				t.Errorf("large send failed: %v", err)
			}
			if p.Now() <= before {
				t.Error("large transfer advanced no virtual time")
			}
			if to.BytesRecv != size {
				t.Errorf("bytes = %v, want %v", to.BytesRecv, float64(size))
			}
		})
	})
	t.Run("tcp", func(t *testing.T) {
		_, addr := startServer(t)
		// Large transfers need a deadline that covers the copy.
		r := fastRetry()
		r.Timeout = 5 * time.Second
		c := NewClient([]string{addr}, r)
		defer c.Close()
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		got, err := c.Ping(0, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("large payload corrupted in transit")
		}
	})
}

// TestConformanceExactlyOnce resends a mutating frame with the same request
// ID — the wire picture of a client retrying after a lost response — and
// asserts the server applies it once and replays the cached response. The
// follow-up frame carries an advanced watermark and must prune the entry.
func TestConformanceExactlyOnce(t *testing.T) {
	srv, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	send := func(f Frame) []byte {
		t.Helper()
		if err := WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadResponseReuse(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	send(Frame{Op: OpCreateShard, Flags: FlagMutates, ReqID: 1,
		Payload: AppendCreateShard(nil, 1, 1, 0, 10)})
	push := Frame{Op: OpPushAdd, Flags: FlagMutates, ReqID: 2,
		Payload: AppendPushAdd(nil, 1, 0, []int{3}, []float64{5})}
	send(push)
	send(push) // duplicate: must dedup, not double-apply

	resp := send(Frame{Op: OpPullSparse, Payload: AppendPullSparseReq(nil, 1, 0, []int{3})})
	vals, err := DecodeValsInto(resp, new([]float64))
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 5 {
		t.Fatalf("col 3 = %v after duplicate push, want 5 (exactly-once violated)", vals[0])
	}
	if hits := srv.Stats().DedupHits; hits != 1 {
		t.Fatalf("DedupHits = %d, want 1", hits)
	}

	// Watermark 2 retires both entries; a replayed ID below it would
	// re-apply, which is fine — the client guarantees it never resends
	// acknowledged IDs. Here we only check the prune happened.
	send(Frame{Op: OpPullSparse, AckedTo: 2, Payload: AppendPullSparseReq(nil, 1, 0, []int{3})})
	srv.mu.Lock()
	n := srv.applied.Len()
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("applied-set has %d entries after watermark prune, want 0", n)
	}
}

// TestClientWatermarkAdvances drives sequential mutations through the real
// client and checks the server's applied-set stays pruned, mirroring
// ps's TestDedupBoundedByWatermark on the wire backend.
func TestClientWatermarkAdvances(t *testing.T) {
	srv, addr := startServer(t)
	c := NewClient([]string{addr}, fastRetry())
	defer c.Close()
	if err := c.CreateShard(0, 1, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := c.PushAdd(0, 1, 0, []int{i % 10}, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	n := srv.applied.Len()
	srv.mu.Unlock()
	// Sequential calls: at most the latest entry survives (its ack rides
	// the next request).
	if n > 1 {
		t.Fatalf("applied-set has %d entries after 51 sequential mutations, want ≤ 1", n)
	}
	var vals []float64
	if err := c.PullSparseInto(0, 1, 0, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, &vals); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != 5 {
			t.Fatalf("col %d = %v, want 5", i, v)
		}
	}
}

// TestFreshClientsPushesApply: every client numbers its requests from 1, so
// two fresh clients' first pushes — and the setup client's CreateShard before
// them — share a sequence number. Each must still apply exactly once.
func TestFreshClientsPushesApply(t *testing.T) {
	srv, addr := startServer(t)
	setup := NewClient([]string{addr}, fastRetry())
	defer setup.Close()
	if err := setup.CreateShard(0, 1, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		c := NewClient([]string{addr}, fastRetry())
		if err := c.PushAdd(0, 1, 0, []int{3}, []float64{1}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	var vals []float64
	if err := setup.PullSparseInto(0, 1, 0, []int{3}, &vals); err != nil {
		t.Fatal(err)
	}
	if vals[0] != 2 {
		t.Fatalf("col 3 = %v after two clients pushed +1 each, want 2", vals[0])
	}
	if hits := srv.Stats().DedupHits; hits != 0 {
		t.Fatalf("DedupHits = %d with no resend, want 0", hits)
	}
}

// TestWatermarkRetiresOwnSessionOnly: session A's entry survives a higher
// watermark from session B, so resending A's push is a dedup hit, not a
// second add.
func TestWatermarkRetiresOwnSessionOnly(t *testing.T) {
	const a, b = uint64(1) << 32, uint64(2) << 32
	srv, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(f Frame) []byte {
		t.Helper()
		if err := WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadResponseReuse(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	send(Frame{Op: OpCreateShard, Flags: FlagMutates, ReqID: b | 1,
		Payload: AppendCreateShard(nil, 1, 1, 0, 10)})
	push := Frame{Op: OpPushAdd, Flags: FlagMutates, ReqID: a | 1,
		Payload: AppendPushAdd(nil, 1, 0, []int{3}, []float64{5})}
	send(push)
	send(Frame{Op: OpPing, AckedTo: b | 5})
	send(push) // A never settled it: a resend must replay, not re-add

	resp := send(Frame{Op: OpPullSparse, Payload: AppendPullSparseReq(nil, 1, 0, []int{3})})
	vals, err := DecodeValsInto(resp, new([]float64))
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 5 {
		t.Fatalf("col 3 = %v after resending A's push past B's watermark, want 5", vals[0])
	}
	if hits := srv.Stats().DedupHits; hits != 1 {
		t.Fatalf("DedupHits = %d, want 1", hits)
	}
}

// TestConcurrentClientsExactSum: four clients push concurrently into one
// shard. The sum is exact, and once nothing is in flight one frame from each
// client (carrying its final watermark) empties the applied-set.
func TestConcurrentClientsExactSum(t *testing.T) {
	const clients, goroutines, perGoroutine, width = 4, 8, 25, 10
	srv, addr := startServer(t)
	retry := fastRetry()
	retry.Timeout = 5 * time.Second // the race detector slows every exchange
	cs := make([]*Client, clients)
	for i := range cs {
		cs[i] = NewClient([]string{addr}, retry)
		defer cs[i].Close()
	}
	if err := cs[0].CreateShard(0, 1, 1, 0, width); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients*goroutines)
	for _, c := range cs {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(c *Client, g int) {
				defer wg.Done()
				for k := 0; k < perGoroutine; k++ {
					if err := c.PushAdd(0, 1, 0, []int{(g + k) % width}, []float64{1}); err != nil {
						errs <- err
						return
					}
				}
			}(c, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, c := range cs {
		if _, err := c.Ping(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	n := srv.applied.Len()
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("applied-set has %d entries with nothing in flight, want 0", n)
	}
	var vals []float64
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := cs[0].PullSparseInto(0, 1, 0, all, &vals); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if want := float64(clients * goroutines * perGoroutine); sum != want {
		t.Fatalf("sum over the row = %v, want %v (%v)", sum, want, vals)
	}
}

// TestPushAddOutOfRangeLeavesRowUntouched: a push whose second column lies
// outside the shard must be refused whole. ServerError is never retried, so
// a frame that had already added its first column would leave the row torn.
func TestPushAddOutOfRangeLeavesRowUntouched(t *testing.T) {
	_, addr := startServer(t)
	c := NewClient([]string{addr}, fastRetry())
	defer c.Close()
	if err := c.CreateShard(0, 1, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := c.PushAdd(0, 1, 0, all, []float64{.1, .2, .3, .4, .5, .6, .7, .8, .9, 1}); err != nil {
		t.Fatal(err)
	}
	var before, after, refused []float64
	if err := c.PullSparseInto(0, 1, 0, all, &before); err != nil {
		t.Fatal(err)
	}
	var sErr *ServerError
	if err := c.PushAdd(0, 1, 0, []int{3, 12}, []float64{5, 5}); !errors.As(err, &sErr) {
		t.Fatalf("push [valid, invalid]: err = %v, want ServerError", err)
	}
	if err := c.PullSparseInto(0, 1, 0, []int{3, 12}, &refused); !errors.As(err, &sErr) {
		t.Fatalf("pull [valid, invalid]: err = %v, want ServerError", err)
	}
	if err := c.PullSparseInto(0, 1, 0, all, &after); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
			t.Fatalf("col %d = %v after the refused push, was %v: half-applied", i, after[i], before[i])
		}
	}
}
