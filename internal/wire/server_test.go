package wire

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCreateShardRefusesUnreadableWidth: a shard row too wide for one
// PullRange response is refused at creation with a ServerError. Accepted,
// every PullRange of it would overflow the response frame and the server
// would drop the connection, which the client retries as a dead endpoint.
func TestCreateShardRefusesUnreadableWidth(t *testing.T) {
	_, addr := startServer(t)
	c := NewClient([]string{addr}, DefaultRetry())
	defer c.Close()
	start := time.Now()
	err := c.CreateShard(0, 1, 2, 0, MaxPayload/8+1)
	var sErr *ServerError
	if !errors.As(err, &sErr) {
		t.Fatalf("CreateShard of width MaxPayload/8+1: err = %v, want ServerError", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the refusal took %v, want under 1s", d)
	}
}

// TestStatsCountFrameBeforeReply: once a call has returned, the server's
// counters already hold its frame, so one Stats read — on a connection of
// its own — gives the exact byte count, with no settling. Each round's calls
// run side by side on several connections, so their handlers race the read.
func TestStatsCountFrameBeforeReply(t *testing.T) {
	const callers = 8
	_, addr := startServer(t)
	work := NewClient([]string{addr}, fastRetry())
	defer work.Close()
	probe := NewClient([]string{addr}, fastRetry())
	defer probe.Close()
	if err := work.CreateShard(0, 1, 1, 0, 64); err != nil {
		t.Fatal(err)
	}
	cols, vals := []int{3, 17, 40}, []float64{1, -2, 0.5}
	for i := 0; i < 200; i++ {
		var wg sync.WaitGroup
		errs := make([]error, callers)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if g%2 == 0 {
					errs[g] = work.PushAdd(0, 1, 0, cols, vals)
				} else {
					_, errs[g] = work.Ping(0, make([]byte, i+g))
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		// Everything either client has sent and received so far; the Stats
		// request itself is counted after its reply is encoded.
		w, p := work.Stats(), probe.Stats()
		st, err := probe.ServerStats(0)
		if err != nil {
			t.Fatal(err)
		}
		if in, out := w.BytesOut+p.BytesOut, w.BytesIn+p.BytesIn; st.BytesIn != in || st.BytesOut != out {
			t.Fatalf("round %d: server counted %d bytes in, %d out; the clients sent %d and received %d",
				i, st.BytesIn, st.BytesOut, in, out)
		}
	}
}

// countingConn counts the writes made to a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestBurstAnswersLeaveInOneWrite: a push, a fused step and a 1200-column
// sparse pull that arrive together get their three answers, the last one
// 9.6 kB, in one write to the connection.
func TestBurstAnswersLeaveInOneWrite(t *testing.T) {
	s := NewServer()
	var sc connScratch
	if _, err := s.handle(Frame{Op: OpCreateShard, Payload: AppendCreateShard(nil, 1, 2, 0, 4096)}, &sc); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	conn := &countingConn{Conn: server}
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go s.serveConn(conn)
	t.Cleanup(s.Close)

	cols := make([]int, 1200)
	for i := range cols {
		cols[i] = 3 * i
	}
	var burst bytes.Buffer
	for _, f := range []Frame{
		{Op: OpPushAdd, Flags: FlagMutates, ReqID: 1, Payload: AppendPushAdd(nil, 1, 1, []int{3}, []float64{1})},
		{Op: OpFused, Flags: FlagMutates, ReqID: 2, Payload: AppendFused(nil, 1, []FusedOp{{Kind: FAxpy, Dst: 0, Src: 1, Scale: 2}})},
		{Op: OpPullSparse, Payload: AppendPullSparseReq(nil, 1, 0, cols)},
	} {
		if err := WriteFrame(&burst, f); err != nil {
			t.Fatal(err)
		}
	}
	go client.Write(burst.Bytes())
	want := make([]float64, len(cols))
	want[1] = 2
	r := bufio.NewReader(client)
	for i, payload := range [][]byte{nil, nil, AppendVals(nil, want)} {
		got, err := readRawResponse(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rawResponse(0, len(payload), payload)) {
			t.Fatalf("answer %d is not the one expected", i)
		}
	}
	if n := conn.writes.Load(); n != 1 {
		t.Fatalf("the burst's three answers took %d writes, want 1", n)
	}
}
