package wire

// The client decodes a PullRange response off the socket a piece at a time.
// These tests pin what that owes the caller: the row arrives bit for bit, a
// malformed or cut-short response is an error and never a hang, a
// connection it may have left misaligned is not pooled, and the byte
// counters count header plus payload.

import (
	"bufio"
	"encoding/binary"
	"math"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
)

// wideRetry allows the time a multi-megabyte range takes on a loaded machine.
func wideRetry() Retry {
	r := fastRetry()
	r.Timeout = 10 * time.Second
	return r
}

// startWideRow boots a server holding a one-row, width-wide matrix 1 filled
// with distinct values, and returns it with a client connected to it.
func startWideRow(t *testing.T, width int) (*Server, *Client) {
	t.Helper()
	srv, addr := startServer(t)
	c := NewClient([]string{addr}, wideRetry())
	t.Cleanup(c.Close)
	if err := c.CreateShard(0, 1, 1, 0, width); err != nil {
		t.Fatal(err)
	}
	cols := make([]int, width)
	vals := make([]float64, width)
	for i := range cols {
		cols[i] = i
		vals[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%13)-6)
	}
	if err := c.PushAdd(0, 1, 0, cols, vals); err != nil {
		t.Fatal(err)
	}
	return srv, c
}

// rawResponse is a response frame with the given status and announced
// payload length, followed by body, whatever its length.
func rawResponse(status byte, plen int, body []byte) []byte {
	b := binary.LittleEndian.AppendUint16(nil, Magic)
	b = append(b, status, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(plen))
	return append(b, body...)
}

// scriptedServer answers every request with the current reply of its
// script. A reply that cuts the frame short hangs up after writing it.
type scriptedServer struct {
	addr    string
	reply   atomic.Pointer[scriptedReply]
	accepts atomic.Int32
}

type scriptedReply struct {
	bytes  []byte
	hangUp bool
}

func startScripted(t *testing.T) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &scriptedServer{addr: ln.Addr().String()}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				var f Frame
				for ReadFrameReuse(br, &f, nil) == nil {
					rep := s.reply.Load()
					if _, err := conn.Write(rep.bytes); err != nil || rep.hangUp {
						return
					}
				}
			}(conn)
		}
	}()
	return s
}

func TestPullRangeStreamedDecode(t *testing.T) {
	t.Run("wide row", func(t *testing.T) {
		const width = 1 << 20
		srv, c := startWideRow(t, width)
		want := srv.mats[1].Rows[0]
		before := c.Stats()
		buf := make([]float64, 0, width)
		var lo int
		if err := c.PullRangeInto(0, 1, 0, &lo, &buf); err != nil {
			t.Fatal(err)
		}
		if lo != 0 || len(buf) != width || cap(buf) != width {
			t.Fatalf("got lo %d, %d values in a buffer of %d, want 0 and %d in the caller's", lo, len(buf), cap(buf), width)
		}
		for i, v := range buf {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("column %d: got %v, the shard holds %v", i, v, want[i])
			}
		}
		if got, want := c.Stats().BytesIn-before.BytesIn, uint64(respHeaderLen+8+8*width); got != want {
			t.Fatalf("BytesIn grew by %d, want header plus payload = %d", got, want)
		}
	})

	vals := []float64{1.5, -2, 3.25, 4}
	payload := AppendPullRangeResp(nil, 7, vals)
	good := rawResponse(0, len(payload), payload)
	for _, tc := range []struct {
		name  string
		reply scriptedReply
	}{
		{"plen above the count", scriptedReply{bytes: rawResponse(0, len(payload)+8, slices.Concat(payload, make([]byte, 8)))}},
		{"plen below the count", scriptedReply{bytes: rawResponse(0, len(payload)-8, payload[:len(payload)-8])}},
		{"plen below the header", scriptedReply{bytes: rawResponse(0, 4, payload[:4])}},
		{"cut-short payload", scriptedReply{bytes: good[:len(good)-5], hangUp: true}},
		{"status 1", scriptedReply{bytes: rawResponse(1, 4, []byte("boom"))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startScripted(t)
			c := NewClient([]string{s.addr}, fastRetry())
			defer c.Close()
			s.reply.Store(&tc.reply)
			var lo int
			var got []float64
			done := make(chan error, 1)
			go func() { done <- c.PullRangeInto(0, 1, 0, &lo, &got) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("malformed response accepted")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("PullRangeInto still waiting after 5 s")
			}
			dialed := s.accepts.Load()
			bytesIn := c.Stats().BytesIn

			s.reply.Store(&scriptedReply{bytes: good})
			if err := c.PullRangeInto(0, 1, 0, &lo, &got); err != nil {
				t.Fatalf("the call after the failed one: %v", err)
			}
			if lo != 7 || len(got) != len(vals) || got[3] != 4 {
				t.Fatalf("got lo %d, values %v", lo, got)
			}
			if s.accepts.Load() != dialed+1 {
				t.Fatalf("the call after the failed one reused a connection (%d accepted before it, %d after)", dialed, s.accepts.Load())
			}
			if grew := c.Stats().BytesIn - bytesIn; grew != uint64(len(good)) {
				t.Fatalf("BytesIn grew by %d for a %d-byte response", grew, len(good))
			}
		})
	}
}

// TestWideResponseNotPinned: the server encodes a range pull wider than
// arena.ReuseCap into a pooled buffer and lets go of it once the frame is
// written, so the connection's scratch keeps nothing that wide; a narrow
// pull still encodes into the connection's own buffer.
func TestWideResponseNotPinned(t *testing.T) {
	s := NewServer()
	var sc connScratch
	const narrow, wide = 1 << 10, arena.ReuseCap/8 + 1
	for _, c := range []struct {
		mat   uint32
		width int
	}{{1, narrow}, {2, wide}} {
		if _, err := s.handle(Frame{Op: OpCreateShard, Flags: FlagMutates, ReqID: uint64(c.mat),
			Payload: AppendCreateShard(nil, c.mat, 1, 0, c.width)}, &sc); err != nil {
			t.Fatal(err)
		}
	}
	pull := func(mat uint32, width int) {
		t.Helper()
		resp, err := s.handle(Frame{Op: OpPullRange, Payload: AppendPullRangeReq(nil, mat, 0)}, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if want := 8 + 8*width; len(resp) != want {
			t.Fatalf("matrix %d: %d-byte response, want %d", mat, len(resp), want)
		}
		sc.release()
	}
	pull(1, narrow)
	if cap(sc.resp) == 0 || sc.wide != nil {
		t.Errorf("narrow pull: resp cap %d, wide %v; want the connection's own buffer", cap(sc.resp), sc.wide)
	}
	for range 2 {
		pull(2, wide)
		if sc.wide != nil || cap(sc.resp) > arena.ReuseCap || cap(sc.payload) > arena.ReuseCap {
			t.Errorf("after a wide pull the connection keeps resp cap %d, payload cap %d, wide %v",
				cap(sc.resp), cap(sc.payload), sc.wide)
		}
	}
}
