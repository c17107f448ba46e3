package wire

// The client decodes a PullRange response off the socket a piece at a time.
// These tests pin what that owes the caller: the row arrives bit for bit, a
// malformed or cut-short response is an error and never a hang, a
// connection it may have left misaligned is not pooled, and the byte
// counters count header plus payload.
//
// The server writes the response from the shard row itself, lent to the
// pull until the frame is written. The tests after those pin the lease: the
// answer is the row as it was when the pull was handled, never torn by a
// concurrent write, and a reader that does not read holds up no one else.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
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

// appendPullRangeResp appends a whole PullRange response payload to dst:
// the prefix, then the values in the encoding writeRangeResp sends.
func appendPullRangeResp(dst []byte, lo int, vals []float64) []byte {
	e := enc{b: appendRangePrefix(dst, lo, len(vals))}
	e.f64s(vals)
	return e.b
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
		want := srv.mats[1].values(0)
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
	payload := appendPullRangeResp(nil, 7, vals)
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

// fillRow gives row r of matrix mat on srv distinct values in every column
// and turns it dense, as a push of every column would, without sending one.
func fillRow(srv *Server, mat uint32, r int) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	row := srv.mats[mat].spread(r)
	for i := range row {
		row[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%13)-6)
	}
}

// cutWriter takes n bytes, then fails every write.
type cutWriter struct{ n int }

var errCut = errors.New("connection cut")

func (w *cutWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errCut
	}
	w.n -= len(p)
	return len(p), nil
}

// TestRangePullLease: a range pull of a dense row of any width lends the row
// instead of copying it. handle answers with the payload's 8-byte prefix,
// counts the whole response in BytesOut and leaves the row itself on lease. A PushAdd
// or a Fused step on the leased row leaves the lent bytes as they were at
// the pull while the shard sees the write, and respond drops the lease once
// the frame is written, also when the write fails. It replaces
// TestWideResponseNotPinned: a pull no longer has a response buffer for a
// connection to pin.
func TestRangePullLease(t *testing.T) {
	s := NewServer()
	var sc, other connScratch
	var id uint64
	mutate := func(op byte, p []byte) {
		t.Helper()
		id++
		if _, err := s.handle(Frame{Op: op, Flags: FlagMutates, ReqID: id, AckedTo: id - 1, Payload: p}, &other); err != nil {
			t.Fatal(err)
		}
	}
	// A narrow width and the widest width the server once encoded into its
	// connection buffer, plus one.
	for mat, width := range map[uint32]int{1: 1 << 10, 2: arena.ReuseCap/8 + 1} {
		mutate(OpCreateShard, AppendCreateShard(nil, mat, 2, 0, width))
		fillRow(s, mat, 0) // a row with a tracked support would take the sparse layout
		mutate(OpPushAdd, AppendPushAdd(nil, mat, 1, []int{0, width - 1}, []float64{2, 3}))
		pull := func() []byte {
			t.Helper()
			before := s.Stats().BytesOut
			resp, err := s.handle(Frame{Op: OpPullRange, Payload: AppendPullRangeReq(nil, mat, 0)}, &sc)
			if err != nil {
				t.Fatal(err)
			}
			row := s.mats[mat].values(0)
			if !bytes.Equal(resp, appendRangePrefix(nil, 0, width)) || sc.lease == nil || &sc.lent[0] != &row[0] || len(sc.lent) != width {
				t.Fatalf("width %d: answered %d bytes, lease %v; want the 8-byte prefix and the shard's own row lent", width, len(resp), sc.lease)
			}
			if grew, want := s.Stats().BytesOut-before, uint64(respHeaderLen+8+8*width); grew != want {
				t.Fatalf("width %d: BytesOut grew by %d, want header + 8 + 8·width = %d", width, grew, want)
			}
			return resp
		}
		for _, w := range []struct {
			name  string
			op    byte
			p     []byte
			apply func(row []float64)
		}{
			{"push", OpPushAdd, AppendPushAdd(nil, mat, 0, []int{5}, []float64{1.5}), func(row []float64) { row[5] += 1.5 }},
			{"fused", OpFused, AppendFused(nil, mat, []FusedOp{{Kind: FAxpy, Src: 1, Dst: 0, Scale: 2}}),
				func(row []float64) { row[0] += 4; row[width-1] += 6 }},
		} {
			resp := pull()
			l, lent := sc.lease, sc.lent
			at := slices.Clone(lent)
			mutate(w.op, w.p)
			want := slices.Clone(at)
			w.apply(want)
			if !equalFloats(lent, at) {
				t.Fatalf("width %d, %s: the lent row changed under the pull", width, w.name)
			}
			if row := s.mats[mat].values(0); !equalFloats(row, want) {
				t.Fatalf("width %d, %s: the shard does not hold the write", width, w.name)
			}
			var buf bytes.Buffer
			if err := respond(&buf, resp, nil, &sc); err != nil {
				t.Fatal(err)
			}
			if l.n.Load() != 0 || sc.lease != nil || sc.lent != nil {
				t.Fatalf("width %d, %s: lease still held after the frame was written", width, w.name)
			}
			if want := rawResponse(0, 8+8*width, appendPullRangeResp(nil, 0, at)); !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("width %d, %s: the frame written is not the row at pull time", width, w.name)
			}
		}
		// Once the lease is dropped a write goes to the row in place.
		row := s.mats[mat].values(0)
		mutate(OpPushAdd, AppendPushAdd(nil, mat, 0, []int{5}, []float64{1}))
		if &s.mats[mat].values(0)[0] != &row[0] {
			t.Fatalf("width %d: a write after the lease was dropped copied the row", width)
		}
		resp := pull()
		l := sc.lease
		if err := respond(&cutWriter{n: respHeaderLen + 16}, resp, nil, &sc); !errors.Is(err, errCut) {
			t.Fatalf("width %d: write through a cut connection returned %v", width, err)
		}
		if l.n.Load() != 0 || sc.lease != nil || sc.lent != nil {
			t.Fatalf("width %d: lease still held after the write failed", width)
		}
	}
}

// TestRangePullSparse: a range pull of a row whose support is tracked
// answers with the support alone. The whole payload is built under the
// mutex and no lease is taken; BytesOut counts header + 12 + 12k. The client
// decodes the shard row bit for bit, a -0 inside the support included, into
// a fresh buffer and into a dirty reused one. At the edges the layout is the
// smaller one: a 0-wide shard answers dense, a row of width/16 members
// sparse, and one member more turns the row dense.
func TestRangePullSparse(t *testing.T) {
	const lo, width = 100, 1 << 12
	srv, addr := startServer(t)
	c := NewClient([]string{addr}, fastRetry())
	t.Cleanup(c.Close)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.CreateShard(0, 1, 1, lo, lo+width))
	// -1e-300 scaled by 1e-300 underflows to -0; the members arrive out of
	// column order, and two share a bitmap word.
	must(c.PushAdd(0, 1, 0, []int{lo + 70}, []float64{-1e-300}))
	must(c.Fused(0, 1, []FusedOp{{Kind: FScale, Row: 0, Scale: 1e-300}}))
	must(c.PushAdd(0, 1, 0, []int{lo + 4000, lo + 7, lo + 64, lo + 63, lo + 3000}, []float64{1.5, -2, math.Pi, 1, math.Inf(-1)}))
	const k = 6
	shardRow := srv.mats[1].values(0)
	if math.Float64bits(shardRow[70]) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("column 70 holds %v, want -0", shardRow[70])
	}

	var sc connScratch
	before := srv.Stats().BytesOut
	resp, err := srv.handle(Frame{Op: OpPullRange, Payload: AppendPullRangeReq(nil, 1, 0)}, &sc)
	must(err)
	if sc.lease != nil || sc.lent != nil || len(resp) != 12+12*k {
		t.Fatalf("answered %d bytes, lease %v, %d values lent; want the %d-byte sparse payload and no lease", len(resp), sc.lease, len(sc.lent), 12+12*k)
	}
	if grew, want := srv.Stats().BytesOut-before, uint64(respHeaderLen+12+12*k); grew != want {
		t.Fatalf("BytesOut grew by %d, want header + 12 + 12k = %d", grew, want)
	}

	dirty := make([]float64, width+5)
	for i := range dirty {
		dirty[i] = math.NaN()
	}
	for _, tc := range []struct {
		name string
		buf  []float64
	}{{"fresh", nil}, {"reused", dirty}} {
		before := c.Stats().BytesIn
		var got int
		buf := tc.buf
		must(c.PullRangeInto(0, 1, 0, &got, &buf))
		if got != lo || !equalFloats(buf, shardRow) {
			t.Fatalf("%s buffer: got lo %d and a row unlike the shard's", tc.name, got)
		}
		if grew, want := c.Stats().BytesIn-before, uint64(respHeaderLen+12+12*k); grew != want {
			t.Fatalf("%s buffer: BytesIn grew by %d, want %d", tc.name, grew, want)
		}
	}

	// The edges: payload bytes, the lent row's included.
	layout := func(mat uint32) int {
		t.Helper()
		resp, err := srv.handle(Frame{Op: OpPullRange, Payload: AppendPullRangeReq(nil, mat, 0)}, &sc)
		must(err)
		n := len(resp) + 8*len(sc.lent)
		must(respond(io.Discard, resp, nil, &sc))
		return n
	}
	must(c.CreateShard(0, 2, 1, 5, 5))
	if n := layout(2); n != 8 {
		t.Fatalf("a 0-wide shard answered %d payload bytes, want the 8 of the dense layout", n)
	}
	const w = 1 << 10
	must(c.CreateShard(0, 3, 1, 0, w))
	cols := make([]int, w/denseFraction)
	for i := range cols {
		cols[i] = 3*i + 1
	}
	must(c.PushAdd(0, 3, 0, cols, make([]float64, len(cols))))
	if n := layout(3); n != 12+12*len(cols) {
		t.Fatalf("a row of %d members in %d columns answered %d payload bytes, want %d", len(cols), w, n, 12+12*len(cols))
	}
	must(c.PushAdd(0, 3, 0, []int{w - 1}, []float64{1}))
	if n := layout(3); n != 8+8*w {
		t.Fatalf("a dense row of %d columns answered %d payload bytes, want %d", w, n, 8+8*w)
	}
}

// TestWriteRangeRespPieces: a lent row leaves as the bytes its per-value
// encoding gives, in one block and in the pieces a big-endian host writes,
// here forced by clearing nativeLE.
func TestWriteRangeRespPieces(t *testing.T) {
	host := nativeLE
	t.Cleanup(func() { nativeLE = host })
	vals := make([]float64, 2*rangePiece/8+3)
	want := appendRangePrefix(nil, 5, len(vals))
	for i := range vals {
		vals[i] = math.Sin(float64(i))
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(vals[i]))
	}
	want = rawResponse(0, len(want), want)
	for _, le := range []bool{true, false} {
		nativeLE = le
		var buf bytes.Buffer
		var piece []byte
		if err := writeRangeResp(&buf, appendRangePrefix(nil, 5, len(vals)), vals, &piece); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("nativeLE %v: the frame differs from the per-value encoding", le)
		}
		if cap(piece) > rangePiece {
			t.Errorf("nativeLE %v: piece scratch grew to %d bytes, past %d", le, cap(piece), rangePiece)
		}
	}
}

// TestRangePullNeverTorn: wide range pulls stream from the lent row while
// another connection runs whole-row steps on it, alternately adding a row
// of ones and negating it. Every value of a generation is the same, so a
// pulled row with two different values is part one step, part another.
func TestRangePullNeverTorn(t *testing.T) {
	const width, readers, pulls = 1 << 18, 2, 20
	_, addr := startServer(t)
	w := NewClient([]string{addr}, wideRetry())
	t.Cleanup(w.Close)
	if err := w.CreateShard(0, 1, 2, 0, width); err != nil {
		t.Fatal(err)
	}
	cols := make([]int, width)
	ones := make([]float64, width)
	for i := range cols {
		cols[i], ones[i] = i, 1
	}
	for r := range 2 {
		if err := w.PushAdd(0, 1, r, cols, ones); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var steps atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		progs := [][]FusedOp{{{Kind: FAxpy, Src: 1, Dst: 0, Scale: 1}}, {{Kind: FScale, Row: 0, Scale: -1}}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.Fused(0, 1, progs[i%2]); err != nil {
				t.Error(err)
				return
			}
			steps.Add(1)
		}
	}()
	r := NewClient([]string{addr}, wideRetry())
	t.Cleanup(r.Close)
	var readersWG sync.WaitGroup
	for range readers {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			var vals []float64
			var lo int
			for range pulls {
				if err := r.PullRangeInto(0, 1, 0, &lo, &vals); err != nil {
					t.Error(err)
					return
				}
				for i, v := range vals {
					if math.Float64bits(v) != math.Float64bits(vals[0]) {
						t.Errorf("torn row: column 0 holds %v, column %d holds %v", vals[0], i, v)
						return
					}
				}
			}
		}()
	}
	readersWG.Wait()
	close(stop)
	wg.Wait()
	t.Logf("%d steps ran beside %d pulls", steps.Load(), readers*pulls)
}

// BenchmarkPullRangeWide times one range pull of a 4 M-wide row over
// loopback, from a fresh server and from a warm one, for a dense row and for
// a row whose support holds 20 617 columns, which is how tcp-lr-dense's
// weight row ends. The dense row is lent to the pull and written from its
// own memory, so a fresh server faults in no response buffer; the sparse
// row ships its 20 617 pairs. The client decodes into a buffer it reuses.
// The heap is handed back to the OS before each fresh pull.
func BenchmarkPullRangeWide(b *testing.B) {
	const width = 4000000
	for _, shape := range []struct {
		name    string
		members int // 0: every column, the support dense
	}{{"dense", 0}, {"sparse", 20617}} {
		boot := func(b *testing.B) (*Server, *Client) {
			srv := NewServer()
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve()
			c := NewClient([]string{addr}, wideRetry())
			if err := c.CreateShard(0, 1, 1, 0, width); err != nil {
				b.Fatal(err)
			}
			if shape.members == 0 {
				fillRow(srv, 1, 0)
				return srv, c
			}
			cols := make([]int, shape.members)
			vals := make([]float64, shape.members)
			for i := range cols {
				cols[i] = i * (width / shape.members)
				vals[i] = math.Sin(float64(i))
			}
			if err := c.PushAdd(0, 1, 0, cols, vals); err != nil {
				b.Fatal(err)
			}
			return srv, c
		}
		vals := make([]float64, 0, width)
		var lo int
		pull := func(b *testing.B, c *Client) {
			if err := c.PullRangeInto(0, 1, 0, &lo, &vals); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(shape.name+"/fresh", func(b *testing.B) {
			for range b.N {
				b.StopTimer()
				srv, c := boot(b)
				debug.FreeOSMemory()
				b.StartTimer()
				pull(b, c)
				b.StopTimer()
				c.Close()
				srv.Close()
				b.StartTimer()
			}
		})
		b.Run(shape.name+"/warm", func(b *testing.B) {
			srv, c := boot(b)
			defer srv.Close()
			defer c.Close()
			pull(b, c)
			b.ResetTimer()
			for range b.N {
				pull(b, c)
			}
		})
	}
}

// TestPullRangeNonzeroKeepsWhatTheRowHolds: the nonzero decode of a range
// response gives, in either layout and across piece boundaries, exactly the
// columns and bits of the full decode's nonzero values (a NaN is nonzero, a
// −0 is not), reuses its slices, refuses what the full decode refuses, and
// allocates nothing near the row's width.
func TestPullRangeNonzeroKeepsWhatTheRowHolds(t *testing.T) {
	width := 3*rangePiece/8 + 5
	row := make([]float64, width)
	for c := 0; c < width; c += 7 {
		row[c] = float64(c%13) - 6 // some exact zeros among them
	}
	row[1], row[2], row[width-1] = math.NaN(), math.Copysign(0, -1), 1.5
	var keys []uint64
	for c, v := range row {
		if c%3 == 0 || v != 0 { // members include zeros, as a compact row's may
			keys = append(keys, uint64(c)<<32|uint64(c))
		}
	}
	if len(keys) <= rangePiece/12 {
		t.Fatalf("%d pairs fit one piece; the test wants several", len(keys))
	}
	dst := RangeNonzero{Cols: []int{99}, Vals: []float64{99}} // stale, must go
	for _, layout := range []struct {
		name string
		p    []byte
	}{
		{"dense", appendPullRangeResp(nil, 40, row)},
		{"sparse", appendSparseRange(nil, 40, width, keys, row)},
	} {
		_, full, err := readPullRangeResp(bytes.NewReader(layout.p), len(layout.p), new([]byte), new([]float64))
		if err != nil {
			t.Fatal(err)
		}
		var wantCols []int
		var wantBits []uint64
		for c, v := range full {
			if v != 0 {
				wantCols = append(wantCols, c)
				wantBits = append(wantBits, math.Float64bits(v))
			}
		}
		if err := readPullRangeNonzero(bytes.NewReader(layout.p), len(layout.p), new([]byte), &dst); err != nil {
			t.Fatalf("%s: %v", layout.name, err)
		}
		gotBits := make([]uint64, len(dst.Vals))
		for i, v := range dst.Vals {
			gotBits[i] = math.Float64bits(v)
		}
		if dst.Lo != 40 || dst.Width != width || !slices.Equal(dst.Cols, wantCols) || !slices.Equal(gotBits, wantBits) {
			t.Fatalf("%s: lo %d width %d, %d nonzeros; want 40, %d, %d", layout.name, dst.Lo, dst.Width, len(dst.Cols), width, len(wantCols))
		}
		cut := layout.p[:len(layout.p)-1]
		if err := readPullRangeNonzero(bytes.NewReader(cut), len(cut), new([]byte), &dst); err == nil {
			t.Fatalf("%s: a payload one byte short decoded", layout.name)
		}
	}
	backwards := appendSparseRange(nil, 0, 10, []uint64{5<<32 | 0, 3<<32 | 1}, []float64{1, 2})
	if err := readPullRangeNonzero(bytes.NewReader(backwards), len(backwards), new([]byte), &dst); err == nil {
		t.Fatal("a sparse response with columns out of order decoded")
	}

	wide := appendSparseRange(nil, 0, 4_000_000, []uint64{17 << 32, 3_999_999<<32 | 1}, []float64{2, 3})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := readPullRangeNonzero(bytes.NewReader(wide), len(wide), new([]byte), &dst); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding two values of a 4M-wide row allocated %d bytes", grew)
	}
}
