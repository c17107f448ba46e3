package wire

// Allocation regression guards for the hot path (ISSUE: zero-alloc
// contract). These assert testing.AllocsPerRun == 0 on the reuse paths:
// connection-scoped frame/response buffers, caller-supplied codec scratch
// and, for a whole client call, the arena's pooled request buffers. They run
// without -race in scripts/check.sh (the race runtime perturbs allocation
// counts).

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/par"
)

func TestReadFrameReuseZeroAlloc(t *testing.T) {
	var wire bytes.Buffer
	payload := make([]byte, 1500)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := WriteFrame(&wire, Frame{Op: OpPushAdd, Flags: FlagMutates, ReqID: 7, AckedTo: 3, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	data := wire.Bytes()

	r := bytes.NewReader(data)
	var f Frame
	var buf []byte
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(data)
		if err := ReadFrameReuse(r, &f, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadFrameReuse: %v allocs/op, want 0", allocs)
	}
	if f.ReqID != 7 || len(f.Payload) != len(payload) {
		t.Fatalf("frame decoded wrong: reqID=%d plen=%d", f.ReqID, len(f.Payload))
	}
}

// TestWriteFrameZeroAlloc: a request written through the client's buffered
// writer, or into a warm bytes.Buffer, must not allocate for its header.
func TestWriteFrameZeroAlloc(t *testing.T) {
	f := Frame{Op: OpPushAdd, Flags: FlagMutates, ReqID: 7, AckedTo: 3, Payload: make([]byte, 300)}
	bw := bufio.NewWriter(io.Discard)
	var buf bytes.Buffer
	for _, c := range []struct {
		name string
		w    io.Writer
		done func() error
	}{
		{"bufio.Writer", bw, bw.Flush},
		{"bytes.Buffer", &buf, func() error { buf.Reset(); return nil }},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := WriteFrame(c.w, f); err != nil {
				t.Fatal(err)
			}
			if err := c.done(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("WriteFrame into %s: %v allocs/op, want 0", c.name, allocs)
		}
	}
	// The header the spare capacity carried must still read back intact.
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	var got Frame
	if err := ReadFrameReuse(&buf, &got, nil); err != nil {
		t.Fatal(err)
	}
	if got.Op != f.Op || got.Flags != f.Flags || got.ReqID != f.ReqID || got.AckedTo != f.AckedTo || len(got.Payload) != len(f.Payload) {
		t.Fatalf("frame read back as %+v", got)
	}
}

func TestReadResponseReuseZeroAlloc(t *testing.T) {
	var wire bytes.Buffer
	payload := make([]byte, 900)
	if err := WriteResponse(&wire, payload, nil); err != nil {
		t.Fatal(err)
	}
	data := wire.Bytes()

	r := bytes.NewReader(data)
	var buf []byte
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(data)
		if _, err := ReadResponseReuse(r, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadResponseReuse: %v allocs/op, want 0", allocs)
	}
}

// TestCodecRoundTripZeroAlloc: append-style encode into a warm buffer plus
// decode-into with warm scratch must not allocate — this is the pooled RPC
// encode/decode contract from the ISSUE.
func TestCodecRoundTripZeroAlloc(t *testing.T) {
	cols := make([]int, 128)
	vals := make([]float64, 128)
	for i := range cols {
		cols[i] = i * 5
		vals[i] = float64(i) * 0.25
	}
	ops := []FusedOp{
		{Kind: FZero, Row: 0},
		{Kind: FAxpy, Dst: 0, Src: 1, Scale: 0.5},
		{Kind: FScale, Row: 0, Scale: 1.5},
	}

	var reqBuf, respBuf, pieceScratch []byte
	respReader := bytes.NewReader(nil)
	var colsScratch []int
	var valsScratch []float64
	var opsScratch []FusedOp

	checks := []struct {
		name string
		fn   func()
	}{
		{"PushAdd", func() {
			reqBuf = AppendPushAdd(reqBuf[:0], 1, 42, cols, vals)
			_, _, _, _, err := DecodePushAddInto(reqBuf, &colsScratch, &valsScratch)
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"PullSparse+Vals", func() {
			reqBuf = AppendPullSparseReq(reqBuf[:0], 1, 42, cols)
			_, _, _, err := DecodePullSparseReqInto(reqBuf, &colsScratch)
			if err != nil {
				t.Fatal(err)
			}
			respBuf = AppendVals(respBuf[:0], vals)
			if _, err := DecodeValsInto(respBuf, &valsScratch); err != nil {
				t.Fatal(err)
			}
		}},
		{"Fused", func() {
			reqBuf = AppendFused(reqBuf[:0], 1, ops)
			_, _, err := DecodeFusedInto(reqBuf, &opsScratch)
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"PullRange", func() {
			respBuf = appendPullRangeResp(respBuf[:0], 100, vals)
			respReader.Reset(respBuf)
			_, _, err := readPullRangeResp(respReader, len(respBuf), &pieceScratch, &valsScratch)
			if err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s round trip: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// TestPullRangeIntoZeroAlloc: a warm range pull of a 1 M-wide row allocates
// nothing on either end of the socket, the pooled connection keeps no buffer
// larger than one decode piece, and every variable-length encoder sizes a
// cold buffer in one allocation.
func TestPullRangeIntoZeroAlloc(t *testing.T) {
	if raceBuild() {
		t.Skip("under -race sync.Pool drops a random share of Puts, so the pooled request buffer is reallocated now and then; scripts/check.sh runs this gate without -race")
	}
	const width = 1 << 20
	_, c := startWideRow(t, width)
	var lo int
	var vals []float64
	pull := func() {
		if err := c.PullRangeInto(0, 1, 0, &lo, &vals); err != nil {
			t.Fatal(err)
		}
	}
	pull() // warm: the caller's buffer and the connection's piece
	if allocs := testing.AllocsPerRun(10, pull); allocs != 0 {
		t.Errorf("warm PullRangeInto of %d columns: %v allocs/op, want 0", width, allocs)
	}
	pc := <-c.eps[0].pool
	if cap(pc.rbuf) > rangePiece {
		t.Errorf("the pooled connection keeps a %d-byte buffer, more than one %d-byte piece", cap(pc.rbuf), rangePiece)
	}
	c.eps[0].pool <- pc

	cols := make([]int, width)
	for _, enc := range []struct {
		name string
		fn   func() []byte
	}{
		{"AppendVals", func() []byte { return AppendVals(nil, vals) }},
		{"AppendPushAdd", func() []byte { return AppendPushAdd(nil, 1, 0, cols, vals) }},
		{"AppendPullSparseReq", func() []byte { return AppendPullSparseReq(nil, 1, 0, cols) }},
	} {
		if allocs := testing.AllocsPerRun(3, func() { encSink = enc.fn() }); allocs != 1 {
			t.Errorf("cold %s of %d columns: %v allocs/op, want 1", enc.name, width, allocs)
		}
	}
}

// encSink keeps an encoder's result alive so the allocation is not elided.
var encSink []byte

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestSparseStepZeroAlloc: a warm PushAdd into the gradient row followed by
// the LR step program (Axpy grad → weight, Zero grad), both applied through
// Server.handle with request IDs and watermarks as a client sends them,
// allocate nothing: the rows reuse their pairs and indexes.
func TestSparseStepZeroAlloc(t *testing.T) {
	const width = 1 << 16
	s := NewServer()
	var sc connScratch
	var id uint64
	send := func(op byte, p []byte) {
		id++
		if _, err := s.handle(Frame{Op: op, Flags: FlagMutates, ReqID: id, AckedTo: id - 1, Payload: p}, &sc); err != nil {
			t.Fatal(err)
		}
	}
	send(OpCreateShard, AppendCreateShard(nil, 1, 2, 0, width))
	cols := make([]int, 512)
	vals := make([]float64, len(cols))
	for i := range cols {
		cols[i] = i * 97 % width
		vals[i] = float64(i) - 200.5
	}
	push := AppendPushAdd(nil, 1, rowGrad, cols, vals)
	step := AppendFused(nil, 1, []FusedOp{
		{Kind: FAxpy, Dst: rowWeight, Src: rowGrad, Scale: -0.01},
		{Kind: FZero, Row: rowGrad},
	})
	send(OpPushAdd, push) // warm: the rows grow their pairs and indexes once
	send(OpFused, step)
	allocs := testing.AllocsPerRun(200, func() {
		send(OpPushAdd, push)
		send(OpFused, step)
	})
	if allocs != 0 {
		t.Errorf("PushAdd + sparse step: %v allocs/op, want 0", allocs)
	}
	if rows := s.mats[1].rows; rows[rowWeight].dense || rows[rowGrad].dense || len(rows[rowGrad].cols) != 0 {
		t.Fatalf("the step left the rows dense or the gradient's non-empty")
	}
}

// TestFusedShardParallelDeterministic: running a wide fused program with the
// worker pool forced on must leave exactly the same bits in shard memory as
// the serial path — the shard-parallel apply determinism contract.
func TestFusedShardParallelDeterministic(t *testing.T) {
	const dim = 3*par.ChunkSize + 17
	build := func() *Server {
		s := NewServer()
		var sc connScratch
		if _, err := s.handle(Frame{Op: OpCreateShard, Flags: FlagMutates, ReqID: 1,
			Payload: AppendCreateShard(nil, 1, 3, 0, dim)}, &sc); err != nil {
			t.Fatal(err)
		}
		cols := make([]int, dim)
		vals := make([]float64, dim)
		for i := range cols {
			cols[i] = i
			vals[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%9)-4)
		}
		for r := 0; r < 3; r++ {
			p := AppendPushAdd(nil, 1, r, cols, vals)
			if _, err := s.handle(Frame{Op: OpPushAdd, Flags: FlagMutates, ReqID: uint64(2 + r), Payload: p}, &sc); err != nil {
				t.Fatal(err)
			}
		}
		prog := AppendFused(nil, 1, []FusedOp{
			{Kind: FScale, Row: 0, Scale: 1.0000001},
			{Kind: FAxpy, Dst: 2, Src: 0, Scale: -0.37},
			{Kind: FAxpy, Dst: 1, Src: 2, Scale: 0.11},
			{Kind: FZero, Row: 0},
			{Kind: FAxpy, Dst: 0, Src: 1, Scale: 2.5},
		})
		if _, err := s.handle(Frame{Op: OpFused, Flags: FlagMutates, ReqID: 9, Payload: prog}, &sc); err != nil {
			t.Fatal(err)
		}
		return s
	}

	old := par.MinParallel
	defer func() { par.MinParallel = old }()

	par.MinParallel = dim * 2 // force serial
	serial := build()
	par.MinParallel = 1 // force the pool
	parallel := build()
	par.MinParallel = old

	for r := 0; r < 3; r++ {
		a := serial.mats[1].values(r)
		b := parallel.mats[1].values(r)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("row %d col %d: serial %v != parallel %v", r, i, a[i], b[i])
			}
		}
	}
}
