package wire

// The pipeline's contracts: a connection cut part-way through a burst
// resends only the unanswered frames, with their request IDs; an
// application error fails its request alone; the server never holds an
// answer for a frame that has only partly arrived; a connection released
// after Close is closed, not pooled; and a warm pipelined LR round allocates
// nothing and is one socket write per server.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/ml/lr"
)

// proxied is one request a cutProxy forwarded.
type proxied struct {
	op byte
	id uint64
}

// cutProxy forwards a client's connections to a server and records each
// connection's requests. On its first connection it waits until the server
// has answered burst frames, forwards only the first answer and cuts both
// sides: the server has applied the whole burst, the client has heard of one.
type cutProxy struct {
	addr string
	mu   sync.Mutex
	reqs [][]proxied // per accepted connection, in order
}

func startCutProxy(t *testing.T, server string, burst int) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	px := &cutProxy{addr: ln.Addr().String()}
	go func() {
		for {
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			sc, err := net.Dial("tcp", server)
			if err != nil {
				cc.Close()
				return
			}
			px.mu.Lock()
			k := len(px.reqs)
			px.reqs = append(px.reqs, nil)
			px.mu.Unlock()
			go func() { // client → server
				defer sc.Close()
				br := bufio.NewReader(cc)
				var f Frame
				for ReadFrameReuse(br, &f, nil) == nil {
					px.mu.Lock()
					px.reqs[k] = append(px.reqs[k], proxied{f.Op, f.ReqID})
					px.mu.Unlock()
					if WriteFrame(sc, f) != nil {
						return
					}
				}
			}()
			go func() { // server → client
				defer cc.Close()
				defer sc.Close()
				br := bufio.NewReader(sc)
				var held [][]byte
				for {
					resp, err := readRawResponse(br)
					if err != nil {
						return
					}
					if k > 0 {
						if _, err := cc.Write(resp); err != nil {
							return
						}
						continue
					}
					if held = append(held, resp); len(held) == burst {
						cc.Write(held[0])
						return
					}
				}
			}()
		}
	}()
	return px
}

// requests returns the requests the proxy forwarded on connection k.
func (px *cutProxy) requests(k int) []proxied {
	px.mu.Lock()
	defer px.mu.Unlock()
	if k >= len(px.reqs) {
		return nil
	}
	return append([]proxied(nil), px.reqs[k]...)
}

// readRawResponse reads one response frame, header and payload, as bytes.
func readRawResponse(r io.Reader) ([]byte, error) {
	h := make([]byte, respHeaderLen)
	if _, err := io.ReadFull(r, h); err != nil {
		return nil, err
	}
	body := make([]byte, binary.LittleEndian.Uint32(h[4:]))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return append(h, body...), nil
}

// TestPipelineCutResendsUnanswered: the connection dies after the first
// answer of a push → step → pull burst. The retry resends only step and
// pull, with their IDs; the step is a dedup replay, so the row holds one
// push and one step, and the pull reads the post-step values.
func TestPipelineCutResendsUnanswered(t *testing.T) {
	srv, addr := startServer(t)
	setup := NewClient([]string{addr}, fastRetry())
	defer setup.Close()
	cols := []int{1, 4, 7}
	if err := setup.CreateShard(0, 1, 2, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := setup.PushAdd(0, 1, rowWeight, cols, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	px := startCutProxy(t, addr, 3)
	c := NewClient([]string{px.addr}, fastRetry())
	defer c.Close()
	// Neither half of the step is idempotent: a second run would move the
	// weights again and halve the gradient again.
	step := []FusedOp{
		{Kind: FAxpy, Dst: rowWeight, Src: rowGrad, Scale: 0.5},
		{Kind: FScale, Row: rowGrad, Scale: 0.5},
	}
	var got []float64
	p := c.Pipeline(0)
	p.PushAdd(1, rowGrad, cols, []float64{10, 20, 30})
	p.Fused(1, step)
	p.Send()
	p.PullSparseInto(1, rowWeight, cols, &got)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	first, resent := px.requests(0), px.requests(1)
	if len(first) != 3 || first[0].op != OpPushAdd || first[1].op != OpFused || first[2].op != OpPullSparse {
		t.Fatalf("first connection carried %v, want push, step, pull", first)
	}
	if len(resent) != 2 || resent[0] != first[1] || resent[1] != first[2] {
		t.Fatalf("the retry carried %v, want step and pull as first sent: %v", resent, first[1:])
	}
	if hits := srv.Stats().DedupHits; hits != 1 {
		t.Fatalf("DedupHits = %d, want 1 (the replayed step)", hits)
	}
	if want := []float64{6, 12, 18}; !equalFloats(got, want) {
		t.Fatalf("the pull read %v, want the post-step weights %v", got, want)
	}
	var grad []float64
	if err := setup.PullSparseInto(0, 1, rowGrad, cols, &grad); err != nil {
		t.Fatal(err)
	}
	if want := []float64{5, 10, 15}; !equalFloats(grad, want) {
		t.Fatalf("gradient row = %v, want one push halved once = %v", grad, want)
	}
	if st := c.Stats(); st.Calls != 3 || st.Attempts != 5 {
		t.Fatalf("client stats %+v, want 3 calls in 5 frames", st)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPipelineApplicationErrorFailsAlone: requests the server refuses fail
// alone. The requests after them in the burst are still applied in order and
// answered, nothing is resent, and Wait returns the first refusal.
func TestPipelineApplicationErrorFailsAlone(t *testing.T) {
	srv, addr := startServer(t)
	c := NewClient([]string{addr}, fastRetry())
	defer c.Close()
	if err := c.CreateShard(0, 1, 1, 0, 10); err != nil {
		t.Fatal(err)
	}
	var got []float64
	p := c.Pipeline(0)
	p.PushAdd(1, 0, []int{1}, []float64{1})
	p.PushAdd(1, 0, []int{2, 12}, []float64{5, 5}) // column 12 lies outside the shard
	p.Fused(7, []FusedOp{{Kind: FZero, Row: 0}})   // matrix 7 does not exist
	p.PushAdd(1, 0, []int{3}, []float64{3})
	p.PullSparseInto(1, 0, []int{1, 2, 3}, &got)
	err := p.Wait()
	var sErr *ServerError
	if !errors.As(err, &sErr) || !strings.Contains(sErr.Msg, "column 12") {
		t.Fatalf("Wait = %v, want the out-of-shard push's ServerError", err)
	}
	if want := []float64{1, 0, 3}; !equalFloats(got, want) {
		t.Fatalf("the pull read %v, want %v: the pushes around the refused ones applied", got, want)
	}
	if st := c.Stats(); st.Attempts != st.Calls {
		t.Fatalf("client stats %+v: an application error was resent", st)
	}
	if reqs := srv.Stats().Requests; reqs != 6 {
		t.Fatalf("server served %d frames, want 6", reqs)
	}
	// The pipeline is empty again and the client still works.
	p.PullSparseInto(1, 0, []int{3}, &got)
	if err := p.Wait(); err != nil || got[0] != 3 {
		t.Fatalf("the next burst: %v, %v", got, err)
	}
}

// TestServerAnswersBeforePartialFrame: the server may hold an answer only
// while the next frame is whole in its buffer. With frame A and part of
// frame B sent, A's answer must arrive before B is completed. A whole frame
// that turns out to be garbage still lets the held answers out.
func TestServerAnswersBeforePartialFrame(t *testing.T) {
	_, addr := startServer(t)
	var a, b bytes.Buffer
	if err := WriteFrame(&a, Frame{Op: OpPing, Payload: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&b, Frame{Op: OpPing, Payload: []byte("bbbbbbbb")}); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, reqHeaderLen - 1, reqHeaderLen, reqHeaderLen + 3} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		if _, err := conn.Write(append(bytes.Clone(a.Bytes()), b.Bytes()[:cut]...)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if resp, err := ReadResponseReuse(br, nil); err != nil || string(resp) != "a" {
			t.Fatalf("B cut after %d bytes: A's answer %q, %v", cut, resp, err)
		}
		if _, err := conn.Write(b.Bytes()[cut:]); err != nil {
			t.Fatal(err)
		}
		if resp, err := ReadResponseReuse(br, nil); err != nil || string(resp) != "bbbbbbbb" {
			t.Fatalf("B cut after %d bytes: B's answer %q, %v", cut, resp, err)
		}
		conn.Close()
	}

	// A frame that looks whole but is garbage ends the connection; the
	// answers held back for it still arrive.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	burst := slices.Concat(a.Bytes(), a.Bytes(), make([]byte, reqHeaderLen))
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(conn)
	for i := 0; i < 2; i++ {
		if resp, err := ReadResponseReuse(br, nil); err != nil || string(resp) != "a" {
			t.Fatalf("answer %d before a garbage frame: %q, %v", i, resp, err)
		}
	}
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the garbage frame: %v, want EOF", err)
	}
}

// TestCloseClosesConnectionReleasedAfter: a call in flight across Close
// finishes, and its connection is then closed rather than parked in a pool
// nobody drains.
func TestCloseClosesConnectionReleasedAfter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	received, answer := make(chan struct{}), make(chan struct{})
	hungUp := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			hungUp <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var f Frame
		if err := ReadFrameReuse(br, &f, nil); err != nil {
			hungUp <- err
			return
		}
		close(received)
		<-answer
		if err := WriteResponse(conn, f.Payload, nil); err != nil {
			hungUp <- err
			return
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = br.ReadByte()
		hungUp <- err
	}()

	r := fastRetry()
	r.Timeout = 5 * time.Second
	c := NewClient([]string{ln.Addr().String()}, r)
	done := make(chan error, 1)
	go func() {
		_, err := c.Ping(0, []byte("x"))
		done <- err
	}()
	<-received
	c.Close()
	close(answer)
	if err := <-done; err != nil {
		t.Fatalf("the call in flight across Close: %v", err)
	}
	if err := <-hungUp; !errors.Is(err, io.EOF) {
		t.Fatalf("the server's read after the answer = %v, want EOF: the client kept the connection", err)
	}
}

// TestPipelinedRoundZeroAlloc: a warm LR iteration over two servers — the
// gradient, then one pipelined push, step and next pull per server —
// allocates nothing on either end of the sockets.
func TestPipelinedRoundZeroAlloc(t *testing.T) {
	if raceBuild() {
		t.Skip("under -race sync.Pool drops a random share of Puts, so pooled buffers are reallocated now and then; scripts/check.sh runs this gate without -race")
	}
	cfg := LRConfig{Dataset: data.ClassifyConfig{Rows: 400, Dim: 3000}, BatchSize: 64}.withDefaults()
	ds, err := data.GenerateClassify(cfg.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := range addrs {
		_, addrs[i] = startServer(t)
	}
	r := fastRetry()
	r.Timeout = 5 * time.Second
	c := NewClient(addrs, r)
	defer c.Close()
	st, err := newWireStore(c, cfg.Dataset.Dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.create(2, cfg.Dataset.Dim); err != nil {
		t.Fatal(err)
	}
	b := newLRBatches(ds.Instances, cfg.BatchSize, 0, math.MaxInt)
	step := &lrStep{scale: -0.01}
	// Each run replays the same batches, so the warm-up grows every buffer to
	// its final size.
	run := func() {
		b.rng = batchRNG{s: 5}
		for k := 0; k < 4; k++ {
			b.bi.Gradient(lr.Logistic, b.rows, b.w, b.grad)
			step.cols, step.vals = b.bi.Sparse(b.grad)
			if err := st.round(step, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.round(nil, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("a warm run of 4 pipelined LR iterations: %v allocs/op, want 0", allocs)
	}
}

// TestRoundOneWritePerServer: a warm LR round over two servers queues each
// server its push, its step and its run of the next pull, and writes them in
// one socket write per server.
func TestRoundOneWritePerServer(t *testing.T) {
	cfg := LRConfig{Dataset: data.ClassifyConfig{Rows: 400, Dim: 3000}, BatchSize: 64}.withDefaults()
	ds, err := data.GenerateClassify(cfg.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := range addrs {
		_, addrs[i] = startServer(t)
	}
	r := fastRetry()
	r.Timeout = 5 * time.Second
	c := NewClient(addrs, r)
	defer c.Close()
	st, err := newWireStore(c, cfg.Dataset.Dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.create(2, cfg.Dataset.Dim); err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	b := newLRBatches(ds.Instances, cfg.BatchSize, 5, rounds+2)
	if err := st.round(nil, b); err != nil {
		t.Fatal(err)
	}
	step := &lrStep{scale: -0.01}
	before := c.Stats()
	for k := 0; k < rounds; k++ {
		b.bi.Gradient(lr.Logistic, b.rows, b.w, b.grad)
		step.cols, step.vals = b.bi.Sparse(b.grad)
		if err := st.round(step, b); err != nil {
			t.Fatal(err)
		}
	}
	after := c.Stats()
	if got, want := after.Writes-before.Writes, uint64(rounds*len(addrs)); got != want {
		t.Errorf("%d rounds over %d servers made %d socket writes, want %d", rounds, len(addrs), got, want)
	}
	if got, want := after.Attempts-before.Attempts, uint64(rounds*len(addrs)*3); got != want {
		t.Errorf("%d rounds over %d servers sent %d frames, want %d: a push, a step and a pull each", rounds, len(addrs), got, want)
	}
	if after.Redials != before.Redials {
		t.Errorf("the rounds redialled %d times", after.Redials-before.Redials)
	}
}
