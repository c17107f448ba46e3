package wire

// Client is the worker side of the protocol: one logical endpoint per PS
// server address, each with a small connection pool, a ps.Ledger for request
// IDs and the acknowledgement watermark, and a deadline-based retry loop that
// maps ps.RetryConfig's virtual-time schedule onto wall-clock time:
//
//	simnet backend                      wire backend
//	------------------------------      -----------------------------------
//	lost message → wait TimeoutSec      read/write deadline of TimeoutSec
//	  then resend (same reqID)            expires → resend (same reqID)
//	server down → backoff sleep,        dial refused / conn reset → backoff
//	  doubling to MaxBackoffSec           sleep, doubling to MaxBackoffSec
//	MaxRetries exhausted →              MaxRetries exhausted →
//	  ps.ErrServerDown                    wire.ErrEndpointDown
//
// Every exchange is a Pipeline: requests to one server written back to back
// on one connection and their answers read in order. A single call is the
// one-frame case, so there is one retry loop and one read path.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/arena"
	"repro/internal/ps"
)

// Retry is the wall-clock retry schedule. Zero value is unusable; use
// DefaultRetry or RetryFromPS.
type Retry struct {
	Timeout    time.Duration // per-attempt deadline before a resend
	Backoff    time.Duration // first wait when the endpoint looks dead
	MaxBackoff time.Duration // backoff cap
	MaxRetries int           // attempts before ErrEndpointDown
}

// RetryFromPS converts the simulated schedule into its wall-clock twin,
// second for second.
func RetryFromPS(rc ps.RetryConfig) Retry {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return Retry{
		Timeout:    sec(rc.TimeoutSec),
		Backoff:    sec(rc.BackoffSec),
		MaxBackoff: sec(rc.MaxBackoffSec),
		MaxRetries: rc.MaxRetries,
	}
}

// DefaultRetry mirrors ps.DefaultRetryConfig on the wall clock.
func DefaultRetry() Retry { return RetryFromPS(ps.DefaultRetryConfig()) }

// ClientStats counts the client's traffic across all endpoints.
type ClientStats struct {
	Calls    uint64 // logical calls issued
	Attempts uint64 // frames actually sent (> Calls under retries)
	Timeouts uint64 // attempts killed by the per-attempt deadline
	Redials  uint64 // attempts that had to re-establish a connection
	Writes   uint64 // write calls on the sockets
	BytesOut uint64
	BytesIn  uint64
}

// poolConn is a pooled connection with its buffered reader/writer and the
// response payload buffer, all reused across exchanges so the steady-state
// round trip allocates nothing. A response is decoded out of rbuf before the
// next one is read into it. A range response is never read into rbuf whole:
// its values are read straight into the caller's slice, bounded by lr.
// writes counts the write calls bw makes on the socket.
type poolConn struct {
	net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	rbuf   []byte
	lr     io.LimitedReader
	writes uint64
}

// Write writes b to the socket and counts the call.
func (pc *poolConn) Write(b []byte) (int, error) {
	pc.writes++
	return pc.Conn.Write(b)
}

// endpoint is one server address plus its idle-connection pool.
type endpoint struct {
	addr string
	pool chan *poolConn
}

// Client talks the wire protocol to a fixed set of server endpoints,
// indexed the same way the range partitioner indexes servers. Safe for
// concurrent use; a Pipeline is not.
type Client struct {
	eps   []*endpoint
	retry Retry

	mu     sync.Mutex
	ledger ps.Ledger
	stats  ClientStats
	closed bool // Close ran: a connection released afterwards is closed, not pooled
}

// poolSize bounds idle connections kept per endpoint; concurrent calls
// beyond it dial extra connections and close them when done.
const poolSize = 4

// NewClient returns a client for the given endpoints. Connections are
// dialed lazily on first use. The client draws a random non-zero session, so
// its request IDs never collide with another client's on a shared server.
func NewClient(addrs []string, retry Retry) *Client {
	session := rand.Uint32()
	for session == 0 {
		session = rand.Uint32()
	}
	c := &Client{
		eps:    make([]*endpoint, len(addrs)),
		retry:  retry,
		ledger: ps.NewLedger(session),
	}
	for i, a := range addrs {
		c.eps[i] = &endpoint{addr: a, pool: make(chan *poolConn, poolSize)}
	}
	return c
}

// Servers returns the endpoint count.
func (c *Client) Servers() int { return len(c.eps) }

// Stats returns a copy of the traffic counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close drops every pooled connection. A call still in flight finishes on
// its own connection, which is then closed rather than pooled.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, ep := range c.eps {
		for drained := false; !drained; {
			select {
			case pc := <-ep.pool:
				pc.Close()
			default:
				drained = true
			}
		}
	}
}

// begin allocates a request ID for a mutating call and snapshots the
// watermark to ride with it.
func (c *Client) begin(mutates bool) (reqID, ackedTo uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Calls++
	if mutates {
		reqID = c.ledger.Next()
	}
	return reqID, c.ledger.Watermark()
}

func (c *Client) count(f func(st *ClientStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// dial returns a pooled connection or establishes a new one; fresh reports
// whether a new dial happened. The bufio pair lives with the connection so
// an exchange does not rebuild its buffers per attempt. Both are burstBuf
// long: a round's burst leaves in one write, and its answers, a pull of a
// few thousand columns included, arrive in one read.
func (c *Client) dial(ep *endpoint) (pc *poolConn, fresh bool, err error) {
	select {
	case pc = <-ep.pool:
		return pc, false, nil
	default:
	}
	conn, err := net.DialTimeout("tcp", ep.addr, c.retry.Timeout)
	if err != nil {
		return nil, true, err
	}
	pc = &poolConn{Conn: conn, br: bufio.NewReaderSize(conn, burstBuf)}
	pc.bw = bufio.NewWriterSize(pc, burstBuf)
	return pc, true, nil
}

// release parks the connection back into the pool, or closes it if the
// pool is full or the client closed.
func (c *Client) release(ep *endpoint, pc *poolConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		select {
		case ep.pool <- pc:
			return
		default:
		}
	}
	pc.Close()
}

// call is one request of a pipeline and where its answer goes: a sparse
// pull's values into *vals (want of them); a range pull's values streamed
// into *vals and its first column into *lo, or its nonzero values into
// *nz; any other payload copied into *out when out is set.
type call struct {
	f    Frame
	vals *[]float64
	want int
	lo   *int
	nz   *RangeNonzero
	out  *[]byte
}

// Pipeline is a burst of requests to one server. The queueing methods encode
// a request and give it its ID, Send writes what is queued back to back on
// one connection, and Wait reads the answers in the order the requests were
// queued. The server applies a connection's frames in arrival order, so a
// pull queued after a push reads what the push left. Not safe for concurrent
// use; after Wait the pipeline is empty and ready for the next burst.
type Pipeline struct {
	c     *Client
	s     int
	calls []call
	pc    *poolConn // what calls[done:sent] are in flight on; nil before a write and after a fault
	sent  int
	done  int
	fault error // the transport failure that dropped pc, which Wait retries
	err   error // the first application error
}

// Pipeline returns an empty pipeline to server s.
func (c *Client) Pipeline(s int) *Pipeline { return &Pipeline{c: c, s: s} }

// pipelines recycles the one-frame pipelines of single calls.
var pipelines = sync.Pool{New: func() any { return new(Pipeline) }}

// do makes a single call: a pooled one-frame pipeline to server s, on which
// queue puts the frame.
func (c *Client) do(s int, queue func(p *Pipeline)) error {
	p := pipelines.Get().(*Pipeline)
	p.c, p.s = c, s
	queue(p)
	err := p.Wait()
	p.c = nil
	pipelines.Put(p)
	return err
}

// queue appends one request. payload is an arena buffer, which the pipeline
// returns to the arena once the request is answered or given up on.
func (p *Pipeline) queue(op byte, mutates bool, payload []byte, cl call) {
	reqID, ackedTo := p.c.begin(mutates)
	var flags byte
	if mutates {
		flags = FlagMutates
	}
	cl.f = Frame{Op: op, Flags: flags, ReqID: reqID, AckedTo: ackedTo, Payload: payload}
	p.calls = append(p.calls, cl)
}

// refuse records a request's application error, whether found as it was
// queued (it is then not sent) or in its answer; Wait returns the first.
func (p *Pipeline) refuse(err error) {
	if p.err == nil {
		p.err = err
	}
}

// Send writes the queued requests not yet written and flushes them, so the
// server starts on them while the caller goes on working; it dials on first
// use, and each write starts the per-attempt deadline afresh. A failure is
// left for Wait to retry.
func (p *Pipeline) Send() {
	c := p.c
	if p.fault != nil || p.sent == len(p.calls) || p.s < 0 || p.s >= len(c.eps) {
		return
	}
	if p.pc == nil {
		pc, fresh, err := c.dial(c.eps[p.s])
		if fresh {
			c.count(func(st *ClientStats) { st.Redials++ })
		}
		if err != nil {
			p.fault = err
			return
		}
		p.pc = pc
	}
	pc := p.pc
	err := pc.SetDeadline(time.Now().Add(c.retry.Timeout))
	var out uint64
	writes := pc.writes
	for i := p.sent; err == nil && i < len(p.calls); i++ {
		f := p.calls[i].f
		err = WriteFrame(pc.bw, f)
		out += uint64(reqHeaderLen + len(f.Payload))
	}
	if err == nil {
		err = pc.bw.Flush()
	}
	if err != nil {
		p.drop(err)
		return
	}
	n := uint64(len(p.calls) - p.sent)
	p.sent = len(p.calls)
	writes = pc.writes - writes
	c.count(func(st *ClientStats) {
		st.Attempts += n
		st.Writes += writes
		st.BytesOut += out
	})
}

// drop closes the connection after a transport failure; the unanswered
// requests go out again on the next one.
func (p *Pipeline) drop(err error) {
	p.pc.Close()
	p.pc = nil
	p.fault = err
	p.sent = p.done
}

// Wait writes whatever is still queued and reads every answer in order.
//
// A transport failure — an expired deadline, a reset, a refused dial — drops
// the connection and resends only the unanswered requests, with their
// request IDs, on a fresh one, so a mutating request stays exactly-once
// (server-side dedup). A timeout resends at once, exactly like the simnet
// loop after its timeout sleep; any other failure backs off first. After
// MaxRetries attempts Wait returns an error wrapping ErrTimeout or
// ErrEndpointDown.
//
// An application error — a status-1 answer, or one that does not decode —
// fails its request alone: it is deterministic, so it is never retried, and
// the later requests of the burst are still applied and read. Wait returns
// the first such error, and the connection is closed rather than pooled.
func (p *Pipeline) Wait() error {
	defer p.reset()
	c := p.c
	if p.s < 0 || p.s >= len(c.eps) {
		return fmt.Errorf("wire: server index %d out of range [0,%d)", p.s, len(c.eps))
	}
	ep := c.eps[p.s]
	backoff := c.retry.Backoff
	for attempt := 1; ; attempt++ {
		p.Send()
		p.read()
		if p.fault == nil {
			break
		}
		var nerr net.Error
		timeout := errors.As(p.fault, &nerr) && nerr.Timeout()
		if timeout {
			c.count(func(st *ClientStats) { st.Timeouts++ })
		}
		if attempt >= c.retry.MaxRetries {
			class := ErrEndpointDown
			if timeout {
				class = ErrTimeout
			}
			return fmt.Errorf("wire: server %d (%s) unreachable after %d attempts: %w (last: %v)",
				p.s, ep.addr, c.retry.MaxRetries, class, p.fault)
		}
		if !timeout {
			// Reset, EOF or refused dial: endpoint restarting or gone.
			time.Sleep(backoff)
			backoff = min(backoff*2, c.retry.MaxBackoff)
		}
		p.fault = nil
	}
	if p.pc != nil && p.err == nil {
		c.release(ep, p.pc)
		p.pc = nil
	}
	return p.err
}

// reset settles the burst's request IDs, advancing the watermark, returns
// the payloads to the arena and empties the pipeline. A connection still
// held is suspect and closed.
func (p *Pipeline) reset() {
	c := p.c
	c.mu.Lock()
	for i := range p.calls {
		if id := p.calls[i].f.ReqID; id != 0 {
			c.ledger.Settle(id)
		}
	}
	c.mu.Unlock()
	for i := range p.calls {
		arena.PutBytes(p.calls[i].f.Payload)
		p.calls[i] = call{}
	}
	if p.pc != nil {
		p.pc.Close()
		p.pc = nil
	}
	p.calls = p.calls[:0]
	p.sent, p.done, p.fault, p.err = 0, 0, nil, nil
}

// read takes the answers to the written requests off the connection in
// order, until they are all in or the connection fails.
func (p *Pipeline) read() {
	var in uint64
	for p.fault == nil && p.done < p.sent {
		n, err := p.answer(&p.calls[p.done])
		in += n
		if err != nil {
			var appErr *appError
			if !errors.As(err, &appErr) {
				p.drop(err) // transport: timeout, reset, EOF on a stale conn
				break
			}
			p.refuse(appErr.err)
		}
		p.done++
	}
	if in > 0 {
		p.c.count(func(st *ClientStats) { st.BytesIn += in })
	}
}

// appError wraps a status-1 response, or a response payload that does not
// decode, so the retry loop can tell it apart from transport failures: the
// server would answer a resend the same way.
type appError struct{ err error }

func (e *appError) Error() string { return e.err.Error() }

// answer reads the response to cl and delivers it, returning the bytes read.
// An application error comes back as *appError with the whole response
// consumed, so the next answer on the connection reads from its start.
func (p *Pipeline) answer(cl *call) (uint64, error) {
	pc := p.pc
	if cl.lo != nil || cl.nz != nil {
		return p.answerRange(cl)
	}
	resp, err := ReadResponseReuse(pc.br, &pc.rbuf)
	if err != nil {
		return readError(err)
	}
	n := uint64(respHeaderLen + len(resp))
	switch {
	case cl.vals != nil:
		vals, err := DecodeValsInto(resp, cl.vals)
		if err == nil && len(vals) != cl.want {
			err = fmt.Errorf("wire: pulled %d values for %d columns", len(vals), cl.want)
		}
		if err != nil {
			return n, &appError{err: err}
		}
	case cl.out != nil:
		*cl.out = append([]byte(nil), resp...)
	}
	return n, nil
}

// answerRange is answer for a range pull, whose values are read off the
// socket into the caller's slice: a payload the decoder refuses is read off
// and dropped.
func (p *Pipeline) answerRange(cl *call) (uint64, error) {
	pc := p.pc
	plen, err := readResponseHeader(pc.br, &pc.rbuf)
	if err != nil {
		return readError(err)
	}
	n := uint64(respHeaderLen + plen)
	pc.lr = io.LimitedReader{R: pc.br, N: int64(plen)}
	if cl.nz != nil {
		err = readPullRangeNonzero(&pc.lr, plen, &pc.rbuf, cl.nz)
	} else {
		var lo int
		if lo, _, err = readPullRangeResp(&pc.lr, plen, &pc.rbuf, cl.vals); err == nil {
			*cl.lo = lo
		}
	}
	if err == nil {
		return n, nil
	}
	if readFailure(err) {
		return 0, err
	}
	if _, err := pc.br.Discard(int(pc.lr.N)); err != nil {
		return 0, err
	}
	return n, &appError{err: err}
}

// readError sorts the error of a response read. A status-1 answer is the
// server's verdict on a request it executed, deterministic and so never
// retried; anything else is the transport's.
func readError(err error) (uint64, error) {
	var sErr *ServerError
	if errors.As(err, &sErr) {
		return uint64(respHeaderLen + len(sErr.Msg)), &appError{err: err}
	}
	return 0, err
}

// readFailure reports whether a stream decoder's error is the connection's —
// a read that hit the deadline, a reset, or the end of the stream part-way
// through the payload — rather than its verdict on the bytes it read.
func readFailure(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// --- Operators, queued on a pipeline ---

// CreateShard queues the allocation (idempotent) of a rows × [lo,hi) shard
// of matrix mat.
func (p *Pipeline) CreateShard(mat uint32, rows, lo, hi int) {
	p.queue(OpCreateShard, true, AppendCreateShard(arena.Bytes(0), mat, rows, lo, hi), call{})
}

// PullSparseInto queues a read of the given columns of one row into caller
// scratch: *valsBuf is grown as needed and resized to len(cols) when the
// answer is read. Columns must lie inside the server's shard range.
func (p *Pipeline) PullSparseInto(mat uint32, row int, cols []int, valsBuf *[]float64) {
	p.queue(OpPullSparse, false, AppendPullSparseReq(arena.Bytes(0), mat, row, cols),
		call{vals: valsBuf, want: len(cols)})
}

// PushAdd queues sparse deltas to add into one row, exactly once.
func (p *Pipeline) PushAdd(mat uint32, row int, cols []int, vals []float64) {
	if len(cols) != len(vals) {
		p.refuse(fmt.Errorf("wire: %d columns vs %d values", len(cols), len(vals)))
		return
	}
	p.queue(OpPushAdd, true, AppendPushAdd(arena.Bytes(0), mat, row, cols, vals), call{})
}

// Fused queues an op program to run atomically, exactly once.
func (p *Pipeline) Fused(mat uint32, ops []FusedOp) {
	p.queue(OpFused, true, AppendFused(arena.Bytes(0), mat, ops), call{})
}

// PullRangeInto queues a read of the server's whole stretch of one row: its
// first column into *lo and its values into caller scratch. The values are
// read off the socket straight into the scratch, so a warm read allocates
// nothing and the pooled connection keeps no buffer the size of the row.
func (p *Pipeline) PullRangeInto(mat uint32, row int, lo *int, valsBuf *[]float64) {
	p.queue(OpPullRange, false, AppendPullRangeReq(arena.Bytes(0), mat, row), call{vals: valsBuf, lo: lo})
}

// PullRangeNonzero queues a read of the server's whole stretch of one row
// that keeps only its nonzero values, into *dst (its slices reused): the
// same request and answer as PullRangeInto, for a caller that wants what a
// wide, mostly zero row holds without memory of its width.
func (p *Pipeline) PullRangeNonzero(mat uint32, row int, dst *RangeNonzero) {
	p.queue(OpPullRange, false, AppendPullRangeReq(arena.Bytes(0), mat, row), call{nz: dst})
}

// --- Single calls: one-frame pipelines ---

// Call sends one operator to server s and returns the response payload as a
// fresh allocation the caller owns. Mutating calls are exactly-once across
// retries; errors are as Pipeline.Wait's.
func (c *Client) Call(s int, op byte, mutates bool, payload []byte) ([]byte, error) {
	var out []byte
	err := c.do(s, func(p *Pipeline) {
		p.queue(op, mutates, append(arena.Bytes(0), payload...), call{out: &out})
	})
	return out, err
}

// Ping round-trips payload through server s unchanged.
func (c *Client) Ping(s int, payload []byte) ([]byte, error) {
	return c.Call(s, OpPing, false, payload)
}

// CreateShard allocates (idempotently) a rows × [lo,hi) shard of matrix mat
// on server s.
func (c *Client) CreateShard(s int, mat uint32, rows, lo, hi int) error {
	return c.do(s, func(p *Pipeline) { p.CreateShard(mat, rows, lo, hi) })
}

// PullSparseInto reads the given columns of one row from server s into
// caller scratch (see Pipeline.PullSparseInto). Steady-state calls with a
// warm buffer allocate nothing.
func (c *Client) PullSparseInto(s int, mat uint32, row int, cols []int, valsBuf *[]float64) error {
	return c.do(s, func(p *Pipeline) { p.PullSparseInto(mat, row, cols, valsBuf) })
}

// PushAdd adds sparse deltas into one row on server s, exactly once.
func (c *Client) PushAdd(s int, mat uint32, row int, cols []int, vals []float64) error {
	return c.do(s, func(p *Pipeline) { p.PushAdd(mat, row, cols, vals) })
}

// Fused runs an op program atomically on server s, exactly once.
func (c *Client) Fused(s int, mat uint32, ops []FusedOp) error {
	return c.do(s, func(p *Pipeline) { p.Fused(mat, ops) })
}

// PullRange reads server s's whole stretch of one row, returning the range
// start and the values.
func (c *Client) PullRange(s int, mat uint32, row int) (lo int, vals []float64, err error) {
	err = c.PullRangeInto(s, mat, row, &lo, &vals)
	return lo, vals, err
}

// PullRangeInto is PullRange decoding into caller scratch (see
// Pipeline.PullRangeInto).
func (c *Client) PullRangeInto(s int, mat uint32, row int, lo *int, valsBuf *[]float64) error {
	return c.do(s, func(p *Pipeline) { p.PullRangeInto(mat, row, lo, valsBuf) })
}

// ServerStats fetches server s's traffic counters.
func (c *Client) ServerStats(s int) (ServerStats, error) {
	resp, err := c.Call(s, OpStats, false, nil)
	if err != nil {
		return ServerStats{}, err
	}
	return decodeStatsResp(resp)
}
