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
	BytesOut uint64
	BytesIn  uint64
}

// poolConn is a pooled connection with its buffered reader/writer and the
// response payload buffer, all reused across exchanges so the steady-state
// round trip allocates nothing. The rbuf contents are only valid between an
// exchange and the connection's release back to the pool — hence
// callDecode's decode-before-release discipline. A range response is never
// read into rbuf whole: it is decoded through it a piece at a time.
type poolConn struct {
	net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	rbuf []byte
}

// endpoint is one server address plus its idle-connection pool.
type endpoint struct {
	addr string
	pool chan *poolConn
}

// Client talks the wire protocol to a fixed set of server endpoints,
// indexed the same way the range partitioner indexes servers. Safe for
// concurrent use.
type Client struct {
	eps   []*endpoint
	retry Retry

	mu     sync.Mutex
	ledger ps.Ledger
	stats  ClientStats
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

// Close drops every pooled connection. In-flight calls finish on their own
// connections.
func (c *Client) Close() {
	for _, ep := range c.eps {
		for {
			select {
			case conn := <-ep.pool:
				conn.Close()
			default:
				goto next
			}
		}
	next:
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

// finish settles a mutating call's ID, advancing the watermark.
func (c *Client) finish(reqID uint64) {
	if reqID == 0 {
		return
	}
	c.mu.Lock()
	c.ledger.Settle(reqID)
	c.mu.Unlock()
}

func (c *Client) count(f func(st *ClientStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// Call sends one operator to server s and returns the response payload as a
// fresh allocation the caller owns. Mutating calls are exactly-once across
// retries (server-side dedup); the retry loop resends on deadline expiry and
// backs off on connection errors, returning an error wrapping ErrTimeout or
// ErrEndpointDown after MaxRetries attempts. A status-1 application error is
// returned as-is and never retried — it is deterministic, not a transport
// fault.
func (c *Client) Call(s int, op byte, mutates bool, payload []byte) ([]byte, error) {
	var out []byte
	err := c.callDecode(s, op, mutates, payload, func(resp []byte) error {
		out = append([]byte(nil), resp...)
		return nil
	}, nil)
	return out, err
}

// callDecode is the allocation-free core of Call: the response payload is
// handed to decode while it still aliases the pooled connection's read
// buffer, and the connection is only released afterwards. decode must not
// retain the slice. It is invoked at most once, on the successful attempt.
//
// A caller passing stream instead (decode nil) reads the payload itself:
// stream gets the connection's reader, the payload length and the
// connection's buffer as scratch, and must consume exactly plen bytes. A
// read error it passes back is a transport fault and is retried; any other
// error is its verdict on the payload and is returned as is. Either way the
// connection is closed, not pooled, since part of the payload may be unread.
func (c *Client) callDecode(s int, op byte, mutates bool, payload []byte, decode func(resp []byte) error,
	stream func(r io.Reader, plen int, scratch *[]byte) error) error {
	if s < 0 || s >= len(c.eps) {
		return fmt.Errorf("wire: server index %d out of range [0,%d)", s, len(c.eps))
	}
	ep := c.eps[s]
	reqID, ackedTo := c.begin(mutates)
	defer c.finish(reqID)

	flags := byte(0)
	if mutates {
		flags = FlagMutates
	}
	f := Frame{Op: op, Flags: flags, ReqID: reqID, AckedTo: ackedTo, Payload: payload}

	backoff := c.retry.Backoff
	var lastClass error = ErrEndpointDown
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxRetries; attempt++ {
		pc, fresh, err := c.dial(ep)
		if err != nil {
			lastClass, lastErr = ErrEndpointDown, err
			c.count(func(st *ClientStats) { st.Redials++ })
			time.Sleep(backoff)
			backoff = minDuration(backoff*2, c.retry.MaxBackoff)
			continue
		}
		if fresh {
			c.count(func(st *ClientStats) { st.Redials++ })
		}
		err = c.exchange(pc, f, decode, stream)
		if err == nil {
			c.release(ep, pc)
			return nil
		}
		pc.Close() // connection state is suspect after any failure
		var appErr *appError
		if errors.As(err, &appErr) {
			return appErr.err
		}
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			// The deadline already consumed TimeoutSec of waiting — resend
			// immediately, exactly like the simnet loop after its timeout
			// sleep.
			lastClass, lastErr = ErrTimeout, err
			c.count(func(st *ClientStats) { st.Timeouts++ })
			continue
		}
		// Reset/EOF mid-exchange: endpoint restarting or gone; back off.
		lastClass, lastErr = ErrEndpointDown, err
		time.Sleep(backoff)
		backoff = minDuration(backoff*2, c.retry.MaxBackoff)
	}
	return fmt.Errorf("wire: server %d (%s) unreachable after %d attempts: %w (last: %v)",
		s, ep.addr, c.retry.MaxRetries, lastClass, lastErr)
}

// appError wraps a status-1 response, or a response payload that does not
// decode, so Call can tell it apart from transport failures: the server
// would answer a resend the same way.
type appError struct{ err error }

func (e *appError) Error() string { return e.err.Error() }

// dial returns a pooled connection or establishes a new one; fresh reports
// whether a new dial happened. The bufio pair lives with the connection so
// an exchange does not rebuild 4-KiB buffers per attempt.
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
	return &poolConn{Conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, true, nil
}

// release parks the connection back into the pool, or closes it if the
// pool is full.
func (c *Client) release(ep *endpoint, pc *poolConn) {
	select {
	case ep.pool <- pc:
	default:
		pc.Close()
	}
}

// exchange runs one request/response round trip under the per-attempt
// deadline and hands the response to decode, or to stream (see callDecode).
// A server-reported application error, or a payload the decoder refuses, is
// wrapped in appError.
func (c *Client) exchange(pc *poolConn, f Frame, decode func(resp []byte) error,
	stream func(r io.Reader, plen int, scratch *[]byte) error) error {
	if err := pc.SetDeadline(time.Now().Add(c.retry.Timeout)); err != nil {
		return err
	}
	if err := WriteFrame(pc.bw, f); err != nil {
		return err
	}
	if err := pc.bw.Flush(); err != nil {
		return err
	}
	c.count(func(st *ClientStats) {
		st.Attempts++
		st.BytesOut += uint64(reqHeaderLen + len(f.Payload))
	})
	var plen int
	var resp []byte
	var err error
	if stream == nil {
		resp, err = ReadResponseReuse(pc.br, &pc.rbuf)
		plen = len(resp)
	} else if plen, err = readResponseHeader(pc.br, &pc.rbuf); err == nil {
		if err = stream(pc.br, plen, &pc.rbuf); err != nil && !readFailure(err) {
			return &appError{err: err}
		}
	}
	if err != nil {
		var sErr *ServerError
		if errors.As(err, &sErr) {
			// The server executed the request and reported a deterministic
			// failure; retrying cannot help.
			return &appError{err: err}
		}
		return err // transport: timeout, reset, EOF on a stale conn
	}
	c.count(func(st *ClientStats) { st.BytesIn += uint64(respHeaderLen + plen) })
	if decode != nil {
		// resp aliases pc.rbuf, which the next user of this pooled
		// connection will overwrite: callDecode releases it only after this.
		if err := decode(resp); err != nil {
			return &appError{err: err}
		}
	}
	return nil
}

// readFailure reports whether a stream decoder's error is the connection's —
// a read that hit the deadline, a reset, or the end of the stream part-way
// through the payload — rather than its verdict on the bytes it read.
func readFailure(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// --- Operator wrappers ---

// Ping round-trips payload through server s unchanged.
func (c *Client) Ping(s int, payload []byte) ([]byte, error) {
	return c.Call(s, OpPing, false, payload)
}

// CreateShard allocates (idempotently) a rows × [lo,hi) shard of matrix mat
// on server s.
func (c *Client) CreateShard(s int, mat uint32, rows, lo, hi int) error {
	_, err := c.Call(s, OpCreateShard, true, AppendCreateShard(nil, mat, rows, lo, hi))
	return err
}

// PullSparseInto reads the given columns of one row from server s into
// caller scratch: *valsBuf is grown as needed and resized to len(cols).
// Columns must lie inside the server's shard range. Steady-state calls with a
// warm buffer allocate nothing beyond the pooled request payload.
func (c *Client) PullSparseInto(s int, mat uint32, row int, cols []int, valsBuf *[]float64) error {
	req := AppendPullSparseReq(arena.Bytes(0), mat, row, cols)
	defer arena.PutBytes(req)
	return c.callDecode(s, OpPullSparse, false, req, func(resp []byte) error {
		vals, err := DecodeValsInto(resp, valsBuf)
		if err != nil {
			return err
		}
		if len(vals) != len(cols) {
			return fmt.Errorf("wire: pulled %d values for %d columns", len(vals), len(cols))
		}
		return nil
	}, nil)
}

// PushAdd adds sparse deltas into one row on server s, exactly once.
func (c *Client) PushAdd(s int, mat uint32, row int, cols []int, vals []float64) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("wire: %d columns vs %d values", len(cols), len(vals))
	}
	req := AppendPushAdd(arena.Bytes(0), mat, row, cols, vals)
	defer arena.PutBytes(req)
	return c.callDecode(s, OpPushAdd, true, req, nil, nil)
}

// Fused runs an op program atomically on server s, exactly once.
func (c *Client) Fused(s int, mat uint32, ops []FusedOp) error {
	req := AppendFused(arena.Bytes(0), mat, ops)
	defer arena.PutBytes(req)
	return c.callDecode(s, OpFused, true, req, nil, nil)
}

// PullRange reads server s's whole stretch of one row, returning the range
// start and the values.
func (c *Client) PullRange(s int, mat uint32, row int) (lo int, vals []float64, err error) {
	err = c.PullRangeInto(s, mat, row, &lo, &vals)
	return lo, vals, err
}

// PullRangeInto is PullRange decoding into caller scratch. The values are
// decoded off the socket a piece at a time, so a warm call allocates nothing
// and the pooled connection keeps no buffer the size of the row.
func (c *Client) PullRangeInto(s int, mat uint32, row int, lo *int, valsBuf *[]float64) error {
	req := AppendPullRangeReq(arena.Bytes(0), mat, row)
	defer arena.PutBytes(req)
	return c.callDecode(s, OpPullRange, false, req, nil, func(r io.Reader, plen int, scratch *[]byte) error {
		l, _, err := readPullRangeResp(r, plen, scratch, valsBuf)
		if err != nil {
			return err
		}
		*lo = l
		return nil
	})
}

// ServerStats fetches server s's traffic counters.
func (c *Client) ServerStats(s int) (ServerStats, error) {
	resp, err := c.Call(s, OpStats, false, nil)
	if err != nil {
		return ServerStats{}, err
	}
	return decodeStatsResp(resp)
}
