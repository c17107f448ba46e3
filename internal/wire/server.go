package wire

// Server is the real-socket counterpart of a ps server process: a TCP
// listener owning a set of column-range ps.Shards, applying the decoded
// operators against local memory under one mutex, with the exactly-once
// contract of the simulated servers — the same ps.AppliedSet, replaying a
// duplicate's cached response and retired by each client's watermark.
//
// A shard row is compact, (column, value) pairs of the columns written
// since its last zero, or dense, width-long memory (support.go). PushAdd
// adds to the pairs, and the fused program visits only the pairs when that
// gives the dense kernels' result bit for bit, so a step after a few hundred
// pushed columns costs a few hundred columns, and a row millions of columns
// wide holds only them. A frame's bytes are counted under the mutex before
// its response is written, so a client that holds its answer finds the
// frame in the next Stats reply, whichever connection carries it.
//
// A range pull of a compact row answers with its pairs, encoded under the
// mutex in column order (payload.go). A range pull of a dense row copies
// nothing: under the mutex it puts a lease on the row, and its connection
// writes the row's own memory to the socket after the mutex is released, so
// a slow reader of a wide row holds up no other connection. A write to a
// leased row copies the row first (support.go, own), so the response is the
// row exactly as it was when the pull was handled. The mutex is never held
// across a socket write.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/arena"
	"repro/internal/ps"
)

// connScratch is per-connection reusable buffers: the frame payload, decode
// scratch for the operator arguments, and the response encode buffer. One
// connection serves one frame at a time, so the scratch never overlaps
// between requests; everything in it is only valid until the next frame.
// Responses that outlive the request (the dedup cache) are copied out in
// handle before being stored.
type connScratch struct {
	payload []byte    // frame payload (ReadFrameReuse target)
	cols    []int     // decoded column lists
	vals    []float64 // decoded / assembled value vectors
	ops     []FusedOp // decoded fused programs
	keys    []uint64  // a compact row's pairs in column order (row.sorted)
	resp    []byte    // response payload encode buffer
	piece   []byte    // a lent row's values encoded a piece at a time (big-endian hosts)

	// A range pull's row, borrowed from its shard until the response is
	// written, and the lease that keeps it unchanged until then.
	lent  []float64
	lease *lease
}

// release lets go of scratch wider than arena.ReuseCap once its frame is
// written, as arena.PutBytes does, so a connection does not pin a giant
// request or response for as long as it lives.
func (sc *connScratch) release() {
	if cap(sc.payload) > arena.ReuseCap {
		sc.payload = nil
	}
	if cap(sc.resp) > arena.ReuseCap {
		sc.resp = nil
	}
}

// ServerStats counts a server's request traffic. Bytes are payload+header
// bytes actually read from and written to sockets.
type ServerStats struct {
	Requests  uint64 // frames served, dedup replays included
	DedupHits uint64 // mutating frames answered from the applied-set
	BytesIn   uint64
	BytesOut  uint64
}

// Server serves the wire protocol on one listener. Zero value is not ready;
// use NewServer.
type Server struct {
	mu      sync.Mutex
	mats    map[uint32]*shard
	applied ps.AppliedSet
	stats   ServerStats

	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server with no shards; CreateShard allocates them.
func NewServer() *Server {
	return &Server{
		mats:  make(map[uint32]*shard),
		conns: make(map[net.Conn]struct{}),
	}
}

// Listen binds the server to addr ("host:port"; ":0" picks a free port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return ln.Addr().String(), nil
}

// Serve accepts connections until Close; each connection is served by its
// own goroutine, one frame at a time in arrival order, and the answers to
// frames that arrived together leave in one write. It returns nil after
// Close, or the accept error otherwise.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("wire: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops the listener, closes every live connection and waits for
// their handlers to drain. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}

// Stats returns a copy of the traffic counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	r := bufio.NewReaderSize(conn, burstBuf)
	w := bufio.NewWriterSize(conn, burstBuf)
	var sc connScratch
	var f Frame
	for {
		if err := ReadFrameReuse(r, &f, &sc.payload); err != nil {
			// Peer hung up or spoke garbage: drop the connection, but first
			// send the answers held back while this frame looked whole. The
			// flush error changes nothing, the connection is going anyway.
			_ = w.Flush()
			return
		}
		resp, appErr := s.handle(f, &sc)
		if err := respond(w, resp, appErr, &sc); err != nil {
			return
		}
		sc.release()
		if nextFrameBuffered(r) {
			continue // its answer leaves in the same write as this one
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// nextFrameBuffered reports whether r already holds the whole next frame, so
// reading and handling it cannot wait on the peer. Only then may the answer
// before it stay unflushed: an answer is never held for a frame that has
// only partly arrived.
func nextFrameBuffered(r *bufio.Reader) bool {
	n := r.Buffered()
	if n < reqHeaderLen {
		return false
	}
	h, err := r.Peek(reqHeaderLen)
	return err == nil && n-reqHeaderLen >= int(binary.LittleEndian.Uint32(h[20:]))
}

// respond writes one frame's answer to w. A lent range pull's answer is
// resp, its 8-byte prefix, followed by the lent row's values; its lease is
// dropped once the write returns, whether it succeeded or not.
func respond(w io.Writer, resp []byte, appErr error, sc *connScratch) error {
	if sc.lease == nil {
		return WriteResponse(w, resp, appErr)
	}
	defer func() {
		sc.lease.n.Add(-1)
		sc.lent, sc.lease = nil, nil
	}()
	return writeRangeResp(w, resp, sc.lent, &sc.piece)
}

// handle executes one frame under the store mutex and returns the response
// payload (possibly aliasing sc's scratch — valid until the next frame on
// this connection). A range pull of a dense row returns only the payload's
// 8-byte prefix and leaves its row on lease in sc.lent for respond to write.
// The frame's bytes in both directions, the lent row's included, are counted
// before the mutex is released, so before the response is written.
func (s *Server) handle(f Frame, sc *connScratch) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp, appErr := s.dedupApply(f, sc)
	n := len(resp) + 8*len(sc.lent)
	if appErr != nil {
		n = len(appErr.Error())
	}
	s.stats.BytesIn += uint64(reqHeaderLen + len(f.Payload))
	s.stats.BytesOut += uint64(respHeaderLen + n)
	return resp, appErr
}

// dedupApply filters a mutating frame through the applied-set before
// applying it: a duplicate request ID replays the cached response without
// touching state. The caller holds s.mu.
func (s *Server) dedupApply(f Frame, sc *connScratch) (resp []byte, appErr error) {
	s.stats.Requests++

	// Retire dedup entries the client can never resend.
	s.applied.Retire(f.AckedTo)
	if f.Mutates() && f.ReqID != 0 {
		if cached, ok := s.applied.Lookup(f.ReqID); ok {
			s.stats.DedupHits++
			return cached, nil
		}
	}

	resp, appErr = s.apply(f, sc)
	// A lent range pull flagged as mutating is not recorded: its answer is
	// not resp alone, and a read is answered afresh as safely.
	if appErr == nil && f.Mutates() && f.ReqID != 0 && sc.lease == nil {
		// The response may alias connection scratch that the next frame will
		// overwrite; the dedup cache needs its own copy (arena rule: never
		// retain an aliased buffer).
		s.applied.Record(f.ReqID, bytes.Clone(resp))
	}
	return resp, appErr
}

func (s *Server) shard(mat uint32) (*shard, error) {
	sh, ok := s.mats[mat]
	if !ok {
		return nil, fmt.Errorf("wire: unknown matrix %d", mat)
	}
	return sh, nil
}

// checkRow refuses a row index outside the shard.
func (sh *shard) checkRow(r int) error {
	if r < 0 || r >= len(sh.rows) {
		return fmt.Errorf("wire: row %d out of range [0,%d)", r, len(sh.rows))
	}
	return nil
}

// shardRow returns matrix mat's shard after checking it has row r. It
// refuses a column list that leaves the shard's range before any of it is
// applied: a ServerError is never retried, so a push that failed at its
// k-th column with the first k-1 already added would stay torn.
func (s *Server) shardRow(mat uint32, r int, cols []int) (*shard, error) {
	sh, err := s.shard(mat)
	if err != nil {
		return nil, err
	}
	if err = sh.checkRow(r); err != nil {
		return nil, err
	}
	for _, c := range cols {
		if c < sh.lo || c >= sh.lo+sh.width {
			return nil, fmt.Errorf("wire: column %d outside shard [%d,%d)", c, sh.lo, sh.lo+sh.width)
		}
	}
	return sh, nil
}

// maxRowWidth is the widest shard row one PullRange response can carry:
// the dense layout holds the row's first column and value count (4 bytes
// each) and 8 bytes per value.
const maxRowWidth = (MaxPayload - 8) / 8

func (s *Server) apply(f Frame, sc *connScratch) ([]byte, error) {
	switch f.Op {
	case OpPing:
		return f.Payload, nil

	case OpCreateShard:
		mat, rows, lo, hi, err := decodeCreateShard(f.Payload)
		if err != nil {
			return nil, err
		}
		if rows <= 0 || lo < 0 || hi < lo {
			return nil, fmt.Errorf("wire: bad shard shape rows=%d range=[%d,%d)", rows, lo, hi)
		}
		if hi-lo > maxRowWidth {
			// Refused here, or every PullRange of the row would overflow its
			// response frame and drop the connection like a dead server.
			return nil, fmt.Errorf("wire: shard width %d exceeds %d, the widest row a PullRange response can carry", hi-lo, maxRowWidth)
		}
		if sh, ok := s.mats[mat]; ok {
			if len(sh.rows) == rows && sh.lo == lo && sh.width == hi-lo {
				return nil, nil // idempotent re-create
			}
			return nil, fmt.Errorf("wire: matrix %d exists with different shape", mat)
		}
		s.mats[mat] = newShard(rows, lo, hi)
		return nil, nil

	case OpPullSparse:
		mat, r, cols, err := DecodePullSparseReqInto(f.Payload, &sc.cols)
		if err != nil {
			return nil, err
		}
		sh, err := s.shardRow(mat, r, cols)
		if err != nil {
			return nil, err
		}
		vals := growFloats(&sc.vals, len(cols))
		sh.gather(r, cols, vals)
		sc.resp = AppendVals(sc.resp[:0], vals)
		return sc.resp, nil

	case OpPushAdd:
		mat, r, cols, vals, err := DecodePushAddInto(f.Payload, &sc.cols, &sc.vals)
		if err != nil {
			return nil, err
		}
		sh, err := s.shardRow(mat, r, cols)
		if err != nil {
			return nil, err
		}
		sh.push(r, cols, vals)
		return nil, nil

	case OpFused:
		mat, ops, err := DecodeFusedInto(f.Payload, &sc.ops)
		if err != nil {
			return nil, err
		}
		sh, err := s.shard(mat)
		if err != nil {
			return nil, err
		}
		// Validate the whole program before running any step: a retried
		// half-applied program would break the exactly-once contract.
		for _, op := range ops {
			a, b := op.Row, op.Row // FZero and FScale touch one row
			if op.Kind == FAxpy {
				a, b = op.Dst, op.Src
			}
			if err := sh.checkRow(a); err != nil {
				return nil, err
			}
			if err := sh.checkRow(b); err != nil {
				return nil, err
			}
		}
		// Each op visits the compact rows' pairs, or runs the linalg kernel
		// over the whole row where that could give a different result
		// (support.go).
		for _, op := range ops {
			switch op.Kind {
			case FAxpy:
				sh.axpy(op.Scale, op.Src, op.Dst)
			case FZero:
				sh.zero(op.Row)
			case FScale:
				sh.scale(op.Scale, op.Row)
			}
		}
		return nil, nil

	case OpPullRange:
		mat, r, err := decodePullRangeReq(f.Payload)
		if err != nil {
			return nil, err
		}
		sh, err := s.shardRow(mat, r, nil)
		if err != nil {
			return nil, err
		}
		// A compact row ships its pairs, encoded here, whenever that is the
		// smaller answer; only a 0-wide row is not, and turns dense. A dense
		// row is lent instead of copied: respond writes it out after the
		// mutex is released.
		x := &sh.rows[r]
		if !x.dense {
			if 12+12*len(x.cols) < 8+8*sh.width {
				sc.resp = appendSparseRange(sc.resp[:0], sh.lo, sh.width, x.sorted(&sc.keys), x.vals)
				return sc.resp, nil
			}
			sh.spread(r)
		}
		sc.lent, sc.lease = x.mem, sh.borrow(r)
		sc.resp = appendRangePrefix(sc.resp[:0], sh.lo, sh.width)
		return sc.resp, nil

	case OpStats:
		return encodeStatsResp(s.stats), nil

	default:
		return nil, fmt.Errorf("wire: unknown opcode %d", f.Op)
	}
}
