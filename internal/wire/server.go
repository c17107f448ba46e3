package wire

// Server is the real-socket counterpart of a ps server process: a TCP
// listener owning a set of column-range matrix shards, applying the decoded
// operators against local memory under one mutex, with the same
// exactly-once contract rpc.go gives the simulated servers — an applied-set
// keyed by request ID whose entries replay their cached response on a
// duplicate and are pruned by the client's acknowledgement watermark.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/linalg"
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
	resp    []byte    // response payload encode buffer
}

// ServerStats counts a server's request traffic. Bytes are payload+header
// bytes actually read from and written to sockets.
type ServerStats struct {
	Requests  uint64 // frames served, dedup replays included
	DedupHits uint64 // mutating frames answered from the applied-set
	BytesIn   uint64
	BytesOut  uint64
}

// shardStore is one matrix shard: rows × the server's column range [lo, hi),
// stored dense and column-shifted like ps.Shard's contiguous layout.
type shardStore struct {
	rows, lo, hi int
	data         [][]float64 // data[r][c-lo]
}

// Server serves the wire protocol on one listener. Zero value is not ready;
// use NewServer.
type Server struct {
	mu      sync.Mutex
	mats    map[uint32]*shardStore
	applied map[uint64][]byte // reqID → cached response payload
	stats   ServerStats

	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server with no shards; CreateShard allocates them.
func NewServer() *Server {
	return &Server{
		mats:    make(map[uint32]*shardStore),
		applied: make(map[uint64][]byte),
		conns:   make(map[net.Conn]struct{}),
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
// own goroutine, one frame at a time. It returns nil after Close, or the
// accept error otherwise.
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
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var sc connScratch
	var f Frame
	for {
		if err := ReadFrameReuse(r, &f, &sc.payload); err != nil {
			return // peer hung up or spoke garbage; drop the connection
		}
		resp, appErr := s.handle(f, &sc)
		if err := WriteResponse(w, resp, appErr); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		n := len(resp)
		if appErr != nil {
			n = len(appErr.Error())
		}
		s.mu.Lock()
		s.stats.BytesIn += uint64(reqHeaderLen + len(f.Payload))
		s.stats.BytesOut += uint64(respHeaderLen + n)
		s.mu.Unlock()
	}
}

// handle executes one frame under the store mutex and returns the response
// payload (possibly aliasing sc's scratch — valid until the next frame on
// this connection). Mutating frames are filtered through the applied-set
// first: a duplicate request ID replays the cached response without touching
// state.
func (s *Server) handle(f Frame, sc *connScratch) (resp []byte, appErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Requests++

	// Retire dedup entries the client can never resend.
	if f.AckedTo > 0 {
		for id := range s.applied {
			if id <= f.AckedTo {
				delete(s.applied, id)
			}
		}
	}
	if f.Mutates() && f.ReqID != 0 {
		if cached, ok := s.applied[f.ReqID]; ok {
			s.stats.DedupHits++
			return cached, nil
		}
	}

	resp, appErr = s.apply(f, sc)
	if appErr == nil && f.Mutates() && f.ReqID != 0 {
		// The response may alias connection scratch that the next frame will
		// overwrite; the dedup cache needs its own copy (arena rule: never
		// retain an aliased buffer).
		cached := resp
		if len(resp) > 0 {
			cached = append([]byte(nil), resp...)
		}
		s.applied[f.ReqID] = cached
	}
	return resp, appErr
}

func (s *Server) shard(mat uint32) (*shardStore, error) {
	sh, ok := s.mats[mat]
	if !ok {
		return nil, fmt.Errorf("wire: unknown matrix %d", mat)
	}
	return sh, nil
}

func (sh *shardStore) row(r int) ([]float64, error) {
	if r < 0 || r >= sh.rows {
		return nil, fmt.Errorf("wire: row %d out of range [0,%d)", r, sh.rows)
	}
	return sh.data[r], nil
}

// checkCols refuses a column list that leaves the shard's range, before any
// of it is applied: a ServerError is never retried, so a push that failed at
// its k-th column with the first k-1 already added would stay torn.
func (sh *shardStore) checkCols(cols []int) error {
	for _, c := range cols {
		if c < sh.lo || c >= sh.hi {
			return fmt.Errorf("wire: column %d outside shard [%d,%d)", c, sh.lo, sh.hi)
		}
	}
	return nil
}

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
		if sh, ok := s.mats[mat]; ok {
			if sh.rows == rows && sh.lo == lo && sh.hi == hi {
				return nil, nil // idempotent re-create
			}
			return nil, fmt.Errorf("wire: matrix %d exists with different shape", mat)
		}
		sh := &shardStore{rows: rows, lo: lo, hi: hi, data: make([][]float64, rows)}
		for r := range sh.data {
			sh.data[r] = make([]float64, hi-lo)
		}
		s.mats[mat] = sh
		return nil, nil

	case OpPullSparse:
		mat, row, cols, err := DecodePullSparseReqInto(f.Payload, &sc.cols)
		if err != nil {
			return nil, err
		}
		sh, err := s.shard(mat)
		if err != nil {
			return nil, err
		}
		data, err := sh.row(row)
		if err != nil {
			return nil, err
		}
		if err := sh.checkCols(cols); err != nil {
			return nil, err
		}
		vals := growFloats(&sc.vals, len(cols))
		for i, c := range cols {
			vals[i] = data[c-sh.lo]
		}
		sc.resp = AppendVals(sc.resp[:0], vals)
		return sc.resp, nil

	case OpPushAdd:
		mat, row, cols, vals, err := DecodePushAddInto(f.Payload, &sc.cols, &sc.vals)
		if err != nil {
			return nil, err
		}
		sh, err := s.shard(mat)
		if err != nil {
			return nil, err
		}
		data, err := sh.row(row)
		if err != nil {
			return nil, err
		}
		if err := sh.checkCols(cols); err != nil {
			return nil, err
		}
		for i, c := range cols {
			data[c-sh.lo] += vals[i]
		}
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
			switch op.Kind {
			case FAxpy:
				if _, err := sh.row(op.Dst); err != nil {
					return nil, err
				}
				if _, err := sh.row(op.Src); err != nil {
					return nil, err
				}
			case FZero, FScale:
				if _, err := sh.row(op.Row); err != nil {
					return nil, err
				}
			}
		}
		// The linalg kernels fan wide rows out over the shared worker pool
		// (shard-parallel apply); their fixed chunked order keeps results
		// bit-identical to the serial loops they replaced.
		for _, op := range ops {
			switch op.Kind {
			case FAxpy:
				linalg.Axpy(op.Scale, sh.data[op.Src], sh.data[op.Dst])
			case FZero:
				linalg.Fill(sh.data[op.Row], 0)
			case FScale:
				linalg.Scale(op.Scale, sh.data[op.Row])
			}
		}
		return nil, nil

	case OpPullRange:
		mat, row, err := decodePullRangeReq(f.Payload)
		if err != nil {
			return nil, err
		}
		sh, err := s.shard(mat)
		if err != nil {
			return nil, err
		}
		data, err := sh.row(row)
		if err != nil {
			return nil, err
		}
		// Encode straight from shard memory (still under s.mu); the old
		// intermediate copy bought nothing.
		sc.resp = AppendPullRangeResp(sc.resp[:0], sh.lo, data)
		return sc.resp, nil

	case OpStats:
		return encodeStatsResp(s.stats), nil

	default:
		return nil, fmt.Errorf("wire: unknown opcode %d", f.Op)
	}
}
