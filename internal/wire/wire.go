// Package wire is the real-TCP parameter server: a length-prefixed binary
// protocol carrying the PS data-plane operators — sparse pull, push-add,
// fused update programs, range pull — between OS processes, so the LR
// trainer that normally runs on simnet virtual time can run against real
// sockets (cmd/ps2serve, cmd/ps2worker).
//
// The simulated ps.CallShard ships Go closures executed against in-process
// shard memory, and a closure cannot cross a socket. Instead wire speaks the
// concrete encodings of the operators those closures implement, and runs the
// same at-least-once machinery on real time:
//
//   - exactly-once is the simulated servers' own core (ps/dedup.go): every
//     mutating request carries an ID from the client's ps.Ledger, every
//     request its watermark, and the server's ps.AppliedSet replays
//     duplicates and retires entries the watermark has passed. Each client
//     numbers in a random session of its own (the IDs' upper 32 bits), so
//     clients sharing a server never collide;
//   - a lost or stalled exchange surfaces as a connection deadline expiry,
//     which the client maps onto the same RetryConfig schedule the simnet
//     backend uses: resend after TimeoutSec, exponential backoff capped at
//     MaxBackoffSec when the endpoint looks dead, ErrEndpointDown after
//     MaxRetries attempts.
//
// Frames on one connection are applied in arrival order, and answered in
// that order: this is a protocol guarantee, not an accident of the server's
// loop. A client may therefore pipeline — write several frames before
// reading any answer (Client.Pipeline) — and a read queued behind a write on
// the same connection sees the write applied; the LR worker's pull of the
// next batch's weights behind its push and step relies on it. The server
// flushes its answers when no further frame is whole in its read buffer, so
// the answers to a burst leave together, and an answer is never held back
// waiting for a frame that has only partly arrived.
//
// Within a burst, a transport failure resends only the frames not yet
// answered, keeping their request IDs, so mutating frames stay exactly-once
// across the cut. An application error (a status-1 answer, or an answer
// that does not decode) fails its request alone: the frames after it in the
// burst are still applied in order and answered, and the burst reports the
// first such error.
//
// Frame layout (little-endian). Request:
//
//	magic   uint16  0x5053 ("PS")
//	op      uint8   opcode, Op* below
//	flags   uint8   bit 0: request mutates server state (dedup applies)
//	reqID   uint64  dedup ID (session<<32 | sequence); 0 for read-only requests
//	ackedTo uint64  client's acknowledgement watermark (session<<32 | sequence)
//	plen    uint32  payload length, ≤ MaxPayload
//	payload [plen]byte
//
// Response:
//
//	magic  uint16  0x5053
//	status uint8   0 = ok (payload is the result), 1 = application error
//	               (payload is the error text)
//	pad    uint8
//	plen   uint32
//	payload [plen]byte
//
// The transport conformance suite (conformance_test.go) pins the behaviours
// this backend must share with the simnet one: delivery, timeout surfacing,
// endpoint-down surfacing, and large-payload integrity.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic prefixes every frame in both directions.
const Magic uint16 = 0x5053

// MaxPayload bounds a single frame's payload; a peer announcing more is
// treated as a protocol violation and the connection is dropped.
const MaxPayload = 64 << 20

// Opcodes. The numbering is part of the wire format; append, never renumber.
const (
	OpPing        byte = 1 // echo the payload (liveness probe, conformance)
	OpCreateShard byte = 2 // allocate a matrix shard (idempotent)
	OpPullSparse  byte = 3 // read selected columns of one row
	OpPushAdd     byte = 4 // add sparse deltas into one row (mutates)
	OpFused       byte = 5 // run an op program atomically (mutates)
	OpPullRange   byte = 6 // read the shard's whole stretch of one row
	OpStats       byte = 7 // server-side counters
)

// FlagMutates marks a request whose effects must be exactly-once; the
// server tracks its reqID in the applied-set.
const FlagMutates byte = 1

// ErrTimeout classifies an attempt that died waiting on the socket — the
// real-time analogue of simnet.ErrMsgLost: resend, don't give up.
var ErrTimeout = errors.New("wire: request timed out")

// ErrEndpointDown classifies an endpoint that stayed unreachable through
// the whole retry schedule — the analogue of ps.ErrServerDown.
var ErrEndpointDown = errors.New("wire: endpoint down")

// ServerError is a status-1 response: the server executed the request and
// reported a deterministic application failure (bad matrix id, column out
// of the shard's range, malformed payload). It is never retried.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "wire: server error: " + e.Msg }

const (
	reqHeaderLen  = 24
	respHeaderLen = 8
)

// burstBuf sizes the client's write buffer and the server's read and write
// buffers, so a worker's burst of push, step and pull leaves in one write,
// lands in one read, and its answers leave in one write too.
const burstBuf = 64 << 10

// Frame is one decoded request.
type Frame struct {
	Op      byte
	Flags   byte
	ReqID   uint64
	AckedTo uint64
	Payload []byte
}

// Mutates reports whether the request's effects need dedup tracking.
func (f Frame) Mutates() bool { return f.Flags&FlagMutates != 0 }

// WriteFrame serializes one request onto w. A writer with an
// AvailableBuffer method (bufio.Writer, bytes.Buffer) takes the header in its
// own spare capacity, so the call allocates nothing; a local header array
// would escape through the io.Writer call and cost an allocation per frame.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds cap %d", len(f.Payload), MaxPayload)
	}
	h := headerBuf(w, reqHeaderLen)
	h = binary.LittleEndian.AppendUint16(h, Magic)
	h = append(h, f.Op, f.Flags)
	h = binary.LittleEndian.AppendUint64(h, f.ReqID)
	h = binary.LittleEndian.AppendUint64(h, f.AckedTo)
	h = binary.LittleEndian.AppendUint32(h, uint32(len(f.Payload)))
	if _, err := w.Write(h); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// headerBuf returns an empty slice with room for an n-byte header: the
// writer's own spare capacity when it offers some, else a fresh allocation.
func headerBuf(w io.Writer, n int) []byte {
	var h []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		h = ab.AvailableBuffer()
	}
	if cap(h) < n {
		h = make([]byte, 0, n)
	}
	return h
}

// ReadFrameReuse decodes one request from r into *f. When buf is non-nil the
// payload is read into *buf (grown as needed) and f.Payload aliases it, so a
// connection loop can reuse one buffer across frames instead of allocating
// per frame; the payload is only valid until the next ReadFrameReuse with the
// same buf. With a nil buf the payload is a fresh allocation the caller owns.
func ReadFrameReuse(r io.Reader, f *Frame, buf *[]byte) error {
	// Read the header through the reuse buffer: a local array would escape
	// through the io.ReadFull interface call and cost an allocation per
	// frame. The payload read below overwrites it — header fields are parsed
	// into f first.
	if buf == nil {
		buf = new([]byte)
	}
	h := grow(buf, reqHeaderLen)
	if _, err := io.ReadFull(r, h); err != nil {
		return err
	}
	if m := binary.LittleEndian.Uint16(h[0:]); m != Magic {
		return fmt.Errorf("wire: bad magic %#x", m)
	}
	plen := binary.LittleEndian.Uint32(h[20:])
	if plen > MaxPayload {
		return fmt.Errorf("wire: payload %d exceeds cap %d", plen, MaxPayload)
	}
	f.Op = h[2]
	f.Flags = h[3]
	f.ReqID = binary.LittleEndian.Uint64(h[4:])
	f.AckedTo = binary.LittleEndian.Uint64(h[12:])
	f.Payload = nil
	if plen > 0 {
		p := grow(buf, int(plen))
		if _, err := io.ReadFull(r, p); err != nil {
			return err
		}
		f.Payload = p
	}
	return nil
}

// grow resizes *buf to length n, reallocating only when capacity is short,
// and returns the sized slice.
func grow(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// WriteResponse serializes one response onto w. A nil appErr sends status 0
// with the result payload; otherwise status 1 with the error text. The
// header goes through headerBuf as WriteFrame's does, so a server writing
// through a bufio.Writer allocates nothing for it.
func WriteResponse(w io.Writer, payload []byte, appErr error) error {
	status := byte(0)
	if appErr != nil {
		status = 1
		payload = []byte(appErr.Error())
	}
	if err := writeResponseHeader(w, status, len(payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeResponseHeader writes the header of a response whose payload of plen
// bytes follows.
func writeResponseHeader(w io.Writer, status byte, plen int) error {
	if plen > MaxPayload {
		return fmt.Errorf("wire: response payload %d exceeds cap %d", plen, MaxPayload)
	}
	h := headerBuf(w, respHeaderLen)
	h = binary.LittleEndian.AppendUint16(h, Magic)
	h = append(h, status, 0)
	h = binary.LittleEndian.AppendUint32(h, uint32(plen))
	_, err := w.Write(h)
	return err
}

// ReadResponseReuse decodes one response from r. A status-1 frame returns
// (nil, *ServerError); transport failures return the IO error. When buf is
// non-nil the payload is read into *buf (grown as needed) and the returned
// slice aliases it — valid only until the next read into the same buf;
// callers that keep the payload must copy it out. With a nil buf the payload
// is a fresh allocation the caller owns.
func ReadResponseReuse(r io.Reader, buf *[]byte) ([]byte, error) {
	if buf == nil {
		buf = new([]byte)
	}
	plen, err := readResponseHeader(r, buf)
	if err != nil {
		return nil, err
	}
	payload := grow(buf, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// readResponseHeader reads one response header from r through *buf and
// returns the payload length, leaving the payload itself unread on r. A
// status-1 frame has its error text read and returned as a *ServerError.
func readResponseHeader(r io.Reader, buf *[]byte) (plen int, err error) {
	// Same header-through-buffer trick as ReadFrameReuse: a local array
	// escapes via the io.ReadFull interface call.
	h := grow(buf, respHeaderLen)
	if _, err := io.ReadFull(r, h); err != nil {
		return 0, err
	}
	if m := binary.LittleEndian.Uint16(h[0:]); m != Magic {
		return 0, fmt.Errorf("wire: bad magic %#x", m)
	}
	n := binary.LittleEndian.Uint32(h[4:])
	status := h[2]
	if n > MaxPayload {
		return 0, fmt.Errorf("wire: response payload %d exceeds cap %d", n, MaxPayload)
	}
	if status != 0 {
		msg := grow(buf, int(n))
		if _, err := io.ReadFull(r, msg); err != nil {
			return 0, err
		}
		return 0, &ServerError{Msg: string(msg)}
	}
	return int(n), nil
}
