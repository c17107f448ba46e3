package wire

// Payload encodings for the PS operators, little-endian throughout. Each
// operator has an append-style encoder (Append*, writing into a caller
// buffer so steady-state encoding allocates nothing; a nil dst allocates)
// and a cursor-style decoder; decoders of variable-length payloads are *Into
// forms that reuse caller scratch (a pointer to a nil slice allocates).
// Decoders accumulate one sticky error so call sites check once at the end.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"repro/internal/linalg"
)

// enc is an append-only payload builder.
type enc struct{ b []byte }

// reserve makes room for the n bytes about to be appended. Encoders of
// variable-length payloads call it with the exact size first, so a cold dst
// is allocated once: append alone grows a large slice by about 1.25× a step,
// which costs a 32 MB payload some 25 reallocations and copies.
func (e *enc) reserve(n int) { e.b = slices.Grow(e.b, n) }

func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}
func (e *enc) byte(v byte) { e.b = append(e.b, v) }

// nativeLE reports whether this host keeps a float64 in memory as its
// little-endian wire encoding. Only then does a run of values move between
// a slice and a payload as one copy; elsewhere it moves one value at a time.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64s appends vals: on a little-endian host as one copy of their memory,
// elsewhere one value at a time.
func (e *enc) f64s(vals []float64) {
	if nativeLE {
		e.b = append(e.b, floatBytes(vals)...)
		return
	}
	for _, v := range vals {
		e.f64(v)
	}
}

// floatBytes is vals' memory as bytes, which on a little-endian host is
// their wire encoding.
func floatBytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// putFloats decodes the len(dst) little-endian values at the start of p
// into dst, as one copy on a little-endian host.
func putFloats(dst []float64, p []byte) {
	if nativeLE {
		copy(floatBytes(dst), p)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// dec is a cursor over a received payload with a sticky error.
type dec struct {
	b   []byte
	off int
	err error
}

var errShortPayload = errors.New("wire: truncated payload")

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = errShortPayload
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) u32() uint32 {
	if s := d.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (d *dec) u64() uint64 {
	if s := d.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (d *dec) f64() float64 {
	if s := d.take(8); s != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(s))
	}
	return 0
}

// f64s fills dst with the next len(dst) values.
func (d *dec) f64s(dst []float64) {
	if s := d.take(8 * len(dst)); s != nil {
		putFloats(dst, s)
	}
}

func (d *dec) byte() byte {
	if s := d.take(1); s != nil {
		return s[0]
	}
	return 0
}

// done checks the cursor consumed the payload exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %d trailing payload bytes", len(d.b)-d.off)
	}
	return nil
}

// vecLen reads an element count and checks the rest of the payload can hold
// that many elements of at least elemBytes each, so a corrupt length prefix
// cannot drive an allocation beyond the frame that carried it (itself capped
// at MaxPayload).
func (d *dec) vecLen(elemBytes int) int {
	n := int(d.u32())
	if d.err == nil && n > (len(d.b)-d.off)/elemBytes {
		d.err = fmt.Errorf("wire: vector length %d exceeds the %d payload bytes left", n, len(d.b)-d.off)
	}
	return n
}

// growInts resizes *s to length n reusing its capacity, like grow for []byte.
func growInts(s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
	}
	*s = (*s)[:n]
	return *s
}

// growFloats resizes *s to length n reusing its capacity. A new buffer can
// be a whole range pull's values (Client.PullRange), so it comes from
// linalg.Zeros.
func growFloats(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = linalg.Zeros(n)
	}
	*s = (*s)[:n]
	return *s
}

// --- CreateShard: mat, rows, [lo, hi) column range ---

// AppendCreateShard appends the CreateShard request payload to dst.
func AppendCreateShard(dst []byte, mat uint32, rows, lo, hi int) []byte {
	e := enc{b: dst}
	e.u32(mat)
	e.u32(uint32(rows))
	e.u32(uint32(lo))
	e.u32(uint32(hi))
	return e.b
}

func decodeCreateShard(p []byte) (mat uint32, rows, lo, hi int, err error) {
	d := dec{b: p}
	mat = d.u32()
	rows = int(d.u32())
	lo = int(d.u32())
	hi = int(d.u32())
	return mat, rows, lo, hi, d.done()
}

// --- PullSparse: request mat, row, cols; response vals (len = len(cols)) ---

// AppendPullSparseReq appends the PullSparse request payload to dst.
func AppendPullSparseReq(dst []byte, mat uint32, row int, cols []int) []byte {
	e := enc{b: dst}
	e.reserve(12 + 4*len(cols))
	e.u32(mat)
	e.u32(uint32(row))
	e.u32(uint32(len(cols)))
	for _, c := range cols {
		e.u32(uint32(c))
	}
	return e.b
}

// DecodePullSparseReqInto decodes a PullSparse request, reading the column
// list into *colsBuf (grown as needed). The returned cols aliases *colsBuf.
func DecodePullSparseReqInto(p []byte, colsBuf *[]int) (mat uint32, row int, cols []int, err error) {
	d := dec{b: p}
	mat = d.u32()
	row = int(d.u32())
	n := d.vecLen(4)
	if d.err == nil {
		cols = growInts(colsBuf, n)
		for i := range cols {
			cols[i] = int(d.u32())
		}
	}
	return mat, row, cols, d.done()
}

// AppendVals appends a values-vector payload to dst.
func AppendVals(dst []byte, vals []float64) []byte {
	e := enc{b: dst}
	e.reserve(4 + 8*len(vals))
	e.u32(uint32(len(vals)))
	e.f64s(vals)
	return e.b
}

// DecodeValsInto decodes a values-vector payload into *valsBuf (grown as
// needed). The returned slice aliases *valsBuf.
func DecodeValsInto(p []byte, valsBuf *[]float64) ([]float64, error) {
	d := dec{b: p}
	n := d.vecLen(8)
	var vals []float64
	if d.err == nil {
		vals = growFloats(valsBuf, n)
		d.f64s(vals)
	}
	return vals, d.done()
}

// --- PushAdd: mat, row, cols, vals; empty response ---

// AppendPushAdd appends the PushAdd request payload to dst.
func AppendPushAdd(dst []byte, mat uint32, row int, cols []int, vals []float64) []byte {
	e := enc{b: dst}
	e.reserve(12 + 4*len(cols) + 8*len(vals))
	e.u32(mat)
	e.u32(uint32(row))
	e.u32(uint32(len(cols)))
	for _, c := range cols {
		e.u32(uint32(c))
	}
	e.f64s(vals)
	return e.b
}

// DecodePushAddInto decodes a PushAdd request reusing the caller's column
// and value scratch. The returned slices alias the scratch.
func DecodePushAddInto(p []byte, colsBuf *[]int, valsBuf *[]float64) (mat uint32, row int, cols []int, vals []float64, err error) {
	d := dec{b: p}
	mat = d.u32()
	row = int(d.u32())
	n := d.vecLen(12)
	if d.err == nil {
		cols = growInts(colsBuf, n)
		for i := range cols {
			cols[i] = int(d.u32())
		}
		vals = growFloats(valsBuf, n)
		d.f64s(vals)
	}
	return mat, row, cols, vals, d.done()
}

// --- Fused: mat + op program; empty response ---

// Fused op kinds.
const (
	FAxpy  byte = 1 // Rows[Dst] += Scale * Rows[Src]
	FZero  byte = 2 // Rows[Row] = 0
	FScale byte = 3 // Rows[Row] *= Scale
)

// FusedOp is one step of a fused server-side program, executed in order and
// atomically with respect to dedup: a retried program re-applies exactly
// once (the whole request carries one reqID).
type FusedOp struct {
	Kind     byte
	Dst, Src int     // FAxpy
	Row      int     // FZero, FScale
	Scale    float64 // FAxpy, FScale
}

// AppendFused appends the Fused request payload to dst.
func AppendFused(dst []byte, mat uint32, ops []FusedOp) []byte {
	e := enc{b: dst}
	e.u32(mat)
	e.u32(uint32(len(ops)))
	for _, op := range ops {
		e.byte(op.Kind)
		switch op.Kind {
		case FAxpy:
			e.u32(uint32(op.Dst))
			e.u32(uint32(op.Src))
			e.f64(op.Scale)
		case FZero:
			e.u32(uint32(op.Row))
		case FScale:
			e.u32(uint32(op.Row))
			e.f64(op.Scale)
		}
	}
	return e.b
}

// DecodeFusedInto decodes a Fused request program into *opsBuf (reused,
// grown as needed). The returned ops alias the scratch.
func DecodeFusedInto(p []byte, opsBuf *[]FusedOp) (mat uint32, ops []FusedOp, err error) {
	d := dec{b: p}
	mat = d.u32()
	n := d.vecLen(5)
	ops = (*opsBuf)[:0]
	for i := 0; i < n && d.err == nil; i++ {
		var op FusedOp
		op.Kind = d.byte()
		switch op.Kind {
		case FAxpy:
			op.Dst = int(d.u32())
			op.Src = int(d.u32())
			op.Scale = d.f64()
		case FZero:
			op.Row = int(d.u32())
		case FScale:
			op.Row = int(d.u32())
			op.Scale = d.f64()
		default:
			d.err = fmt.Errorf("wire: unknown fused op kind %d", op.Kind)
		}
		ops = append(ops, op)
	}
	*opsBuf = ops
	return mat, ops, d.done()
}

// --- PullRange: request mat, row; response lo, then the row's values ---
//
// A range response has one of two layouts, told apart by the sparseRange
// bit of its second word:
//
//	dense:  u32 lo, u32 n,               n × f64            (8 + 8n bytes)
//	sparse: u32 lo, u32 n | sparseRange, u32 k, k × (u32 c, f64 v)
//	                                                        (12 + 12k bytes)
//
// n is the row's width. The sparse layout lists k local columns in strictly
// ascending order with their values; every other column holds +0.

// AppendPullRangeReq appends the PullRange request payload to dst.
func AppendPullRangeReq(dst []byte, mat uint32, row int) []byte {
	e := enc{b: dst}
	e.u32(mat)
	e.u32(uint32(row))
	return e.b
}

func decodePullRangeReq(p []byte) (mat uint32, row int, err error) {
	d := dec{b: p}
	mat = d.u32()
	row = int(d.u32())
	return mat, row, d.done()
}

// sparseRange marks a range response's second word as the width of a row
// sent in the sparse layout. No row is that wide (maxRowWidth < 2³¹).
const sparseRange = 1 << 31

// appendRangePrefix appends a dense PullRange response payload's first 8
// bytes, the range's first column and its value count, to dst. The values
// follow as 8 little-endian bytes each; the server writes them from the row
// itself (writeRangeResp), so no encoder builds the whole payload.
func appendRangePrefix(dst []byte, lo, n int) []byte {
	e := enc{b: dst}
	e.u32(uint32(lo))
	e.u32(uint32(n))
	return e.b
}

// appendSparseRange appends a whole PullRange response payload in the
// sparse layout to dst: a width-wide row's members, keys column<<32 | i in
// column order, each with its value vals[i].
func appendSparseRange(dst []byte, lo, width int, keys []uint64, vals []float64) []byte {
	e := enc{b: dst}
	e.reserve(12 + 12*len(keys))
	e.u32(uint32(lo))
	e.u32(uint32(width) | sparseRange)
	e.u32(uint32(len(keys)))
	for _, k := range keys {
		e.u32(uint32(k >> 32))
		e.f64(vals[uint32(k)])
	}
	return e.b
}

// rangePiece is how many payload bytes writeRangeResp and readPullRangeResp
// hold at a time on a big-endian host, and readPullRangeResp holds of a
// sparse response's pairs on any host.
const rangePiece = 64 << 10

// writeRangeResp writes a whole dense PullRange response to w: the header,
// the payload's 8-byte prefix and vals. On a little-endian host vals leave
// as one block of their own memory; elsewhere they are encoded through
// piece, a scratch buffer grown to at most rangePiece bytes. Either way the
// response is never copied whole.
func writeRangeResp(w io.Writer, prefix []byte, vals []float64, piece *[]byte) error {
	if err := writeResponseHeader(w, 0, len(prefix)+8*len(vals)); err != nil {
		return err
	}
	if _, err := w.Write(prefix); err != nil {
		return err
	}
	if nativeLE {
		_, err := w.Write(floatBytes(vals))
		return err
	}
	for rest := vals; len(rest) > 0; {
		k := min(len(rest), rangePiece/8)
		e := enc{b: (*piece)[:0]}
		e.reserve(8 * k)
		e.f64s(rest[:k])
		*piece = e.b
		if _, err := w.Write(e.b); err != nil {
			return err
		}
		rest = rest[k:]
	}
	return nil
}

// readPullRangeResp reads a PullRange response payload of plen bytes from r,
// in either layout, decoding it into *valsBuf (grown as needed). The payload
// must account for plen exactly before any value is read. Dense values are
// read straight into their memory on a little-endian host; elsewhere, and a
// sparse response's pairs everywhere, go through piece, a scratch buffer
// grown to at most rangePiece bytes. Either way a range response, which runs
// to tens of megabytes, is never held whole beside its values. Read errors
// come back as r returned them; on any error an unknown part of the payload
// is left unread. The returned vals alias *valsBuf.
func readPullRangeResp(r io.Reader, plen int, piece *[]byte, valsBuf *[]float64) (lo int, vals []float64, err error) {
	if plen < 8 {
		return 0, nil, errShortPayload
	}
	h := grow(piece, 8)
	if _, err := io.ReadFull(r, h); err != nil {
		return 0, nil, err
	}
	lo = int(binary.LittleEndian.Uint32(h))
	n := int(binary.LittleEndian.Uint32(h[4:]))
	if n&sparseRange != 0 {
		vals, err = readSparseRange(r, plen, n&^sparseRange, piece, valsBuf)
		return lo, vals, err
	}
	if plen != 8+8*n {
		return 0, nil, fmt.Errorf("wire: range response of %d bytes claims %d values", plen, n)
	}
	vals = growFloats(valsBuf, n)
	if nativeLE {
		if _, err := io.ReadFull(r, floatBytes(vals)); err != nil {
			return 0, nil, err
		}
		return lo, vals, nil
	}
	for rest := vals; len(rest) > 0; {
		k := min(len(rest), rangePiece/8)
		p := grow(piece, 8*k)
		if _, err := io.ReadFull(r, p); err != nil {
			return 0, nil, err
		}
		putFloats(rest[:k], p)
		rest = rest[k:]
	}
	return lo, vals, nil
}

// readSparseRange reads the rest of a sparse range response of plen bytes,
// after its first 8, for a row n wide: the member count, then the pairs a
// piece at a time, each scattered into place. The row's other columns are
// +0: a buffer growFloats has just allocated is already, a reused one is
// cleared.
func readSparseRange(r io.Reader, plen, n int, piece *[]byte, valsBuf *[]float64) ([]float64, error) {
	k, err := readSparseCount(r, plen, n, piece)
	if err != nil {
		return nil, err
	}
	fresh := cap(*valsBuf) < n
	vals := growFloats(valsBuf, n)
	if !fresh {
		clear(vals)
	}
	return vals, eachSparsePair(r, k, n, piece, func(c int, v float64) { vals[c] = v })
}

// readSparseCount reads a sparse range response's member count, after its
// first 8 bytes, and checks it against the payload's plen bytes and the
// row's width n.
func readSparseCount(r io.Reader, plen, n int, piece *[]byte) (int, error) {
	if plen < 12 {
		return 0, errShortPayload
	}
	h := grow(piece, 4)
	if _, err := io.ReadFull(r, h); err != nil {
		return 0, err
	}
	k := int(binary.LittleEndian.Uint32(h))
	if n > maxRowWidth || k > n || plen != 12+12*k {
		return 0, fmt.Errorf("wire: sparse range response of %d bytes claims %d of %d columns", plen, k, n)
	}
	return k, nil
}

// eachSparsePair reads a sparse range response's k pairs, a piece at a
// time, and calls fn with each column and value. The columns must be
// strictly ascending and below the row's width n.
func eachSparsePair(r io.Reader, k, n int, piece *[]byte, fn func(c int, v float64)) error {
	next := 0 // the lowest column the next pair may name
	for rest := k; rest > 0; {
		m := min(rest, rangePiece/12)
		d := dec{b: grow(piece, 12*m)}
		if _, err := io.ReadFull(r, d.b); err != nil {
			return err
		}
		for range m {
			c := int(d.u32())
			if c < next || c >= n {
				return fmt.Errorf("wire: sparse range response names column %d out of order or past the row's %d columns", c, n)
			}
			fn(c, d.f64())
			next = c + 1
		}
		rest -= m
	}
	return nil
}

// RangeNonzero is a range pull's answer kept as the row's nonzero columns
// only, so that it takes memory for what the row holds, not for its width.
type RangeNonzero struct {
	Lo, Width int       // the server's stretch of the row: first column, width
	Cols      []int     // the nonzero columns, as offsets from Lo, ascending
	Vals      []float64 // their values
}

// readPullRangeNonzero reads a PullRange response payload of plen bytes
// from r, in either layout, into dst, keeping only the nonzero values. Both
// layouts pass through piece, at most rangePiece bytes at a time, so nothing
// the row's width is allocated. Errors are as readPullRangeResp's.
func readPullRangeNonzero(r io.Reader, plen int, piece *[]byte, dst *RangeNonzero) error {
	if plen < 8 {
		return errShortPayload
	}
	h := grow(piece, 8)
	if _, err := io.ReadFull(r, h); err != nil {
		return err
	}
	lo := int(binary.LittleEndian.Uint32(h))
	n := int(binary.LittleEndian.Uint32(h[4:]))
	dst.Cols, dst.Vals = dst.Cols[:0], dst.Vals[:0]
	keep := func(c int, v float64) {
		if v != 0 {
			dst.Cols = append(dst.Cols, c)
			dst.Vals = append(dst.Vals, v)
		}
	}
	if n&sparseRange != 0 {
		n &^= sparseRange
		k, err := readSparseCount(r, plen, n, piece)
		if err != nil {
			return err
		}
		if err := eachSparsePair(r, k, n, piece, keep); err != nil {
			return err
		}
	} else {
		if plen != 8+8*n {
			return fmt.Errorf("wire: range response of %d bytes claims %d values", plen, n)
		}
		for c := 0; c < n; {
			m := min(n-c, rangePiece/8)
			d := dec{b: grow(piece, 8*m)}
			if _, err := io.ReadFull(r, d.b); err != nil {
				return err
			}
			for range m {
				keep(c, d.f64())
				c++
			}
		}
	}
	dst.Lo, dst.Width = lo, n
	return nil
}

// --- Stats: empty request; response is the server's counters ---

func encodeStatsResp(s ServerStats) []byte {
	var e enc
	e.u64(s.Requests)
	e.u64(s.DedupHits)
	e.u64(s.BytesIn)
	e.u64(s.BytesOut)
	return e.b
}

func decodeStatsResp(p []byte) (ServerStats, error) {
	d := dec{b: p}
	s := ServerStats{
		Requests:  d.u64(),
		DedupHits: d.u64(),
		BytesIn:   d.u64(),
		BytesOut:  d.u64(),
	}
	return s, d.done()
}
