package wire

// Native fuzz targets for the decoders that read attacker-shaped bytes off a
// socket. Each target checks three properties on arbitrary input: no panic,
// no scratch buffer grown past what the input (capped at MaxPayload) can
// hold, and a successful decode re-encodes to exactly the bytes it consumed.
// The seed corpus — valid encodings plus truncated and over-long variants —
// runs under plain `go test`; `go test -fuzz FuzzX ./internal/wire` explores.
// FuzzFusedProgram fuzzes the server's fused executor instead: its input is
// a schedule of requests, checked against a dense reference.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// seedVariants adds a valid encoding and its malformed neighbours: every
// strict prefix, a trailing byte, and (when lenOff >= 0) the u32 length
// prefix at lenOff inflated to claim far more elements than the bytes hold.
func seedVariants(f *testing.F, valid []byte, lenOff int) {
	f.Add(valid)
	for n := 0; n < len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Add(append(append([]byte{}, valid...), 0))
	if lenOff >= 0 {
		for _, claim := range []uint32{uint32(len(valid)), MaxPayload / 8, math.MaxUint32} {
			long := append([]byte{}, valid...)
			binary.LittleEndian.PutUint32(long[lenOff:], claim)
			f.Add(long)
		}
	}
}

func FuzzReadFrameReuse(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrame(&valid, Frame{Op: OpPushAdd, Flags: FlagMutates, ReqID: 42, AckedTo: 17,
		Payload: AppendPushAdd(nil, 1, 0, []int{3, 9}, []float64{0.5, -2})}); err != nil {
		f.Fatal(err)
	}
	seedVariants(f, valid.Bytes(), 20) // plen sits at header offset 20
	f.Add(valid.Bytes()[:reqHeaderLen-4])
	buf := []byte("stale scratch from the previous frame")
	f.Fuzz(func(t *testing.T, in []byte) {
		var fr Frame
		err := ReadFrameReuse(bytes.NewReader(in), &fr, &buf)
		if cap(buf) > MaxPayload {
			t.Fatalf("scratch grew to %d bytes, past the %d cap", cap(buf), MaxPayload)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, fr); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if n := reqHeaderLen + len(fr.Payload); !bytes.Equal(out.Bytes(), in[:n]) {
			t.Fatalf("re-encoded frame differs from the %d bytes consumed", n)
		}
	})
}

func FuzzReadResponseReuse(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteResponse(&valid, AppendVals(nil, []float64{1.5, -2.25}), nil); err != nil {
		f.Fatal(err)
	}
	seedVariants(f, valid.Bytes(), 4) // plen sits at header offset 4
	failed := append([]byte{}, valid.Bytes()...)
	failed[2] = 1 // status: application error
	f.Add(failed)
	buf := []byte("stale scratch from the previous response")
	f.Fuzz(func(t *testing.T, in []byte) {
		payload, err := ReadResponseReuse(bytes.NewReader(in), &buf)
		if cap(buf) > MaxPayload {
			t.Fatalf("scratch grew to %d bytes, past the %d cap", cap(buf), MaxPayload)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteResponse(&out, payload, nil); err != nil {
			t.Fatalf("decoded response does not re-encode: %v", err)
		}
		want := append([]byte{}, in[:respHeaderLen+len(payload)]...)
		want[3] = 0 // the pad byte is not carried
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatal("re-encoded response differs from the bytes consumed")
		}
	})
}

// FuzzPullRangeResponse feeds raw response bytes through what the client
// runs on a range pull: the header read, then the piecewise decode of
// either layout with the header's buffer as the piece scratch. Beyond the
// common properties, the decode must leave unread exactly the bytes after
// the frame, and must not hold more than one piece or the text of an error
// in its scratch. A sparse frame's row may be wider than its bytes, but no
// wider than a shard can be; it re-encodes from the decoded row and the
// columns the frame listed, so a pair the decoder let through out of order
// or twice cannot re-encode to the same bytes.
func FuzzPullRangeResponse(f *testing.F) {
	frame := func(payload []byte) []byte {
		var b bytes.Buffer
		if err := WriteResponse(&b, payload, nil); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	valid := frame(appendPullRangeResp(nil, 40, []float64{1.5, -2.25, math.Inf(1)}))
	seedVariants(f, valid, 4) // plen sits at header offset 4
	for _, claim := range []uint32{4, MaxPayload / 8, math.MaxUint32} {
		inflated := append([]byte{}, valid...)
		binary.LittleEndian.PutUint32(inflated[respHeaderLen+4:], claim) // the value count
		f.Add(inflated)
	}
	failed := append([]byte{}, valid...)
	failed[2] = 1 // status: application error
	f.Add(failed)
	// A row wider than one piece, whole and cut inside its second piece.
	wide := make([]float64, rangePiece/8+100)
	for i := range wide {
		wide[i] = float64(i) - 0.5
	}
	long := frame(appendPullRangeResp(nil, 0, wide))
	f.Add(long)
	f.Add(long[:len(long)-8])

	// The sparse layout: a valid frame and its neighbours, then pairs the
	// decoder must refuse.
	negZero := math.Copysign(0, -1)
	seedVariants(f, frame(sparseRangePayload(40, 10, []int{1, 4, 9}, []float64{1.5, negZero, math.Inf(1)})), 4)
	for _, bad := range [][]byte{
		sparseRangePayload(0, 2, []int{0, 1, 1}, []float64{1, 2, 3}),  // k > n
		sparseRangePayload(0, 10, []int{2, 10}, []float64{1, 2}),      // a column ≥ n
		sparseRangePayload(0, 10, []int{5, 3}, []float64{1, 2}),       // descending
		sparseRangePayload(0, 10, []int{2, 3, 3}, []float64{1, 2, 3}), // duplicated
	} {
		f.Add(frame(bad))
	}
	// More pairs than one piece holds, whole and cut inside the second piece.
	cols := make([]int, rangePiece/12+100)
	for i := range cols {
		cols[i] = 2*i + 1
	}
	longSparse := frame(sparseRangePayload(0, 2*len(cols), cols, wide[:len(cols)]))
	f.Add(longSparse)
	f.Add(longSparse[:len(longSparse)-8])

	buf := []byte("stale scratch from the previous response")
	vals := make([]float64, staleScratch)
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		plen, err := readResponseHeader(r, &buf)
		if cap(buf) > MaxPayload {
			t.Fatalf("scratch grew to %d bytes, past the %d cap", cap(buf), MaxPayload)
		}
		if err != nil {
			return
		}
		sparse := plen >= 8 && len(in) >= respHeaderLen+8 &&
			binary.LittleEndian.Uint32(in[respHeaderLen+4:])&sparseRange != 0
		nb, nv := cap(buf), cap(vals)
		lo, got, err := readPullRangeResp(r, plen, &buf, &vals)
		if cap(buf) > max(nb, rangePiece) {
			t.Fatalf("the decode grew its scratch from %d to %d bytes, past one piece", nb, cap(buf))
		}
		if !sparse {
			grewWithin(t, "value", nv, cap(vals), len(in), 8)
		} else if cap(vals) > max(nv, maxRowWidth) {
			t.Fatalf("value scratch grew from %d to %d elements, past the widest shard row", nv, cap(vals))
		}
		if err != nil {
			return
		}
		if consumed := len(in) - r.Len(); consumed != respHeaderLen+plen {
			t.Fatalf("decode consumed %d bytes of a %d-byte frame", consumed, respHeaderLen+plen)
		}
		var payload []byte
		if sparse {
			k := (plen - 12) / 12
			keys := make([]uint64, k)
			for i := range k {
				keys[i] = uint64(binary.LittleEndian.Uint32(in[respHeaderLen+12+12*i:])) << 32
			}
			slices.Sort(keys)
			keys = slices.Compact(keys)
			for i, c := range keys {
				keys[i] = c | c>>32
			}
			payload = appendSparseRange(nil, lo, len(got), keys, got)
		} else {
			payload = appendPullRangeResp(nil, lo, got)
		}
		var out bytes.Buffer
		if err := WriteResponse(&out, payload, nil); err != nil {
			t.Fatalf("decoded response does not re-encode: %v", err)
		}
		want := append([]byte{}, in[:respHeaderLen+plen]...)
		want[3] = 0 // the pad byte is not carried
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatal("re-encoded response differs from the bytes consumed")
		}
	})
}

// sparseRangePayload is a sparse-layout PullRange response payload for an
// n-wide row, listing cols in the order given, with vals: encoded pair by
// pair, so it can also be one the decoder must refuse.
func sparseRangePayload(lo, n int, cols []int, vals []float64) []byte {
	var e enc
	e.u32(uint32(lo))
	e.u32(uint32(n) | sparseRange)
	e.u32(uint32(len(cols)))
	for i, c := range cols {
		e.u32(uint32(c))
		e.f64(vals[i])
	}
	return e.b
}

// grewWithin fails the test when a decode grew its scratch (from before to
// after elements) to more than a payload of the given size could have
// carried at elemBytes each.
func grewWithin(t *testing.T, what string, before, after, payloadLen, elemBytes int) {
	t.Helper()
	if after > before && after > payloadLen/elemBytes {
		t.Fatalf("%s scratch grew from %d to %d elements for a %d-byte payload", what, before, after, payloadLen)
	}
}

// staleScratch is the size of the dirty scratch each target starts from, so
// decoders are fuzzed on the reuse path, not only on fresh buffers.
const staleScratch = 4

func FuzzDecodePushAddInto(f *testing.F) {
	seedVariants(f, AppendPushAdd(nil, 5, 11, []int{3, 9, 27}, []float64{0.1, -2.5, math.Pi}), 8)
	seedVariants(f, AppendPushAdd(nil, 0, 0, nil, nil), 8)
	cols, vals := make([]int, staleScratch), make([]float64, staleScratch)
	f.Fuzz(func(t *testing.T, in []byte) {
		nc, nv := cap(cols), cap(vals)
		mat, row, c, v, err := DecodePushAddInto(in, &cols, &vals)
		grewWithin(t, "column", nc, cap(cols), len(in), 4)
		grewWithin(t, "value", nv, cap(vals), len(in), 8)
		if err != nil {
			return
		}
		if out := AppendPushAdd(nil, mat, row, c, v); !bytes.Equal(out, in) {
			t.Fatalf("re-encoded %x, decoded from %x", out, in)
		}
	})
}

func FuzzDecodePullSparseReqInto(f *testing.F) {
	seedVariants(f, AppendPullSparseReq(nil, 7, 1, []int{1, 5, 9}), 8)
	cols := make([]int, staleScratch)
	f.Fuzz(func(t *testing.T, in []byte) {
		nc := cap(cols)
		mat, row, c, err := DecodePullSparseReqInto(in, &cols)
		grewWithin(t, "column", nc, cap(cols), len(in), 4)
		if err != nil {
			return
		}
		if out := AppendPullSparseReq(nil, mat, row, c); !bytes.Equal(out, in) {
			t.Fatalf("re-encoded %x, decoded from %x", out, in)
		}
	})
}

func FuzzDecodeValsInto(f *testing.F) {
	seedVariants(f, AppendVals(nil, []float64{1.5, -2.25, math.Inf(1), math.NaN()}), 0)
	vals := make([]float64, staleScratch)
	f.Fuzz(func(t *testing.T, in []byte) {
		nv := cap(vals)
		v, err := DecodeValsInto(in, &vals)
		grewWithin(t, "value", nv, cap(vals), len(in), 8)
		if err != nil {
			return
		}
		if out := AppendVals(nil, v); !bytes.Equal(out, in) {
			t.Fatalf("re-encoded %x, decoded from %x", out, in)
		}
	})
}

func FuzzDecodeFusedInto(f *testing.F) {
	seedVariants(f, AppendFused(nil, 9, []FusedOp{
		{Kind: FAxpy, Dst: 0, Src: 1, Scale: -0.01},
		{Kind: FZero, Row: 1},
		{Kind: FScale, Row: 0, Scale: 0.99},
	}), 4)
	unknown := AppendFused(nil, 9, []FusedOp{{Kind: FZero, Row: 1}})
	unknown[8] = 0xEE // op kind
	f.Add(unknown)
	ops := make([]FusedOp, staleScratch)
	f.Fuzz(func(t *testing.T, in []byte) {
		mat, o, err := DecodeFusedInto(in, &ops)
		// Appended, so capacity is the runtime's policy; bound the count.
		grewWithin(t, "op", 0, len(ops), len(in), 5)
		if err != nil {
			return
		}
		if out := AppendFused(nil, mat, o); !bytes.Equal(out, in) {
			t.Fatalf("re-encoded %x, decoded from %x", out, in)
		}
	})
}

// FuzzFusedProgram decodes the input into a schedule of PushAdd and Fused
// requests (one byte per choice, see schedShape.nextStep), applies each
// through Server.handle and compares every row with the dense reference
// after every request.
func FuzzFusedProgram(f *testing.F) {
	f.Add([]byte{})
	// Push -3 into row 0, scale row 0 by +0 (the column now holds -0), then
	// add +1 × the empty row 1 into it: the dense kernel turns that -0 into +0.
	f.Add([]byte{0, 0, 0, 10, 7, 1, 1, 4, 0, 1, 0, 0, 0, 1, 1, 2})
	// Push into row 0, then scale it by -1: every untouched column becomes -0.
	f.Add([]byte{0, 0, 0, 10, 7, 1, 0, 4, 0, 0, 5})
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 24; i++ {
		in := make([]byte, 64+rng.IntN(512))
		for j := range in {
			in[j] = byte(rng.Uint32())
		}
		f.Add(in)
	}
	shape := schedShape{rows: 3, lo: 5, width: 160}
	f.Fuzz(func(t *testing.T, in []byte) {
		s := NewServer()
		var sc connScratch
		create := Frame{Op: OpCreateShard, Payload: AppendCreateShard(nil, 1, shape.rows, shape.lo, shape.lo+shape.width)}
		if _, err := s.handle(create, &sc); err != nil {
			t.Fatal(err)
		}
		ref := newDenseRef(shape)
		p := &bytesPicker{b: in}
		for i := 0; !p.done(); i++ {
			st := shape.nextStep(p)
			if _, err := s.handle(st.frame(1), &sc); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			ref.apply(st)
			for r := range s.mats[1].NumRows() {
				ref.checkRow(t, fmt.Sprintf("step %d", i), r, values(s.mats[1], r))
			}
		}
	})
}
