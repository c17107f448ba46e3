package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Op: OpPing},
		{Op: OpPushAdd, Flags: FlagMutates, ReqID: 42, AckedTo: 17, Payload: []byte("hello")},
		{Op: OpFused, Flags: FlagMutates, ReqID: 1 << 60, AckedTo: 1<<60 - 1, Payload: make([]byte, 4096)},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		var got Frame
		if err := ReadFrameReuse(&buf, &got, nil); err != nil {
			t.Fatal(err)
		}
		if got.Op != f.Op || got.Flags != f.Flags || got.ReqID != f.ReqID || got.AckedTo != f.AckedTo {
			t.Fatalf("header mismatch: %+v vs %+v", got, f)
		}
		if !bytes.Equal(got.Payload, f.Payload) {
			t.Fatal("payload mismatch")
		}
	}
}

func TestFrameRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[0] ^= 0xFF
	if err := ReadFrameReuse(bytes.NewReader(b), new(Frame), nil); err == nil {
		t.Fatal("corrupted magic accepted")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, []byte{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponseReuse(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("payload = %v", got)
	}

	buf.Reset()
	if err := WriteResponse(&buf, nil, errors.New("boom")); err != nil {
		t.Fatal(err)
	}
	_, err = ReadResponseReuse(&buf, nil)
	var sErr *ServerError
	if !errors.As(err, &sErr) || sErr.Msg != "boom" {
		t.Fatalf("err = %v, want ServerError(boom)", err)
	}
}

func TestPayloadCodecs(t *testing.T) {
	{
		mat, rows, lo, hi, err := decodeCreateShard(AppendCreateShard(nil, 3, 2, 100, 250))
		if err != nil || mat != 3 || rows != 2 || lo != 100 || hi != 250 {
			t.Fatalf("create shard: %v %v %v %v %v", mat, rows, lo, hi, err)
		}
	}
	{
		cols := []int{1, 5, 9}
		mat, row, gotCols, err := DecodePullSparseReqInto(AppendPullSparseReq(nil, 7, 1, cols), new([]int))
		if err != nil || mat != 7 || row != 1 || !reflect.DeepEqual(gotCols, cols) {
			t.Fatalf("pull sparse req: %v %v %v %v", mat, row, gotCols, err)
		}
	}
	{
		vals := []float64{1.5, -2.25, math.Pi}
		got, err := DecodeValsInto(AppendVals(nil, vals), new([]float64))
		if err != nil || !reflect.DeepEqual(got, vals) {
			t.Fatalf("vals: %v %v", got, err)
		}
	}
	{
		cols, vals := []int{2, 4}, []float64{0.5, -0.5}
		mat, row, gc, gv, err := DecodePushAddInto(AppendPushAdd(nil, 1, 1, cols, vals), new([]int), new([]float64))
		if err != nil || mat != 1 || row != 1 || !reflect.DeepEqual(gc, cols) || !reflect.DeepEqual(gv, vals) {
			t.Fatalf("push add: %v %v %v %v %v", mat, row, gc, gv, err)
		}
	}
	{
		ops := []FusedOp{
			{Kind: FAxpy, Dst: 0, Src: 1, Scale: -0.01},
			{Kind: FZero, Row: 1},
			{Kind: FScale, Row: 0, Scale: 0.99},
		}
		mat, got, err := DecodeFusedInto(AppendFused(nil, 9, ops), new([]FusedOp))
		if err != nil || mat != 9 || !reflect.DeepEqual(got, ops) {
			t.Fatalf("fused: %v %v %v", mat, got, err)
		}
	}
	{
		p := appendPullRangeResp(nil, 40, []float64{1, 2})
		lo, vals, err := readPullRangeResp(bytes.NewReader(p), len(p), new([]byte), new([]float64))
		if err != nil || lo != 40 || !reflect.DeepEqual(vals, []float64{1, 2}) {
			t.Fatalf("pull range resp: %v %v %v", lo, vals, err)
		}
	}
	{
		in := ServerStats{Requests: 10, DedupHits: 2, BytesIn: 300, BytesOut: 400}
		got, err := decodeStatsResp(encodeStatsResp(in))
		if err != nil || got != in {
			t.Fatalf("stats: %+v %v", got, err)
		}
	}
}

// oddFloats are values whose bits a float path could disturb: NaNs with
// payloads (quiet, signalling, negative), −0, ±Inf, subnormals and the
// extremes.
var oddFloats = []uint64{
	0x7ff8000000000000, 0x7ff8dead0000beef, 0x7ff0000000000001, 0xfff4000000000abc,
	0x8000000000000000, 0x0000000000000000, 0x7ff0000000000000, 0xfff0000000000000,
	0x0000000000000001, 0x800fffffffffffff, 0x0008000000000000, 0x7fefffffffffffff,
	0x0010000000000000, 0x3ff0000000000000, 0xbfd5555555555555,
}

// TestFloatBlocksMatchPerElement: the float sections of AppendVals,
// AppendPushAdd and appendPullRangeResp are byte for byte the per-element
// little-endian encoding, and DecodeValsInto, DecodePushAddInto and
// readPullRangeResp give back every value's bits, at every length up to the
// odd values' count and from a payload at an odd address.
func TestFloatBlocksMatchPerElement(t *testing.T) {
	for n := 0; n <= len(oddFloats); n++ {
		vals := make([]float64, n)
		cols := make([]int, n)
		var want []byte // the values, one little-endian word each
		for i, b := range oddFloats[:n] {
			vals[i] = math.Float64frombits(b)
			cols[i] = 3 * i
			want = binary.LittleEndian.AppendUint64(want, b)
		}
		sameBits := func(what string, got []float64) {
			t.Helper()
			if len(got) != n {
				t.Fatalf("%s, %d values: decoded %d", what, n, len(got))
			}
			for i, v := range got {
				if math.Float64bits(v) != oddFloats[i] {
					t.Fatalf("%s, %d values: value %d decodes to %#016x, was %#016x", what, n, i, math.Float64bits(v), oddFloats[i])
				}
			}
		}
		// misalign copies p behind one byte, so the decoders read it from an
		// odd address.
		misalign := func(p []byte) []byte { return append([]byte{0xff}, p...)[1:] }

		p := AppendVals([]byte{0xee}, vals)[1:]
		if !bytes.Equal(p[4:], want) {
			t.Fatalf("AppendVals, %d values: % x, want % x", n, p[4:], want)
		}
		got, err := DecodeValsInto(misalign(p), new([]float64))
		if err != nil {
			t.Fatal(err)
		}
		sameBits("DecodeValsInto", got)

		p = AppendPushAdd(nil, 1, 0, cols, vals)
		if !bytes.Equal(p[12+4*n:], want) {
			t.Fatalf("AppendPushAdd, %d values: % x, want % x", n, p[12+4*n:], want)
		}
		_, _, _, got, err = DecodePushAddInto(misalign(p), new([]int), new([]float64))
		if err != nil {
			t.Fatal(err)
		}
		sameBits("DecodePushAddInto", got)

		p = appendPullRangeResp(nil, 7, vals)
		if !bytes.Equal(p[8:], want) {
			t.Fatalf("appendPullRangeResp, %d values: % x, want % x", n, p[8:], want)
		}
		_, got, err = readPullRangeResp(bytes.NewReader(misalign(p)), len(p), new([]byte), new([]float64))
		if err != nil {
			t.Fatal(err)
		}
		sameBits("readPullRangeResp", got)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	full := AppendPushAdd(nil, 1, 0, []int{1, 2, 3}, []float64{1, 2, 3})
	for n := 0; n < len(full); n++ {
		if _, _, _, _, err := DecodePushAddInto(full[:n], new([]int), new([]float64)); err == nil {
			t.Fatalf("truncated payload of %d bytes accepted", n)
		}
	}
	// Trailing garbage must be rejected too — a length-confused encoder
	// would otherwise silently round-trip.
	if _, _, _, _, err := DecodePushAddInto(append(append([]byte{}, full...), 0), new([]int), new([]float64)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecoderRejectsHugeVector(t *testing.T) {
	var e enc
	e.u32(1)          // mat
	e.u32(0)          // row
	e.u32(0xFFFFFFFF) // claimed column count far beyond the frame cap
	if _, _, _, err := DecodePullSparseReqInto(e.b, new([]int)); err == nil {
		t.Fatal("absurd length prefix accepted")
	}
}
