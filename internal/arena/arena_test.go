package arena

import "testing"

func TestBytesLengthAndReuse(t *testing.T) {
	b := Bytes(100)
	if len(b) != 100 {
		t.Fatalf("Bytes(100) len = %d", len(b))
	}
	for i := range b {
		b[i] = byte(i)
	}
	PutBytes(b)
	c := Bytes(50)
	if len(c) != 50 {
		t.Fatalf("Bytes(50) len = %d", len(c))
	}
}

func TestFloatsZeroed(t *testing.T) {
	f := Floats(64)
	for i := range f {
		f[i] = float64(i) + 1
	}
	PutFloats(f)
	g := Floats(64)
	if len(g) != 64 {
		t.Fatalf("Floats(64) len = %d", len(g))
	}
	for i, v := range g {
		if v != 0 {
			t.Fatalf("recycled float buffer not zeroed at %d: %v", i, v)
		}
	}
}

func TestPutNilIsSafe(t *testing.T) {
	PutBytes(nil)
	PutFloats(nil)
}

func TestOversizedBuffersDropped(t *testing.T) {
	// Must not panic; a huge buffer is simply not retained.
	PutBytes(make([]byte, ReuseCap+1))
	PutFloats(make([]float64, ReuseCap/8+1))
}
