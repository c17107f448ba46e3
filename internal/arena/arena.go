// Package arena provides sync.Pool-backed scratch buffers for the RPC hot
// path: payload []byte on the wire encode/decode side and []float64 on the
// pull-assembly side. The steady state of a training loop allocates the
// same transient buffers millions of times; the arena recycles them so the
// data path stops feeding the garbage collector.
//
// Ownership rules (documented in ARCHITECTURE §14):
//
//   - Get hands the caller exclusive ownership; the buffer is valid until
//     the matching Put.
//   - Put transfers ownership back; the caller must not touch the buffer
//     afterwards (the next Get may hand it to another goroutine).
//   - Never Put a buffer that something else still references — e.g. a
//     response payload cached for dedup replay must be copied out first.
//   - Put is always optional. A buffer that escapes into a long-lived
//     structure is simply not returned; the pool refills on demand.
//
// Float buffers are returned zeroed (the common consumers assemble sparse
// results into them and rely on zero initialization, exactly like make).
// Byte buffers are returned with the requested length and arbitrary
// contents, like an io.Reader scratch.
package arena

import "sync"

// ReuseCap bounds the capacity, in bytes, that the pools retain. Buffers
// beyond it are dropped on Put so one giant request cannot pin memory
// forever; per-connection scratch outside the pools follows the same rule.
const ReuseCap = 1 << 22 // 4 MiB of bytes, 32 MiB of float64s

// slicePool is a sync.Pool of slices. A slice travels through the pool in a
// *[]T box; the emptied boxes are pooled too, so a Put after a Get allocates
// nothing, where boxing the slice afresh would cost an allocation each time.
type slicePool[T any] struct {
	bufs    sync.Pool // boxes holding a buffer
	boxes   sync.Pool // empty boxes
	initCap int       // capacity of a buffer the pool makes
}

func (p *slicePool[T]) get() []T {
	box, _ := p.bufs.Get().(*[]T)
	if box == nil {
		return make([]T, 0, p.initCap)
	}
	s := *box
	*box = nil
	p.boxes.Put(box)
	return s
}

func (p *slicePool[T]) put(s []T) {
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	p.bufs.Put(box)
}

var (
	bytePool  = slicePool[byte]{initCap: 1024}
	floatPool = slicePool[float64]{initCap: 256}
)

// Bytes returns a []byte of length n with arbitrary contents.
func Bytes(n int) []byte {
	b := bytePool.get()
	if cap(b) < n {
		b = make([]byte, n)
	}
	return b[:n]
}

// PutBytes returns a buffer obtained from Bytes (or any buffer the caller
// owns) to the pool. nil is ignored.
func PutBytes(b []byte) {
	if b == nil || cap(b) > ReuseCap {
		return
	}
	bytePool.put(b)
}

// Floats returns a zeroed []float64 of length n.
func Floats(n int) []float64 {
	s := floatPool.get()
	if cap(s) < n {
		s = make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// PutFloats returns a buffer obtained from Floats to the pool. nil is
// ignored.
func PutFloats(s []float64) {
	if s == nil || cap(s) > ReuseCap/8 {
		return
	}
	floatPool.put(s)
}
