package linalg

import "unsafe"

// hugeMin is the size, in bytes, from which Zeros asks the
// kernel to back a buffer with huge pages. A shard row this wide is faulted
// in page by page as its scattered columns are first touched, and on a VM a
// 4 KiB fault costs microseconds; one 2 MiB fault replaces 512 of them.
// Narrower buffers (the simulator's 5 k-wide rows, every RPC's scratch) are
// plain make.
const hugeMin = 4 << 20

// adviseHuge asks the kernel to back b with huge pages. It does nothing
// unless the platform's file sets it (alloc_linux.go); the advice changes no
// value, only how the pages are backed.
var adviseHuge = func([]byte) {}

// Zeros returns make([]float64, n). The allocation for wide dense memory —
// shard rows, a range pull's values, a full weight vector — goes through it
// so that a buffer of at least 4 MiB is also advised for huge pages where
// the platform has them.
func Zeros(n int) []float64 {
	s := make([]float64, n)
	if 8*n >= hugeMin {
		adviseHuge(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*n))
	}
	return s
}
