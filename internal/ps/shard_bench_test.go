package ps

import (
	"runtime/debug"
	"testing"
)

// BenchmarkWideRowFirstTouch times what a fresh server's first iterations
// of a wide dense model pay: a new 4 M-wide shard row's dense view touched
// at 70 k scattered columns. Nearly every 4 KiB page of the 32 MB row is touched,
// so the cost is the row's page faults, which linalg.Zeros lets the kernel
// take in 2 MiB pages. The heap is handed back to the OS before each
// iteration, so every iteration faults its row in afresh.
func BenchmarkWideRowFirstTouch(b *testing.B) {
	const width, touches = 4000000, 70000
	cols := make([]int, touches)
	for k := range cols {
		cols[k] = int((uint64(k)*2654435761 + 97) % width)
	}
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		debug.FreeOSMemory()
		b.StartTimer()
		row := NewShard(1, ColView{Lo: 0, Hi: width}).Dense(0)
		for _, c := range cols {
			row[c]++
		}
	}
}
