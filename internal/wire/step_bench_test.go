package wire

import (
	"math/rand/v2"
	"testing"
	"time"
)

// BenchmarkFusedStep times one round of pushes into the gradient row and
// the LR step program through Server.handle, warm, in three shapes:
//
//   - serve: tcp-serve-mixed's, a 1 M-wide row, 10 pushes of 4096 uniform
//     columns between steps; the weight row has turned dense.
//   - dense: tcp-lr-dense's, a 4 M-wide row, one push of ~500 columns
//     drawn from a 20 617-column feature set, all of them already in the
//     weight row's support.
//   - sparse: tcp-lr-sparse's per server, a 25 k-wide row, one push of
//     ~1000 uniform columns; the weight row has turned dense.
//
// step-ns/op is the step alone, the rest of ns/op the pushes.
func BenchmarkFusedStep(b *testing.B) {
	for _, shape := range []struct {
		name                 string
		width, pushes, cols  int
		features, warmRounds int
	}{
		{"serve", 1000000, 10, 4096, 1000000, 3},
		{"dense", 4000000, 1, 500, 20617, 0},
		{"sparse", 25000, 1, 1000, 25000, 3},
	} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(3, 5))
			pool := make([]int, shape.features)
			for i := range pool {
				pool[i] = i * (shape.width / shape.features)
			}
			l := newLRRounds(b, shape.width)
			vals := make([]float64, shape.cols)
			for i := range vals {
				vals[i] = 1e-3 * float64(1+i%7)
			}
			if shape.features < shape.width {
				l.send(b, OpPushAdd, AppendPushAdd(nil, 1, rowWeight, pool, make([]float64, len(pool))))
			}
			pushes := make([][]byte, 64)
			for i := range pushes {
				cols := drawCols(rng, pool, shape.cols)
				pushes[i] = AppendPushAdd(nil, 1, rowGrad, cols, vals[:len(cols)])
			}
			round := func(i int) time.Duration {
				for j := range shape.pushes {
					l.send(b, OpPushAdd, pushes[(i*shape.pushes+j)%len(pushes)])
				}
				start := time.Now()
				l.send(b, OpFused, l.prog)
				return time.Since(start)
			}
			for i := range shape.warmRounds {
				round(i)
			}
			var step time.Duration
			b.ResetTimer()
			for i := range b.N {
				step += round(i)
			}
			b.ReportMetric(float64(step.Nanoseconds())/float64(b.N), "step-ns/op")
		})
	}
}
