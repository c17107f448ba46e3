package lr

import (
	"math"

	"repro/internal/core"
	"repro/internal/dcv"
	"repro/internal/simnet"
)

// FTRL implements FTRL-Proximal (McMahan et al., KDD'13), the de-facto
// optimizer for CTR models like the paper's motivating Tencent workloads: it
// keeps per-dimension accumulated gradients (z) and squared gradients (n) and
// produces genuinely sparse models through L1 regularization. On PS2 the
// three extra vectors are derived DCVs and the whole update is one
// server-side zip — another instance of "element-wise operations on
// multi-vector ML models".
type FTRL struct {
	Alpha   float64 // per-dimension learning-rate scale
	Beta    float64
	Lambda1 float64 // L1: drives exact zeros
	Lambda2 float64 // L2

	z *dcv.Vector
	n *dcv.Vector
}

// NewFTRL returns FTRL with standard CTR-tuned defaults.
func NewFTRL() *FTRL {
	return &FTRL{Alpha: 0.1, Beta: 1.0, Lambda1: 0.5, Lambda2: 1.0}
}

func (f *FTRL) Name() string { return "FTRL" }

func (f *FTRL) AuxVectors() int { return 2 }

func (f *FTRL) Init(p *simnet.Proc, e *core.Engine, w *dcv.Vector) error {
	return zeroed(p, e, w, &f.z, &f.n)
}

// Step applies the FTRL-Proximal update server-side. Using the mean batch
// gradient as g_t:
//
//	sigma = (sqrt(n + g²) − sqrt(n)) / alpha
//	z    += g − sigma·w
//	n    += g²
//	w     = 0                                     if |z| <= lambda1
//	w     = −(z − sign(z)·lambda1) / ((beta+sqrt(n))/alpha + lambda2)  otherwise
func (f *FTRL) update(batchSize int) func(lo int, rows [][]float64) {
	scale := 1.0 / float64(batchSize)
	alpha, beta, l1, l2 := f.Alpha, f.Beta, f.Lambda1, f.Lambda2
	return func(lo int, rows [][]float64) {
		wt, z, n, g := rows[0], rows[1], rows[2], rows[3]
		for i := range wt {
			gi := g[i] * scale
			sigma := (math.Sqrt(n[i]+gi*gi) - math.Sqrt(n[i])) / alpha
			z[i] += gi - sigma*wt[i]
			n[i] += gi * gi
			if math.Abs(z[i]) <= l1 {
				wt[i] = 0
				continue
			}
			sign := 1.0
			if z[i] < 0 {
				sign = -1
			}
			wt[i] = -(z[i] - sign*l1) / ((beta+math.Sqrt(n[i]))/alpha + l2)
		}
	}
}

func (f *FTRL) Step(p *simnet.Proc, e *core.Engine, w, grad *dcv.Vector, iter, batchSize int) error {
	return w.ZipMap(p, e.Driver(), e.Cluster.Cost.FlopsPerElem*4, f.update(batchSize), f.z, f.n, grad)
}

// RecordStep records the same 4-vector zip into a fused batch.
func (f *FTRL) RecordStep(e *core.Engine, b *dcv.Batch, w, grad *dcv.Vector, iter, batchSize int) {
	b.ZipMap(w, e.Cluster.Cost.FlopsPerElem*4, f.update(batchSize), f.z, f.n, grad)
}

var (
	_ Optimizer      = (*FTRL)(nil)
	_ FusedOptimizer = (*FTRL)(nil)
)
