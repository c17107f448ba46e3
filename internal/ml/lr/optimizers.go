package lr

import (
	"math"

	"repro/internal/core"
	"repro/internal/dcv"
	"repro/internal/linalg"
	"repro/internal/simnet"
)

// SGD is plain mini-batch gradient descent: w -= lr/|B| * g, one server-side
// axpy, no auxiliary state.
type SGD struct {
	LearningRate float64
	// Decay applies 1/sqrt(t) step decay when true (helps noisy objectives).
	Decay bool
}

// NewSGD returns SGD with the paper's learning rate.
func NewSGD() *SGD { return &SGD{LearningRate: DefaultConfig().LearningRate, Decay: true} }

func (s *SGD) Name() string { return "SGD" }

func (s *SGD) AuxVectors() int { return 0 }

func (s *SGD) Init(*simnet.Proc, *core.Engine, *dcv.Vector) error { return nil }

// scale is the step's coefficient on the summed batch gradient.
func (s *SGD) scale(iter, batchSize int) float64 {
	eta := s.LearningRate
	if s.Decay {
		eta /= math.Sqrt(float64(iter))
	}
	return -eta / float64(batchSize)
}

func (s *SGD) Step(p *simnet.Proc, e *core.Engine, w, grad *dcv.Vector, iter, batchSize int) error {
	return w.Axpy(p, e.Driver(), s.scale(iter, batchSize), grad)
}

// RecordStep records the same axpy into a fused batch.
func (s *SGD) RecordStep(e *core.Engine, b *dcv.Batch, w, grad *dcv.Vector, iter, batchSize int) {
	b.Axpy(w, s.scale(iter, batchSize), grad)
}

// Update returns the same axpy as a kernel over the rows (weight,
// gradient): Spark-SGD's step on the driver's model.
func (s *SGD) Update(iter, batchSize int) func(lo int, rows [][]float64) {
	scale := s.scale(iter, batchSize)
	return func(_ int, rows [][]float64) { linalg.Axpy(scale, rows[1], rows[0]) }
}

// Adam implements the paper's Section 3.1 Example 1: the model is four
// co-located DCVs (weight, first-moment, second-moment, gradient) and the
// update is one server-side zip over them — Figure 3's
// weight.zip(velocity, square, gradient).mapPartition{updateModel}.
type Adam struct {
	LearningRate float64
	Beta1        float64
	Beta2        float64
	Epsilon      float64

	velocity *dcv.Vector
	square   *dcv.Vector
}

// NewAdam returns Adam with the paper's Table 4 hyperparameters.
func NewAdam() *Adam {
	return &Adam{LearningRate: DefaultConfig().LearningRate, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

func (a *Adam) Name() string { return "Adam" }

func (a *Adam) AuxVectors() int { return 2 }

func (a *Adam) Init(p *simnet.Proc, e *core.Engine, w *dcv.Vector) error {
	return zeroed(p, e, w, &a.velocity, &a.square)
}

// Moments returns the velocity and square DCVs Init derived.
func (a *Adam) Moments() (velocity, square *dcv.Vector) { return a.velocity, a.square }

// Update returns the Adam update kernel over the rows (weight, velocity,
// square, gradient). Step and RecordStep run it on the servers, PS-Adam on
// pulled copies and Spark-Adam on the driver's model.
func (a *Adam) Update(iter, batchSize int) func(lo int, rows [][]float64) {
	t := float64(iter)
	scale := 1.0 / float64(batchSize)
	corr1 := 1 - math.Pow(a.Beta1, t)
	corr2 := 1 - math.Pow(a.Beta2, t)
	eta, b1, b2, eps := a.LearningRate, a.Beta1, a.Beta2, a.Epsilon
	return func(lo int, rows [][]float64) {
		wt, v, s, g := rows[0], rows[1], rows[2], rows[3]
		for i := range wt {
			gi := g[i] * scale
			s[i] = b1*s[i] + (1-b1)*gi*gi
			v[i] = b2*v[i] + (1-b2)*gi
			sHat := s[i] / corr1
			vHat := v[i] / corr2
			wt[i] -= eta * vHat / (math.Sqrt(sHat) + eps)
		}
	}
}

func (a *Adam) Step(p *simnet.Proc, e *core.Engine, w, grad *dcv.Vector, iter, batchSize int) error {
	return w.ZipMap(p, e.Driver(), e.Cluster.Cost.FlopsPerElem*3,
		a.Update(iter, batchSize), a.velocity, a.square, grad)
}

// RecordStep records the same 4-vector zip into a fused batch.
func (a *Adam) RecordStep(e *core.Engine, b *dcv.Batch, w, grad *dcv.Vector, iter, batchSize int) {
	b.ZipMap(w, e.Cluster.Cost.FlopsPerElem*3, a.Update(iter, batchSize), a.velocity, a.square, grad)
}

// Adagrad keeps a per-dimension accumulated squared gradient (paper Section
// 5.2.4 lists it among the implemented optimizers).
type Adagrad struct {
	LearningRate float64
	Epsilon      float64

	accum *dcv.Vector
}

// NewAdagrad returns Adagrad with a standard learning rate.
func NewAdagrad() *Adagrad { return &Adagrad{LearningRate: 0.618, Epsilon: 1e-8} }

func (a *Adagrad) Name() string { return "Adagrad" }

func (a *Adagrad) AuxVectors() int { return 1 }

func (a *Adagrad) Init(p *simnet.Proc, e *core.Engine, w *dcv.Vector) error {
	return zeroed(p, e, w, &a.accum)
}

func (a *Adagrad) update(batchSize int) func(lo int, rows [][]float64) {
	scale := 1.0 / float64(batchSize)
	eta, eps := a.LearningRate, a.Epsilon
	return func(lo int, rows [][]float64) {
		wt, acc, g := rows[0], rows[1], rows[2]
		for i := range wt {
			gi := g[i] * scale
			acc[i] += gi * gi
			wt[i] -= eta * gi / (math.Sqrt(acc[i]) + eps)
		}
	}
}

func (a *Adagrad) Step(p *simnet.Proc, e *core.Engine, w, grad *dcv.Vector, iter, batchSize int) error {
	return w.ZipMap(p, e.Driver(), e.Cluster.Cost.FlopsPerElem*2, a.update(batchSize), a.accum, grad)
}

// RecordStep records the same zip into a fused batch.
func (a *Adagrad) RecordStep(e *core.Engine, b *dcv.Batch, w, grad *dcv.Vector, iter, batchSize int) {
	b.ZipMap(w, e.Cluster.Cost.FlopsPerElem*2, a.update(batchSize), a.accum, grad)
}

// RMSProp keeps an exponentially decaying squared-gradient average.
type RMSProp struct {
	LearningRate float64
	Rho          float64
	Epsilon      float64

	mean *dcv.Vector
}

// NewRMSProp returns RMSProp with standard parameters.
func NewRMSProp() *RMSProp { return &RMSProp{LearningRate: 0.1, Rho: 0.9, Epsilon: 1e-8} }

func (r *RMSProp) Name() string { return "RMSProp" }

func (r *RMSProp) AuxVectors() int { return 1 }

func (r *RMSProp) Init(p *simnet.Proc, e *core.Engine, w *dcv.Vector) error {
	return zeroed(p, e, w, &r.mean)
}

func (r *RMSProp) update(batchSize int) func(lo int, rows [][]float64) {
	scale := 1.0 / float64(batchSize)
	eta, rho, eps := r.LearningRate, r.Rho, r.Epsilon
	return func(lo int, rows [][]float64) {
		wt, m, g := rows[0], rows[1], rows[2]
		for i := range wt {
			gi := g[i] * scale
			m[i] = rho*m[i] + (1-rho)*gi*gi
			wt[i] -= eta * gi / (math.Sqrt(m[i]) + eps)
		}
	}
}

func (r *RMSProp) Step(p *simnet.Proc, e *core.Engine, w, grad *dcv.Vector, iter, batchSize int) error {
	return w.ZipMap(p, e.Driver(), e.Cluster.Cost.FlopsPerElem*2, r.update(batchSize), r.mean, grad)
}

// RecordStep records the same zip into a fused batch.
func (r *RMSProp) RecordStep(e *core.Engine, b *dcv.Batch, w, grad *dcv.Vector, iter, batchSize int) {
	b.ZipMap(w, e.Cluster.Cost.FlopsPerElem*2, r.update(batchSize), r.mean, grad)
}

// zeroed derives each auxiliary vector co-located with w and fills it with
// zeros, one after the other: every optimizer's Init.
func zeroed(p *simnet.Proc, e *core.Engine, w *dcv.Vector, aux ...**dcv.Vector) error {
	for _, v := range aux {
		var err error
		if *v, err = w.Derive(); err != nil {
			return err
		}
		if err := (*v).Fill(p, e.Driver(), 0); err != nil {
			return err
		}
	}
	return nil
}

var (
	_ FusedOptimizer = (*SGD)(nil)
	_ FusedOptimizer = (*Adam)(nil)
	_ FusedOptimizer = (*Adagrad)(nil)
	_ FusedOptimizer = (*RMSProp)(nil)
)
