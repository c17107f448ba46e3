package lr

import (
	"math"

	"repro/internal/linalg"
)

// SGD is plain mini-batch gradient descent with 1/sqrt(t) step decay:
// w -= lr/sqrt(t)/|B| * g, no auxiliary state.
type SGD struct {
	LearningRate float64
}

// NewSGD returns SGD with the paper's learning rate.
func NewSGD() *SGD { return &SGD{LearningRate: DefaultConfig().LearningRate} }

func (s *SGD) Name() string { return "SGD" }

func (s *SGD) AuxVectors() int { return 0 }

// Update returns the axpy w += scale·g over the rows (weight, gradient).
func (s *SGD) Update(iter, batchSize int) func(lo int, rows [][]float64) {
	scale := -(s.LearningRate / math.Sqrt(float64(iter))) / float64(batchSize)
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
}

// NewAdam returns Adam with the paper's Table 4 hyperparameters.
func NewAdam() *Adam {
	return &Adam{LearningRate: DefaultConfig().LearningRate, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

func (a *Adam) Name() string { return "Adam" }

func (a *Adam) AuxVectors() int { return 2 }

// Update returns the Adam update kernel over the rows (weight, velocity,
// square, gradient).
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

// Adagrad keeps a per-dimension accumulated squared gradient (paper Section
// 5.2.4 lists it among the implemented optimizers).
type Adagrad struct {
	LearningRate float64
	Epsilon      float64
}

// NewAdagrad returns Adagrad with a standard learning rate.
func NewAdagrad() *Adagrad { return &Adagrad{LearningRate: 0.618, Epsilon: 1e-8} }

func (a *Adagrad) Name() string { return "Adagrad" }

func (a *Adagrad) AuxVectors() int { return 1 }

// Update returns the Adagrad kernel over the rows (weight, accumulator,
// gradient).
func (a *Adagrad) Update(_, batchSize int) func(lo int, rows [][]float64) {
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

// RMSProp keeps an exponentially decaying squared-gradient average.
type RMSProp struct {
	LearningRate float64
	Rho          float64
	Epsilon      float64
}

// NewRMSProp returns RMSProp with standard parameters.
func NewRMSProp() *RMSProp { return &RMSProp{LearningRate: 0.1, Rho: 0.9, Epsilon: 1e-8} }

func (r *RMSProp) Name() string { return "RMSProp" }

func (r *RMSProp) AuxVectors() int { return 1 }

// Update returns the RMSProp kernel over the rows (weight, mean square,
// gradient).
func (r *RMSProp) Update(_, batchSize int) func(lo int, rows [][]float64) {
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
