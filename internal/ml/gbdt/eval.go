package gbdt

import (
	"math"

	"repro/internal/linalg"
)

// FeatureImportance returns each feature's total split gain across the
// ensemble, normalized to sum to 1 (XGBoost's "gain" importance).
func (m *Model) FeatureImportance() []float64 {
	imp := make([]float64, m.Features)
	var total float64
	for _, tree := range m.Trees {
		for _, node := range tree.Nodes {
			if node.Split != nil && node.Split.Gain > 0 {
				imp[node.Split.Feature] += node.Split.Gain
				total += node.Split.Gain
			}
		}
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// Evaluate computes logloss and accuracy of the ensemble on a dataset.
func (m *Model) Evaluate(X [][]float64, Y []float64) (logloss, accuracy float64) {
	if len(X) == 0 {
		return math.NaN(), math.NaN()
	}
	correct := 0
	for i, x := range X {
		z := m.PredictRaw(x)
		logloss += linalg.LogLoss(z, Y[i])
		pred := 0.0
		if z > 0 {
			pred = 1
		}
		if pred == Y[i] {
			correct++
		}
	}
	return logloss / float64(len(X)), float64(correct) / float64(len(X))
}
