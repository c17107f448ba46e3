package lr

import (
	"encoding/json"
	"fmt"
	"io"
)

// weightsFile is the on-disk JSON layout for a linear model: only nonzero
// weights are stored, so sparse models serialize compactly.
type weightsFile struct {
	Version int       `json:"version"`
	Dim     int       `json:"dim"`
	Indices []int     `json:"indices"`
	Values  []float64 `json:"values"`
}

// SaveWeights writes a pulled weight vector as sparse JSON.
func SaveWeights(w io.Writer, weights []float64) error {
	wf := weightsFile{Version: 1, Dim: len(weights)}
	for i, v := range weights {
		if v != 0 {
			wf.Indices = append(wf.Indices, i)
			wf.Values = append(wf.Values, v)
		}
	}
	return json.NewEncoder(w).Encode(wf)
}

// LoadWeights reads a weight vector written by SaveWeights.
func LoadWeights(r io.Reader) ([]float64, error) {
	var wf weightsFile
	if err := json.NewDecoder(r).Decode(&wf); err != nil {
		return nil, fmt.Errorf("lr: decode weights: %w", err)
	}
	if wf.Version != 1 {
		return nil, fmt.Errorf("lr: unsupported weights version %d", wf.Version)
	}
	if wf.Dim <= 0 || len(wf.Indices) != len(wf.Values) {
		return nil, fmt.Errorf("lr: corrupt weights file (dim=%d, %d indices, %d values)", wf.Dim, len(wf.Indices), len(wf.Values))
	}
	weights := make([]float64, wf.Dim)
	for k, i := range wf.Indices {
		if i < 0 || i >= wf.Dim {
			return nil, fmt.Errorf("lr: weight index %d out of range [0,%d)", i, wf.Dim)
		}
		weights[i] = wf.Values[k]
	}
	return weights, nil
}
