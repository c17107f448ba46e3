package linalg

import "fmt"

// AliasSampler draws from an arbitrary discrete distribution in O(1) per
// sample using Vose's alias method. DeepWalk-style training uses it for
// unigram^0.75 negative sampling (word2vec's noise distribution), and it is
// generally the right tool whenever a skewed categorical must be sampled
// millions of times.
type AliasSampler struct {
	prob  []float64
	alias []int32
}

// NewAliasSampler builds a sampler over weights (non-negative, not all
// zero).
func NewAliasSampler(weights []float64) (*AliasSampler, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("linalg: alias sampler needs at least one weight")
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("linalg: negative weight %v at %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("linalg: all weights zero")
	}
	s := &AliasSampler{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[l] = scaled[l]
		s.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, g := range large {
		s.prob[g] = 1
	}
	for _, l := range small {
		s.prob[l] = 1
	}
	return s, nil
}

// Sample draws one index.
func (s *AliasSampler) Sample(rng *RNG) int {
	i := rng.Intn(len(s.prob))
	if rng.Float64() < s.prob[i] {
		return i
	}
	return int(s.alias[i])
}
