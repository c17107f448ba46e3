package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice as the
// order statistic at rank ceil(q·n), the "nearest rank" definition: the value
// is always one that was measured.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// median returns the middle value of xs (mean of the two middle values for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75}

// highestPercentile returns the highest of tailPercentiles that still has at
// least ten samples beyond it among n samples, or 0.5 when none has: a tail
// estimated from fewer than ten samples is one outlier, not a percentile.
func highestPercentile(n int) float64 {
	for _, q := range tailPercentiles {
		// The small slack keeps q·n from rounding up when it is whole.
		if beyond := n - int(math.Ceil(q*float64(n)-1e-9)); beyond >= 10 {
			return q
		}
	}
	return 0.5
}
