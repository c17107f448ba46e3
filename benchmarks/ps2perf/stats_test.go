package main

import "testing"

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5},          // too few for any tail
		{39, 0.5},         // p75 would have 9 beyond it
		{40, 0.75},        // exactly ten beyond p75
		{100, 0.9},        // ten beyond p90
		{999, 0.95},       // p99 would have 9 beyond it
		{1000, 0.99},      // exactly ten beyond p99
		{75000, 0.999},    // 75 beyond p99.9, 7 beyond p99.99
		{100000, 0.9999},  // exactly ten beyond p99.99
		{1000000, 0.9999}, // the highest candidate
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailOfNeverAboveP99(t *testing.T) {
	if got := tailOf(75000); got != 0.99 {
		t.Errorf("tailOf(75000) = %v, want 0.99", got)
	}
	if got := tailOf(500); got != 0.95 {
		t.Errorf("tailOf(500) = %v, want 0.95", got)
	}
}

func TestQuantileIsAMeasuredValue(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := quantile(asc, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}
