package linalg

import (
	"math"
	"testing"
)

// TestZipfIsZipfAtFloat64: RNG.Zipf(n, s) is NewZipf(n, s).At applied to
// the RNG's next Float64, at s == 1 and s != 1, and draws nothing when
// n <= 1; switching between two distributions on one RNG changes nothing.
func TestZipfIsZipfAtFloat64(t *testing.T) {
	dists := []struct {
		n int
		s float64
	}{{1, 1}, {1, 1.2}, {2, 1}, {1000, 1}, {4000000, 1}, {2, 0.2}, {50000, 1.1}, {100000, 1.3}, {7, 3}}
	r, ref := NewRNG(42), NewRNG(42)
	for round := range 2000 {
		for k, d := range dists {
			if (round+k)%3 == 0 {
				continue // vary which distribution the RNG drew from last
			}
			z := NewZipf(d.n, d.s)
			want := 0
			if d.n > 1 {
				want = z.At(ref.Float64())
			}
			if got := r.Zipf(d.n, d.s); got != want {
				t.Fatalf("round %d: Zipf(%d, %v) = %d, At(Float64()) = %d", round, d.n, d.s, got, want)
			}
		}
	}
	if a, b := r.Uint64(), ref.Uint64(); a != b {
		t.Errorf("the RNGs diverged: %#x vs %#x", a, b)
	}
}

// TestNormFloat64IsNormal: NormFloat64 is Normal of its two uniforms.
func TestNormFloat64IsNormal(t *testing.T) {
	r, ref := NewRNG(7), NewRNG(7)
	for i := range 10000 {
		u1 := ref.Float64()
		for u1 == 0 {
			u1 = ref.Float64()
		}
		want := Normal(u1, ref.Float64())
		if got := r.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: NormFloat64 %v, Normal %v", i, got, want)
		}
	}
}
