package linalg

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xorshift128+). Every stochastic component of the
// reproduction draws from an explicitly seeded RNG so simulations are
// bit-identical across runs; math/rand's global state is never used.
type RNG struct {
	s0, s1 uint64
	zipf   zipfConsts
}

// zipfConsts are the terms of Zipf's inverse CDF that depend on (n, s) only,
// kept for the last pair drawn from: a generator draws thousands of indices
// over one dimension, and the terms cost a Log or a Pow each. n ≥ 2 when
// set, so the zero value matches no draw.
type zipfConsts struct {
	n       int
	s       float64
	logN    float64 // Log(n), for s == 1
	span    float64 // Pow(n, 1−s) − 1, for s ≠ 1
	invExpo float64 // 1 / (1−s), for s ≠ 1
}

// NewRNG creates a generator from a seed. Distinct seeds give independent
// streams for practical purposes.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to expand the seed into two nonzero words.
	z := seed
	next := func() uint64 {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("linalg: RNG.Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Zipf returns an integer in [0, n) drawn from an approximate Zipf
// distribution with exponent s, used to generate skewed feature indices:
// real CTR/recommendation datasets have a few very hot dimensions and a long
// tail, which is exactly what makes sparse pull effective.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF approximation for the continuous analogue. The memoized
	// terms are the same expressions, so every draw is bit for bit what
	// computing them afresh gives.
	z := &r.zipf
	if z.n != n || z.s != s {
		*z = zipfConsts{n: n, s: s}
		if s == 1 {
			z.logN = math.Log(float64(n))
		} else {
			z.span = math.Pow(float64(n), 1-s) - 1
			z.invExpo = 1 / (1 - s)
		}
	}
	u := r.Float64()
	if s == 1 {
		return int(math.Min(float64(n)-1, math.Exp(u*z.logN)-1))
	}
	x := math.Pow(u*z.span+1, z.invExpo) - 1
	i := int(x)
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}
