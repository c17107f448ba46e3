package linalg

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xorshift128+). Every stochastic component of the
// reproduction draws from an explicitly seeded RNG so simulations are
// bit-identical across runs; math/rand's global state is never used.
type RNG struct {
	s0, s1 uint64
	zipf   Zipf // the last (n, s) Zipf drew from
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
		return Normal(u1, r.Float64())
	}
}

// Normal is the Box–Muller transform NormFloat64 applies to its two
// uniforms: NormFloat64 returns Normal(u1, u2) for its draws u1 (redrawn
// while zero) and u2, in that order.
func Normal(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Zipf returns an integer in [0, n) drawn from an approximate Zipf
// distribution with exponent s, used to generate skewed feature indices:
// real CTR/recommendation datasets have a few very hot dimensions and a long
// tail, which is exactly what makes sparse pull effective. It draws one
// Float64 u and returns NewZipf(n, s).At(u); for n <= 1 it draws nothing.
func (r *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// The distribution's terms cost a Log or a Pow each; a generator draws
	// thousands of indices over one dimension, so they are kept for the last
	// (n, s).
	if r.zipf.n != n || r.zipf.s != s {
		r.zipf = NewZipf(n, s)
	}
	return r.zipf.At(r.Float64())
}

// Zipf is the inverse CDF behind RNG.Zipf for one (n, s), a pure function
// of the uniform: a generator can draw its uniforms in order and map them
// to indices anywhere, on any number of goroutines, bit for bit.
type Zipf struct {
	n       int
	s       float64
	logN    float64 // Log(n), for s == 1
	span    float64 // Pow(n, 1−s) − 1, for s ≠ 1
	invExpo float64 // 1 / (1−s), for s ≠ 1
}

// NewZipf returns the inverse CDF of Zipf(n, s).
func NewZipf(n int, s float64) Zipf {
	z := Zipf{n: n, s: s}
	if n <= 1 {
		return z
	}
	if s == 1 {
		z.logN = math.Log(float64(n))
	} else {
		z.span = math.Pow(float64(n), 1-s) - 1
		z.invExpo = 1 / (1 - s)
	}
	return z
}

// At returns the index in [0, n) that the uniform u ∈ [0, 1) maps to: the
// inverse-CDF approximation for the continuous analogue.
func (z *Zipf) At(u float64) int {
	if z.n <= 1 {
		return 0
	}
	if z.s == 1 {
		return int(math.Min(float64(z.n)-1, math.Exp(u*z.logN)-1))
	}
	x := math.Pow(u*z.span+1, z.invExpo) - 1
	i := int(x)
	if i < 0 {
		i = 0
	}
	if i >= z.n {
		i = z.n - 1
	}
	return i
}
