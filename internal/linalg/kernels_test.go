package linalg

import (
	"math"
	"testing"

	"repro/internal/par"
)

// kernelVec builds a vector with values spread across many magnitudes so any
// change in summation order would actually change the float64 result.
func kernelVec(n int, seed float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)+seed) * math.Pow(10, float64(i%13)-6)
	}
	return x
}

// TestReductionsSerialParallelBitwise pins the determinism contract at the
// linalg layer: forcing the parallel path must not change a single bit of
// Dot, Sum, SumSquares, or Norm2.
func TestReductionsSerialParallelBitwise(t *testing.T) {
	old := par.MinParallel
	defer func() { par.MinParallel = old }()
	for _, n := range []int{1, 3, par.ChunkSize - 1, par.ChunkSize + 1, 5*par.ChunkSize + 7, old + 123} {
		a := kernelVec(n, 0.1)
		b := kernelVec(n, 7.7)

		par.MinParallel = old + n + 1 // force serial
		sDot, sSum, sSq, sN2 := Dot(a, b), Sum(a), SumSquares(a), Norm2(a)
		par.MinParallel = 1 // force parallel
		pDot, pSum, pSq, pN2 := Dot(a, b), Sum(a), SumSquares(a), Norm2(a)

		for _, c := range []struct {
			name string
			s, p float64
		}{{"Dot", sDot, pDot}, {"Sum", sSum, pSum}, {"SumSquares", sSq, pSq}, {"Norm2", sN2, pN2}} {
			if math.Float64bits(c.s) != math.Float64bits(c.p) {
				t.Fatalf("n=%d %s: serial %x != parallel %x", n, c.name, math.Float64bits(c.s), math.Float64bits(c.p))
			}
		}
	}
}

// TestElementwiseSerialParallelEqual: the element-wise kernels are exact per
// element, so serial and parallel runs must agree everywhere.
func TestElementwiseSerialParallelEqual(t *testing.T) {
	old := par.MinParallel
	defer func() { par.MinParallel = old }()
	n := 3*par.ChunkSize + 11
	src := kernelVec(n, 2.2)
	base := kernelVec(n, 4.4)

	type op struct {
		name string
		run  func(dst []float64)
	}
	ops := []op{
		{"Axpy", func(d []float64) { Axpy(0.37, src, d) }},
		{"Scale", func(d []float64) { Scale(-1.25, d) }},
		{"Fill", func(d []float64) { Fill(d, 3.5) }},
		{"Add", func(d []float64) { Add(d, src) }},
		{"Sub", func(d []float64) { Sub(d, src) }},
		{"Mul", func(d []float64) { Mul(d, src) }},
		{"Div", func(d []float64) { Div(d, src) }},
	}
	for _, o := range ops {
		serial := append([]float64(nil), base...)
		par.MinParallel = n + 1
		o.run(serial)
		parallel := append([]float64(nil), base...)
		par.MinParallel = 1
		o.run(parallel)
		par.MinParallel = old
		for i := range serial {
			if math.Float64bits(serial[i]) != math.Float64bits(parallel[i]) {
				t.Fatalf("%s: element %d: serial %v != parallel %v", o.name, i, serial[i], parallel[i])
			}
		}
	}
}

// TestElementwiseSemantics pins down what each kernel computes on a small
// hand-checked input.
func TestElementwiseSemantics(t *testing.T) {
	dst := []float64{1, 2, 3, 4, 5}
	src := []float64{10, 20, 30, 40, 50}

	d := append([]float64(nil), dst...)
	Add(d, src)
	want := []float64{11, 22, 33, 44, 55}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Add[%d] = %v, want %v", i, d[i], want[i])
		}
	}

	d = append([]float64(nil), dst...)
	Sub(d, src)
	want = []float64{-9, -18, -27, -36, -45}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Sub[%d] = %v, want %v", i, d[i], want[i])
		}
	}

	d = append([]float64(nil), dst...)
	Mul(d, src)
	want = []float64{10, 40, 90, 160, 250}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Mul[%d] = %v, want %v", i, d[i], want[i])
		}
	}

	d = []float64{10, 20, 30, 40, 1}
	Div(d, []float64{2, 4, 5, 8, 0})
	want = []float64{5, 5, 6, 5, math.Inf(1)}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Div[%d] = %v, want %v", i, d[i], want[i])
		}
	}

	for _, k := range []func([]float64, []float64){Add, Sub, Mul, Div} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("elementwise kernel did not panic on length mismatch")
				}
			}()
			k(make([]float64, 3), make([]float64, 4))
		}()
	}
}

// TestKernelsZeroAlloc is the zero-alloc contract for the serial hot path:
// at sizes below par.MinParallel the kernels must not allocate at all.
func TestKernelsZeroAlloc(t *testing.T) {
	const n = 4096
	if n >= par.MinParallel {
		t.Fatalf("test size %d not below MinParallel %d", n, par.MinParallel)
	}
	a := kernelVec(n, 1.0)
	b := kernelVec(n, 2.0)
	var sink float64
	checks := []struct {
		name string
		fn   func()
	}{
		{"Dot", func() { sink += Dot(a, b) }},
		{"Axpy", func() { Axpy(0.5, a, b) }},
		{"Scale", func() { Scale(1.0001, b) }},
		{"Sum", func() { sink += Sum(a) }},
		{"Norm2", func() { sink += Norm2(a) }},
		{"Add", func() { Add(b, a) }},
		{"Mul", func() { Mul(b, a) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
	_ = sink
}

// TestNewSparseFastPath: already-sorted input must round-trip exactly, and
// the fast path must not fire for duplicates or out-of-order indices (those
// still go through sort+merge).
func TestNewSparseFastPath(t *testing.T) {
	idx := []int{2, 5, 9, 40}
	val := []float64{1, 2, 3, 4}
	sv, err := NewSparse(idx, val)
	if err != nil {
		t.Fatal(err)
	}
	for k := range idx {
		if sv.Indices[k] != idx[k] || sv.Values[k] != val[k] {
			t.Fatalf("fast path entry %d = (%d,%v), want (%d,%v)", k, sv.Indices[k], sv.Values[k], idx[k], val[k])
		}
	}
	// The copy must be deep: mutating the input must not alias the vector.
	idx[0] = 99
	val[0] = 99
	if sv.Indices[0] != 2 || sv.Values[0] != 1 {
		t.Fatal("fast path aliased caller slices")
	}

	// Duplicates force the slow path and still merge by addition.
	sv, err = NewSparse([]int{3, 3, 7}, []float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.Indices) != 2 || sv.Indices[0] != 3 || sv.Values[0] != 3 || sv.Values[1] != 5 {
		t.Fatalf("duplicate merge broken: %v %v", sv.Indices, sv.Values)
	}
}

// TestNewSparseSortedNoSortAllocs: the fast path performs exactly the two
// result-copy allocations plus the struct itself.
func TestNewSparseSortedNoSortAllocs(t *testing.T) {
	idx := make([]int, 512)
	val := make([]float64, 512)
	for i := range idx {
		idx[i] = i * 3
		val[i] = float64(i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sv, err := NewSparse(idx, val)
		if err != nil || sv.Nnz() != 512 {
			t.Fatal("NewSparse failed")
		}
	})
	if allocs > 3 {
		t.Errorf("sorted NewSparse: %v allocs/op, want <= 3 (struct + two copies)", allocs)
	}
}

func benchVecPair(n int) ([]float64, []float64) {
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i%97) * 0.013
		b[i] = float64(i%89) * 0.017
	}
	return a, b
}

func BenchmarkHotpathDot(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		a, x := benchVecPair(n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			var s float64
			for i := 0; i < b.N; i++ {
				s += Dot(a, x)
			}
			_ = s
		})
	}
}

func BenchmarkHotpathAxpy(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		a, x := benchVecPair(n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				Axpy(0.001, a, x)
			}
		})
	}
}

func sizeName(n int) string {
	if n >= 1024 {
		return itoa(n/1024) + "k"
	}
	return itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
