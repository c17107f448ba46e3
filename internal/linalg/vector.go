// Package linalg provides the dense and sparse vector kernels used by the ML
// algorithms and the parameter server. Everything is float64, stdlib-only,
// and allocation-conscious: the hot paths (dot, axpy, gradient accumulation)
// avoid per-call allocation.
package linalg

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/par"
)

// SparseVector is a sparse vector in coordinate form with strictly increasing
// indices. The zero value is an empty vector.
type SparseVector struct {
	Indices []int
	Values  []float64
}

// NewSparse builds a sparse vector from parallel index/value slices, sorting
// them by index and merging duplicates by addition. Indices that are already
// strictly increasing — the common case, since the data loaders emit sorted
// features — skip the pair-struct sort entirely and copy straight through.
func NewSparse(indices []int, values []float64) (*SparseVector, error) {
	if len(indices) != len(values) {
		return nil, fmt.Errorf("linalg: NewSparse length mismatch: %d indices, %d values", len(indices), len(values))
	}
	if strictlyIncreasing(indices) {
		return &SparseVector{
			Indices: append([]int(nil), indices...),
			Values:  append([]float64(nil), values...),
		}, nil
	}
	pairs := make([]indexValue, len(indices))
	for k := range indices {
		pairs[k] = indexValue{indices[k], values[k]}
	}
	sortByIndex(pairs)
	sv := &SparseVector{
		Indices: make([]int, 0, len(pairs)),
		Values:  make([]float64, 0, len(pairs)),
	}
	for _, p := range pairs {
		if n := len(sv.Indices); n > 0 && sv.Indices[n-1] == p.i {
			sv.Values[n-1] += p.v
			continue
		}
		sv.Indices = append(sv.Indices, p.i)
		sv.Values = append(sv.Values, p.v)
	}
	return sv, nil
}

// indexValue is one entry of a sparse vector under construction.
type indexValue struct {
	i int
	v float64
}

// sortByIndex sorts pairs by index with slices.SortFunc: the same pdqsort,
// and so the same permutation of equal indices, as sort.Slice, without its
// reflection-based swapper. Merged duplicates therefore add in an unchanged
// order.
func sortByIndex(pairs []indexValue) {
	slices.SortFunc(pairs, func(a, b indexValue) int { return cmp.Compare(a.i, b.i) })
}

// strictlyIncreasing reports whether idx is already in strictly ascending
// order (no duplicates), i.e. already a valid SparseVector index list.
func strictlyIncreasing(idx []int) bool {
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			return false
		}
	}
	return true
}

// Nnz returns the number of stored entries.
func (v *SparseVector) Nnz() int { return len(v.Indices) }

// DotDense returns <v, w> against a dense vector. Indices beyond len(w) are
// ignored.
func (v *SparseVector) DotDense(w []float64) float64 {
	var s float64
	for k, i := range v.Indices {
		if i < len(w) {
			s += v.Values[k] * w[i]
		}
	}
	return s
}

// AddToDense computes w += alpha * v in place.
func (v *SparseVector) AddToDense(w []float64, alpha float64) {
	for k, i := range v.Indices {
		if i < len(w) {
			w[i] += alpha * v.Values[k]
		}
	}
}

// Dense kernels.
//
// The reductions (Dot, Sum, Norm2) follow one fixed summation contract,
// shared with par.Reduce so serial and shard-parallel execution are
// bit-identical (ARCHITECTURE §14):
//
//   - the input is processed in par.ChunkSize chunks, ascending;
//   - within a chunk, four accumulator lanes take elements i, i+1, i+2, i+3
//     and combine as ((s0+s1)+s2)+s3, then the ≤3 tail elements add in order;
//   - chunk partials add into the running total in ascending chunk order.
//
// This order is part of the kernels' observable behavior: it reassociates
// floating-point summation versus a naive single-accumulator loop, but it
// never varies between runs, core counts, or serial/parallel paths.
//
// The element-wise kernels (Axpy, Scale, Fill, Add, Sub, Mul, Div) are
// 4-way unrolled too; their results are independent of any split.
//
// Inputs below par.MinParallel run inline and allocation-free; larger
// inputs fan the chunks out over par's bounded worker pool.

// dotRange is the unrolled single-chunk dot kernel.
func dotRange(a, b []float64) float64 {
	b = b[:len(a)] // hoist the bounds check out of the loop
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= len(a)-4; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := ((s0 + s1) + s2) + s3
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// sumRange is the unrolled single-chunk sum kernel.
func sumRange(a []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= len(a)-4; i += 4 {
		s0 += a[i]
		s1 += a[i+1]
		s2 += a[i+2]
		s3 += a[i+3]
	}
	s := ((s0 + s1) + s2) + s3
	for ; i < len(a); i++ {
		s += a[i]
	}
	return s
}

// sumSqRange is the unrolled single-chunk sum-of-squares kernel.
func sumSqRange(a []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i <= len(a)-4; i += 4 {
		s0 += a[i] * a[i]
		s1 += a[i+1] * a[i+1]
		s2 += a[i+2] * a[i+2]
		s3 += a[i+3] * a[i+3]
	}
	s := ((s0 + s1) + s2) + s3
	for ; i < len(a); i++ {
		s += a[i] * a[i]
	}
	return s
}

// Dot returns the inner product of two equal-length dense vectors, summed in
// the fixed chunked order documented above.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) >= par.MinParallel {
		return par.Reduce(len(a), func(lo, hi int) float64 { return dotRange(a[lo:hi], b[lo:hi]) })
	}
	var s float64
	for lo := 0; lo < len(a); lo += par.ChunkSize {
		hi := min(lo+par.ChunkSize, len(a))
		s += dotRange(a[lo:hi], b[lo:hi])
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) >= par.MinParallel {
		par.Range(len(x), func(lo, hi int) { axpyRange(alpha, x[lo:hi], y[lo:hi]) })
		return
	}
	axpyRange(alpha, x, y)
}

func axpyRange(alpha float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i <= len(x)-4; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	if len(x) >= par.MinParallel {
		par.Range(len(x), func(lo, hi int) { scaleRange(alpha, x[lo:hi]) })
		return
	}
	scaleRange(alpha, x)
}

func scaleRange(alpha float64, x []float64) {
	i := 0
	for ; i <= len(x)-4; i += 4 {
		x[i] *= alpha
		x[i+1] *= alpha
		x[i+2] *= alpha
		x[i+3] *= alpha
	}
	for ; i < len(x); i++ {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of a dense vector (chunked summation
// order as documented above).
func Norm2(x []float64) float64 {
	return math.Sqrt(SumSquares(x))
}

// SumSquares returns the sum of squared elements in the fixed chunked order
// (the partial the distributed Norm2 ships per shard).
func SumSquares(x []float64) float64 {
	if len(x) >= par.MinParallel {
		return par.Reduce(len(x), func(lo, hi int) float64 { return sumSqRange(x[lo:hi]) })
	}
	var s float64
	for lo := 0; lo < len(x); lo += par.ChunkSize {
		hi := min(lo+par.ChunkSize, len(x))
		s += sumSqRange(x[lo:hi])
	}
	return s
}

// Sum returns the sum of the elements in the fixed chunked order.
func Sum(x []float64) float64 {
	if len(x) >= par.MinParallel {
		return par.Reduce(len(x), func(lo, hi int) float64 { return sumRange(x[lo:hi]) })
	}
	var s float64
	for lo := 0; lo < len(x); lo += par.ChunkSize {
		hi := min(lo+par.ChunkSize, len(x))
		s += sumRange(x[lo:hi])
	}
	return s
}

// NnzDense counts nonzero entries of a dense vector.
func NnzDense(x []float64) int {
	n := 0
	for _, v := range x {
		if v != 0 {
			n++
		}
	}
	return n
}

// Fill sets every element of x to c.
func Fill(x []float64, c float64) {
	if len(x) >= par.MinParallel {
		par.Range(len(x), func(lo, hi int) { fillRange(x[lo:hi], c) })
		return
	}
	fillRange(x, c)
}

func fillRange(x []float64, c float64) {
	for i := range x {
		x[i] = c
	}
}

// Add computes dst += src element-wise in place.
func Add(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: Add length mismatch %d vs %d", len(dst), len(src)))
	}
	if len(dst) >= par.MinParallel {
		par.Range(len(dst), func(lo, hi int) { addRange(dst[lo:hi], src[lo:hi]) })
		return
	}
	addRange(dst, src)
}

func addRange(dst, src []float64) {
	src = src[:len(dst)]
	i := 0
	for ; i <= len(dst)-4; i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] += src[i]
	}
}

// Sub computes dst -= src element-wise in place.
func Sub(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: Sub length mismatch %d vs %d", len(dst), len(src)))
	}
	if len(dst) >= par.MinParallel {
		par.Range(len(dst), func(lo, hi int) { subRange(dst[lo:hi], src[lo:hi]) })
		return
	}
	subRange(dst, src)
}

func subRange(dst, src []float64) {
	src = src[:len(dst)]
	i := 0
	for ; i <= len(dst)-4; i += 4 {
		dst[i] -= src[i]
		dst[i+1] -= src[i+1]
		dst[i+2] -= src[i+2]
		dst[i+3] -= src[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] -= src[i]
	}
}

// Mul computes dst *= src element-wise in place.
func Mul(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: Mul length mismatch %d vs %d", len(dst), len(src)))
	}
	if len(dst) >= par.MinParallel {
		par.Range(len(dst), func(lo, hi int) { mulRange(dst[lo:hi], src[lo:hi]) })
		return
	}
	mulRange(dst, src)
}

func mulRange(dst, src []float64) {
	src = src[:len(dst)]
	i := 0
	for ; i <= len(dst)-4; i += 4 {
		dst[i] *= src[i]
		dst[i+1] *= src[i+1]
		dst[i+2] *= src[i+2]
		dst[i+3] *= src[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] *= src[i]
	}
}

// Div computes dst /= src element-wise in place (IEEE-754 on zero
// denominators, like the DCV operator it backs).
func Div(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: Div length mismatch %d vs %d", len(dst), len(src)))
	}
	if len(dst) >= par.MinParallel {
		par.Range(len(dst), func(lo, hi int) { divRange(dst[lo:hi], src[lo:hi]) })
		return
	}
	divRange(dst, src)
}

func divRange(dst, src []float64) {
	src = src[:len(dst)]
	i := 0
	for ; i <= len(dst)-4; i += 4 {
		dst[i] /= src[i]
		dst[i+1] /= src[i+1]
		dst[i+2] /= src[i+2]
		dst[i+3] /= src[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] /= src[i]
	}
}

// Sigmoid returns 1/(1+exp(-x)), computed stably for large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1.0 / (1.0 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1.0 + e)
}

// LogLoss returns the logistic loss -[y*log(p) + (1-y)*log(1-p)] for label
// y in {0,1} and margin z = w.x, computed from the margin for stability.
func LogLoss(z float64, y float64) float64 {
	// log(1+exp(-z)) if y==1; log(1+exp(z)) if y==0.
	if y > 0.5 {
		return log1pExp(-z)
	}
	return log1pExp(z)
}

func log1pExp(x float64) float64 {
	if x > 35 {
		return x
	}
	return math.Log1p(math.Exp(x))
}
