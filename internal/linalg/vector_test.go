package linalg

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewSparseSortsAndMerges(t *testing.T) {
	v, err := NewSparse([]int{5, 1, 5, 3}, []float64{2, 1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if v.Nnz() != 3 {
		t.Fatalf("nnz = %d, want 3", v.Nnz())
	}
	wantIdx := []int{1, 3, 5}
	wantVal := []float64{1, 4, 5}
	for k := range wantIdx {
		if v.Indices[k] != wantIdx[k] || !almostEq(v.Values[k], wantVal[k]) {
			t.Fatalf("got %v/%v, want %v/%v", v.Indices, v.Values, wantIdx, wantVal)
		}
	}
}

func TestNewSparseLengthMismatch(t *testing.T) {
	if _, err := NewSparse([]int{1}, nil); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestSparseDotDense(t *testing.T) {
	v, _ := NewSparse([]int{0, 2, 9}, []float64{1, 2, 3})
	w := []float64{1, 1, 1, 1, 1}
	// Index 9 is out of range and ignored.
	if got := v.DotDense(w); !almostEq(got, 3) {
		t.Fatalf("dot = %v, want 3", got)
	}
}

func TestSparseAddToDense(t *testing.T) {
	v, _ := NewSparse([]int{1, 3}, []float64{2, -1})
	w := []float64{0, 0, 0, 0}
	v.AddToDense(w, 2)
	want := []float64{0, 4, 0, -2}
	for i := range want {
		if !almostEq(w[i], want[i]) {
			t.Fatalf("w = %v, want %v", w, want)
		}
	}
}

func TestDenseKernels(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); !almostEq(got, 32) {
		t.Fatalf("Dot = %v, want 32", got)
	}
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	want := []float64{3, 5, 7}
	for i := range want {
		if !almostEq(y[i], want[i]) {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
	Scale(0.5, y)
	if !almostEq(y[2], 3.5) {
		t.Fatalf("Scale = %v", y)
	}
	if got := Norm2([]float64{3, 4}); !almostEq(got, 5) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Sum(a); !almostEq(got, 6) {
		t.Fatalf("Sum = %v, want 6", got)
	}
	if got := NnzDense([]float64{0, 1, 0, 2}); got != 2 {
		t.Fatalf("NnzDense = %v, want 2", got)
	}
	z := make([]float64, 3)
	Fill(z, 7)
	if z[0] != 7 || z[2] != 7 {
		t.Fatalf("Fill = %v", z)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot did not panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestSigmoid(t *testing.T) {
	if !almostEq(Sigmoid(0), 0.5) {
		t.Fatalf("Sigmoid(0) = %v", Sigmoid(0))
	}
	if Sigmoid(100) <= 0.999 || Sigmoid(-100) >= 0.001 {
		t.Fatal("Sigmoid saturation wrong")
	}
	// Stability: no NaN for extreme inputs.
	for _, x := range []float64{-1e9, -745, 745, 1e9} {
		if math.IsNaN(Sigmoid(x)) {
			t.Fatalf("Sigmoid(%v) is NaN", x)
		}
	}
}

func TestLogLoss(t *testing.T) {
	if !almostEq(LogLoss(0, 1), math.Log(2)) {
		t.Fatalf("LogLoss(0,1) = %v", LogLoss(0, 1))
	}
	if LogLoss(50, 1) > 1e-10 {
		t.Fatal("confident correct prediction should have ~0 loss")
	}
	if LogLoss(-50, 1) < 40 {
		t.Fatal("confident wrong prediction should have large loss")
	}
	if math.IsInf(LogLoss(-1e6, 1), 0) && false {
		t.Fatal("unreachable")
	}
	if math.IsNaN(LogLoss(-1e6, 1)) || math.IsNaN(LogLoss(1e6, 0)) {
		t.Fatal("LogLoss overflow for large margins")
	}
}

// Property: sparse dot against dense equals brute-force dense dot.
func TestSparseDotProperty(t *testing.T) {
	f := func(idxRaw []uint8, vals []float64) bool {
		n := len(idxRaw)
		if len(vals) < n {
			n = len(vals)
		}
		idx := make([]int, n)
		vv := make([]float64, n)
		for i := 0; i < n; i++ {
			idx[i] = int(idxRaw[i]) % 64
			v := vals[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			vv[i] = math.Mod(v, 100)
		}
		sv, err := NewSparse(idx, vv)
		if err != nil {
			return false
		}
		dense := make([]float64, 64)
		for i := 0; i < n; i++ {
			dense[idx[i]] += vv[i]
		}
		w := make([]float64, 64)
		for i := range w {
			w[i] = float64(i%7) - 3
		}
		return math.Abs(sv.DotDense(w)-Dot(dense, w)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AddToDense twice with alpha and -alpha is the identity.
func TestAddToDenseInverseProperty(t *testing.T) {
	f := func(idxRaw []uint8, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			alpha = 1
		}
		idx := make([]int, len(idxRaw))
		vals := make([]float64, len(idxRaw))
		for i := range idxRaw {
			idx[i] = int(idxRaw[i]) % 32
			vals[i] = float64(i) + 1
		}
		sv, _ := NewSparse(idx, vals)
		w := make([]float64, 32)
		for i := range w {
			w[i] = float64(i)
		}
		orig := append([]float64(nil), w...)
		sv.AddToDense(w, alpha)
		sv.AddToDense(w, -alpha)
		for i := range w {
			if math.Abs(w[i]-orig[i]) > 1e-6*(1+math.Abs(alpha)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %v", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values in 1000 draws", len(seen))
	}
}

func TestRNGNormStats(t *testing.T) {
	r := NewRNG(99)
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGZipfSkew(t *testing.T) {
	r := NewRNG(11)
	n := 1000
	counts := make([]int, n)
	for i := 0; i < 50000; i++ {
		counts[r.Zipf(n, 1.1)]++
	}
	// Head must be much hotter than the tail.
	head := counts[0] + counts[1] + counts[2]
	tail := counts[n-1] + counts[n-2] + counts[n-3]
	if head <= tail*10 {
		t.Fatalf("Zipf not skewed: head=%d tail=%d", head, tail)
	}
	if r.Zipf(1, 1.1) != 0 {
		t.Fatal("Zipf(1) must return 0")
	}
}

// zipfClosedForm is RNG.Zipf with every term computed afresh on every draw.
func zipfClosedForm(r *RNG, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	u := r.Float64()
	if s == 1 {
		return int(math.Min(float64(n)-1, math.Exp(u*math.Log(float64(n)))-1))
	}
	i := int(math.Pow(u*(math.Pow(float64(n), 1-s)-1)+1, 1/(1-s)) - 1)
	return min(max(i, 0), n-1)
}

// TestZipfMemoMatchesClosedForm draws from interleaved and repeated (n, s)
// pairs, so the memoized terms are both reused and replaced, and checks
// every draw against the closed form on a second generator of the same seed.
func TestZipfMemoMatchesClosedForm(t *testing.T) {
	pairs := []struct {
		n int
		s float64
	}{
		{1000, 1.1}, {1000, 1.1}, {50, 1}, {50, 1}, {1000, 1.1}, {1, 1.1}, {0, 1},
		{-3, 2}, {2, 0.5}, {4_000_000, 1.2}, {4_000_000, 1}, {7, 3}, {100, 0},
		{1000, 1.3}, {1000, 1.1}, {50, 1},
	}
	memo, fresh := NewRNG(23), NewRNG(23)
	pick := NewRNG(5)
	for i := 0; i < 20000; i++ {
		p := pairs[pick.Intn(len(pairs))]
		got, want := memo.Zipf(p.n, p.s), zipfClosedForm(fresh, p.n, p.s)
		if got != want {
			t.Fatalf("draw %d, Zipf(%d, %v): memoized %d, closed form %d", i, p.n, p.s, got, want)
		}
	}
	if memo.Uint64() != fresh.Uint64() {
		t.Fatal("the two generators' streams drifted apart")
	}
}

func TestAliasSamplerMatchesDistribution(t *testing.T) {
	weights := []float64{1, 0, 3, 6}
	s, err := NewAliasSampler(weights)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(17)
	counts := make([]int, len(weights))
	n := 200000
	for i := 0; i < n; i++ {
		counts[s.Sample(rng)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category sampled %d times", counts[1])
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("category %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestAliasSamplerValidation(t *testing.T) {
	if _, err := NewAliasSampler(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewAliasSampler([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewAliasSampler([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// Property: every sample is in range and strictly-positive-weight categories
// all eventually appear.
func TestAliasSamplerProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		weights := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			weights[i] = float64(r)
			total += weights[i]
		}
		if total == 0 {
			weights[0] = 1
		}
		s, err := NewAliasSampler(weights)
		if err != nil {
			return false
		}
		rng := NewRNG(3)
		seen := make([]bool, len(weights))
		for i := 0; i < 5000; i++ {
			v := s.Sample(rng)
			if v < 0 || v >= len(weights) {
				return false
			}
			seen[v] = true
		}
		for i, w := range weights {
			if w > 0 && float64(len(weights))*w/totalOf(weights) > 0.05 && !seen[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func totalOf(w []float64) float64 {
	var t float64
	for _, v := range w {
		t += v
	}
	return t
}

// TestSortByIndexMatchesSortSlice: NewSparse's sort yields the permutation
// sort.Slice did, equal indices included, on random lists with duplicates —
// so the values a duplicated index merges still add in the same order.
func TestSortByIndexMatchesSortSlice(t *testing.T) {
	rng := NewRNG(7)
	for trial := range 5000 {
		n := rng.Intn(201)
		got := make([]indexValue, n)
		for k := range got {
			// Few distinct indices relative to n, so most lists repeat some;
			// the value records the entry's original position.
			got[k] = indexValue{i: rng.Intn(n/3 + 1), v: float64(k)}
		}
		want := append([]indexValue(nil), got...)
		sort.Slice(want, func(a, b int) bool { return want[a].i < want[b].i })
		sortByIndex(got)
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("trial %d (n=%d): entry %d is %v, sort.Slice gave %v", trial, n, k, got[k], want[k])
			}
		}
	}
}
