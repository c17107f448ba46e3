package lr

import (
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/linalg"
)

// refBatchGradient and refDistinctIndices are the map-based gradient and pull
// list the batch index replaced, kept as its reference.
func refBatchGradient(obj Objective, rows []data.Instance, weight func(idx int) float64) (map[int]float64, float64) {
	grad := make(map[int]float64, len(rows)*4)
	var lossSum float64
	for _, inst := range rows {
		var z float64
		fv := inst.Features
		for k, idx := range fv.Indices {
			z += fv.Values[k] * weight(idx)
		}
		loss, dz, active := obj.Loss(z, inst.Label)
		if !active {
			continue
		}
		lossSum += loss
		for k, idx := range fv.Indices {
			grad[idx] += dz * fv.Values[k]
		}
	}
	return grad, lossSum
}

func refDistinctIndices(rows []data.Instance) []int {
	seen := map[int]bool{}
	for _, inst := range rows {
		for _, idx := range inst.Features.Indices {
			seen[idx] = true
		}
	}
	out := make([]int, 0, len(seen))
	for idx := range seen {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// seededBatch draws rows over [0, dim): some empty, some holding feature 0 or
// dim-1, values of both signs.
func seededBatch(t *testing.T, rng *linalg.RNG, dim int) []data.Instance {
	t.Helper()
	rows := make([]data.Instance, rng.Intn(48))
	for r := range rows {
		var idx []int
		var vals []float64
		for k := rng.Intn(14); k > 0; k-- {
			i := rng.Zipf(dim, 1.1)
			switch rng.Intn(10) {
			case 0:
				i = 0
			case 1:
				i = dim - 1
			}
			idx = append(idx, i)
			vals = append(vals, 2*rng.Float64()-1)
		}
		sv, err := linalg.NewSparse(idx, vals)
		if err != nil {
			t.Fatal(err)
		}
		rows[r] = data.Instance{Features: sv, Label: float64(rng.Intn(2))}
	}
	return rows
}

func TestBatchIndexMatchesMapReference(t *testing.T) {
	const dim = 100_003
	rng := linalg.NewRNG(7)
	weights := make([]float64, dim)
	for i := range weights {
		weights[i] = 3 * (2*rng.Float64() - 1)
	}
	weight := func(i int) float64 { return weights[i] }

	var b BatchIndex // one warm index across batches of every size
	var w, grad []float64
	pastMargin, droppedKeys := 0, 0
	for seed := uint64(0); seed < 60; seed++ {
		rows := seededBatch(t, linalg.NewRNG(100+seed), dim)
		wantIdx := refDistinctIndices(rows)
		b.Build(rows)
		if !slices.Equal(b.Indices, wantIdx) || !slices.Equal(DistinctIndices(rows), wantIdx) {
			t.Fatalf("seed %d: indices %v, want %v", seed, b.Indices, wantIdx)
		}
		w, grad = fit(w, len(b.Indices)), fit(grad, len(b.Indices))
		for k, i := range b.Indices {
			w[k] = weight(i)
		}
		for _, obj := range []Objective{Logistic, Hinge} {
			want, wantLoss := refBatchGradient(obj, rows, weight)
			loss := b.Gradient(obj, rows, w, grad)
			keys, vals := b.Sparse(grad)
			viaMap, mapLoss := BatchGradient(obj, rows, weight)
			if math.Float64bits(loss) != math.Float64bits(wantLoss) || math.Float64bits(mapLoss) != math.Float64bits(wantLoss) {
				t.Fatalf("seed %d obj %d: loss %v / %v, want %v", seed, obj, loss, mapLoss, wantLoss)
			}
			if len(keys) != len(want) || len(viaMap) != len(want) {
				t.Fatalf("seed %d obj %d: %d / %d gradient keys, want %d", seed, obj, len(keys), len(viaMap), len(want))
			}
			for k, i := range keys {
				ref, ok := want[i]
				if !ok || math.Float64bits(vals[k]) != math.Float64bits(ref) || math.Float64bits(viaMap[i]) != math.Float64bits(ref) {
					t.Fatalf("seed %d obj %d: grad[%d] = %v / %v, want %v (present %v)", seed, obj, i, vals[k], viaMap[i], ref, ok)
				}
			}
			if obj == Hinge {
				for _, inst := range rows {
					if _, _, active := Hinge.Loss(inst.Features.DotDense(weights), inst.Label); !active {
						pastMargin++
					}
				}
				droppedKeys += len(b.Indices) - len(want)
			}
		}
	}
	if pastMargin == 0 || droppedKeys == 0 {
		t.Fatalf("hinge rows past the margin %d, keys they alone held %d: both must occur", pastMargin, droppedKeys)
	}
}

// TestBatchIndexLossMatchesEvalLoss: the loss read through an index over a
// whole dataset, from the weights at its features only, is bit for bit
// EvalLoss of the dense model that holds them there and 0 elsewhere, with
// some of the indexed weights exactly 0.
func TestBatchIndexLossMatchesEvalLoss(t *testing.T) {
	const dim = 40_000
	ds, err := data.GenerateClassify(data.ClassifyConfig{
		Rows: 3000, Dim: dim, NnzPerRow: 8, Skew: 1.0, NoiseRate: 0.02, WeightNnz: dim / 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b BatchIndex
	b.Build(ds.Instances)
	rng := linalg.NewRNG(11)
	dense := make([]float64, dim)
	w := make([]float64, len(b.Indices))
	for k, i := range b.Indices {
		if k%5 != 0 {
			w[k] = 2*rng.Float64() - 1
		}
		dense[i] = w[k]
	}
	for _, obj := range []Objective{Logistic, Hinge} {
		want := EvalLoss(obj, ds.Instances, dense)
		if got := b.Loss(obj, ds.Instances, w); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("objective %d: index loss %v, EvalLoss %v", obj, got, want)
		}
	}
	if got := b.Loss(Logistic, nil, nil); !math.IsNaN(got) {
		t.Fatalf("loss over no rows %v, want NaN as EvalLoss", got)
	}
}

func TestBatchIndexReuseZeroAlloc(t *testing.T) {
	if raceBuild() {
		t.Skip("under -race sync.Pool drops a random share of Puts, so Build's pooled scratch is reallocated now and then; scripts/check.sh runs this gate without -race")
	}
	const dim = 50_000
	rows := seededBatch(t, linalg.NewRNG(3), dim)
	if len(rows) == 0 {
		t.Fatal("seeded batch is empty")
	}
	var b BatchIndex
	b.Build(rows)
	w := make([]float64, len(b.Indices))
	for k := range w {
		w[k] = float64(k%7) - 3
	}
	grad := make([]float64, len(b.Indices))
	for _, obj := range []Objective{Logistic, Hinge} {
		b.Gradient(obj, rows, w, grad)
		b.Sparse(grad)
		allocs := testing.AllocsPerRun(100, func() {
			b.Build(rows)
			b.Gradient(obj, rows, w, grad)
			b.Sparse(grad)
		})
		if allocs != 0 {
			t.Errorf("objective %d: warm Build+Gradient+Sparse made %v allocs, want 0", obj, allocs)
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
