package lr

import (
	"testing"

	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/rdd"
)

// BenchmarkBatchIndexBuild times BatchIndex.Build on cold batches, drawn in
// advance over the whole dataset so a batch's rows are rarely still cached,
// into one warm index, and reports ns per feature entry. Two shapes:
// sim-lr-adam's (20 partitions of 20 000 rows, a 10 % Bernoulli sample of
// each, 100 k dims, 20 entries a row) and tcp-lr-sparse's (256 rows drawn
// with replacement from 20 000, 50 k dims, 16 entries a row).
func BenchmarkBatchIndexBuild(b *testing.B) {
	for _, shape := range []struct {
		name    string
		cfg     data.ClassifyConfig
		batches func(rows []data.Instance, rng *linalg.RNG) [][]data.Instance
	}{
		{
			name: "sim-lr-adam",
			cfg:  data.ClassifyConfig{Rows: 20000, Dim: 100000, NnzPerRow: 20, Skew: 1.1, NoiseRate: 0.02, WeightNnz: 10000, Seed: 17},
			batches: func(rows []data.Instance, rng *linalg.RNG) [][]data.Instance {
				var out [][]data.Instance
				for range 50 {
					for _, part := range data.Partition(rows, 20) {
						out = append(out, rdd.Bernoulli(part, 0.1, rng))
					}
				}
				return out
			},
		},
		{
			name: "tcp-lr-sparse",
			cfg:  data.ClassifyConfig{Rows: 20000, Dim: 50000, NnzPerRow: 16, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 5000, Seed: 17},
			batches: func(rows []data.Instance, rng *linalg.RNG) [][]data.Instance {
				out := make([][]data.Instance, 400)
				for i := range out {
					out[i] = make([]data.Instance, 256)
					for r := range out[i] {
						out[i][r] = rows[rng.Intn(len(rows))]
					}
				}
				return out
			},
		},
	} {
		b.Run(shape.name, func(b *testing.B) {
			ds, err := data.GenerateClassify(shape.cfg)
			if err != nil {
				b.Fatal(err)
			}
			batches := shape.batches(ds.Instances, linalg.NewRNG(5))
			var idx BatchIndex
			for _, batch := range batches {
				idx.Build(batch)
			}
			entries := 0
			b.ResetTimer()
			for i := range b.N {
				batch := batches[i%len(batches)]
				idx.Build(batch)
				entries += TotalNnz(batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
		})
	}
}
