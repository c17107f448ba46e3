package lda

import (
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/linalg"
)

// This file is the collapsed Gibbs sampler itself. InitStage and SweepStage
// run it for PS2 and the three baselines of internal/baselines alike, so they
// draw the same random numbers and do the same arithmetic; they differ only
// in where the topic-word counts live and how they move.

// State is one partition's sampler state, kept on its executor across
// iterations: every token's topic and every document's topic counts.
type State struct {
	z    [][]int32 // topic per token per document
	ndk  [][]int32 // topic counts per document
	cfg  Config
	vb   float64 // vocabulary size × β
	part int
}

// Pass is what one pass over a partition's tokens changed: newState's random
// initialisation or one sweep. Deltas keeps a word that left a topic and came
// back as a zero entry, so it is still shipped.
type Pass struct {
	Deltas map[int]map[int]float64 // topic → word → count change
	Totals []float64               // topic → count change
	Tokens int
	LogLik float64 // summed token log-likelihood (a sweep only)
	Work   int     // sampler operations, the compute a sweep charges
}

func newPass(topics int) Pass {
	return Pass{Deltas: map[int]map[int]float64{}, Totals: make([]float64, topics)}
}

func (pa *Pass) add(k, w int, v float64) {
	m, ok := pa.Deltas[k]
	if !ok {
		m = map[int]float64{}
		pa.Deltas[k] = m
	}
	m[w] += v
	pa.Totals[k] += v
}

// move records one resampled token of word w that left topic from for topic to.
func (pa *Pass) move(w, from, to int) {
	pa.add(from, w, -1)
	pa.add(to, w, +1)
	pa.Tokens++
}

// newState gives every token of the partition's rows a random topic from the
// stream seeded by (cfg.Seed, part) and returns the counts it assigned.
func newState(rows []data.Document, cfg Config, vocab, part int) (*State, Pass) {
	st := &State{z: make([][]int32, len(rows)), ndk: make([][]int32, len(rows)),
		cfg: cfg, vb: float64(vocab) * cfg.Beta, part: part}
	rng := linalg.NewRNG(cfg.Seed*31 + uint64(part))
	init := newPass(cfg.Topics)
	for d, doc := range rows {
		st.z[d] = make([]int32, len(doc.Words))
		st.ndk[d] = make([]int32, cfg.Topics)
		for t, w := range doc.Words {
			k := rng.Intn(cfg.Topics)
			st.z[d][t] = int32(k)
			st.ndk[d][k]++
			init.add(k, int(w), 1)
			init.Tokens++
		}
	}
	return st, init
}

// sweep resamples every token once with the configured sampler. counts holds
// the caller's private copy of the topic counts of every word in rows, which
// the sweep updates in place; totals holds the topic totals those copies were
// taken with, which it reads once and leaves alone. Each attempt of each
// iteration draws from its own stream, seeded by (seed, partition, attempt,
// iteration).
func (st *State) sweep(rows []data.Document, attempt, it int, counts map[int][]float64, totals []float64) Pass {
	rng := linalg.NewRNG(st.cfg.Seed*101 + uint64(st.part)*13 + uint64(attempt) + uint64(it)*7)
	ltot := append([]float64(nil), totals...)
	if st.cfg.Sampler == SamplerSparse {
		return st.sparseSweep(rows, rng, counts, ltot)
	}
	K := st.cfg.Topics
	alpha, beta := st.cfg.Alpha, st.cfg.Beta
	alphaSum := alpha * float64(K)
	probs := make([]float64, K)
	pass := newPass(K)
	for d, doc := range rows {
		ndk := st.ndk[d]
		docLen := float64(len(doc.Words))
		for t, w := range doc.Words {
			wc := counts[int(w)]
			old := int(st.z[d][t])
			// Remove the token from the model.
			ndk[old]--
			wc[old]--
			ltot[old]--
			// Sample a new topic.
			var sum float64
			for k := 0; k < K; k++ {
				pk := (float64(ndk[k]) + alpha) * (wc[k] + beta) / (ltot[k] + st.vb)
				if pk < 0 {
					pk = 0
				}
				probs[k] = pk
				sum += pk
			}
			u := rng.Float64() * sum
			newK := K - 1
			acc := 0.0
			for k := 0; k < K; k++ {
				acc += probs[k]
				if u <= acc {
					newK = k
					break
				}
			}
			// Token log-likelihood under the predictive distribution.
			pass.LogLik += math.Log(sum / (docLen - 1 + alphaSum))
			// Add the token back with its new topic.
			st.z[d][t] = int32(newK)
			ndk[newK]++
			wc[newK]++
			ltot[newK]++
			pass.move(int(w), old, newK)
		}
	}
	pass.Work = pass.Tokens * K
	return pass
}

// distinctWords returns the sorted distinct words of rows.
func distinctWords(rows []data.Document) []int {
	seen := map[int32]bool{}
	for _, doc := range rows {
		for _, w := range doc.Words {
			seen[w] = true
		}
	}
	out := make([]int, 0, len(seen))
	for w := range seen {
		out = append(out, int(w))
	}
	sort.Ints(out)
	return out
}
