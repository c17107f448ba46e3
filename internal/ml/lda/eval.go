package lda

import (
	"math"
	"sort"

	"repro/internal/data"
)

// Phi returns the smoothed topic-word distributions φ[k][w] =
// (n_kw + β) / (n_k + Vβ), read host-side from shard memory (evaluation
// only; no virtual time is charged).
func (m *Model) Phi(beta float64) [][]float64 {
	phi := make([][]float64, m.Topics)
	vb := float64(m.Vocab) * beta
	for k := 0; k < m.Topics; k++ {
		row := make([]float64, m.Vocab)
		for s := 0; s < m.WordTopic.Part.NumServers(); s++ {
			sh := m.WordTopic.HostShard(s)
			sh.ReadRow(k, row)
		}
		denom := m.Totals[k] + vb
		for w := range row {
			row[w] = (row[w] + beta) / denom
		}
		phi[k] = row
	}
	return phi
}

// Perplexity computes exp(−loglik/token) of held-out documents under the
// trained model, folding in document-topic proportions with a fixed-point
// EM pass per document (the standard left-out evaluation).
func Perplexity(m *Model, docs []data.Document, alpha, beta float64) float64 {
	phi := m.Phi(beta)
	var logLik float64
	var tokens int
	theta := make([]float64, m.Topics)
	next := make([]float64, m.Topics)
	for _, doc := range docs {
		if len(doc.Words) == 0 {
			continue
		}
		// Initialize θ uniform, run a few fixed-point iterations of
		// θ_k ∝ α + Σ_w p(k|w,θ).
		for k := range theta {
			theta[k] = 1.0 / float64(m.Topics)
		}
		for it := 0; it < 20; it++ {
			for k := range next {
				next[k] = alpha
			}
			for _, w := range doc.Words {
				var denom float64
				for k := 0; k < m.Topics; k++ {
					denom += theta[k] * phi[k][w]
				}
				if denom <= 0 {
					continue
				}
				for k := 0; k < m.Topics; k++ {
					next[k] += theta[k] * phi[k][w] / denom
				}
			}
			var sum float64
			for k := range next {
				sum += next[k]
			}
			for k := range theta {
				theta[k] = next[k] / sum
			}
		}
		for _, w := range doc.Words {
			var pw float64
			for k := 0; k < m.Topics; k++ {
				pw += theta[k] * phi[k][w]
			}
			if pw > 0 {
				logLik += math.Log(pw)
				tokens++
			}
		}
	}
	if tokens == 0 {
		return math.NaN()
	}
	return math.Exp(-logLik / float64(tokens))
}

// CoherenceUMass computes the UMass topic-coherence score of one topic's top
// n words over a reference corpus: Σ log (D(wi,wj)+1) / D(wj) for pairs of
// top words, higher (closer to 0) is better. It is the standard automatic
// check that a topic's top words actually co-occur.
func CoherenceUMass(docs []data.Document, topWords []int, n int) float64 {
	if n > len(topWords) {
		n = len(topWords)
	}
	if n < 2 {
		return 0
	}
	// Document frequency per word and co-document frequency per pair.
	df := map[int]int{}
	codf := map[[2]int]int{}
	want := map[int]bool{}
	for _, w := range topWords[:n] {
		want[w] = true
	}
	seen := map[int]bool{}
	for _, doc := range docs {
		for k := range seen {
			delete(seen, k)
		}
		for _, w := range doc.Words {
			if want[int(w)] {
				seen[int(w)] = true
			}
		}
		for w := range seen {
			df[w]++
		}
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if seen[topWords[i]] && seen[topWords[j]] {
					codf[[2]int{topWords[i], topWords[j]}]++
				}
			}
		}
	}
	var score float64
	pairs := 0
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			d := df[topWords[j]]
			if d == 0 {
				continue
			}
			score += math.Log(float64(codf[[2]int{topWords[i], topWords[j]}]+1) / float64(d))
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return score / float64(pairs)
}

// TopWordsHost returns the n highest-count words of a topic, read host-side.
func (m *Model) TopWordsHost(topic, n int) []int {
	row := make([]float64, m.Vocab)
	for s := 0; s < m.WordTopic.Part.NumServers(); s++ {
		sh := m.WordTopic.HostShard(s)
		sh.ReadRow(topic, row)
	}
	type wc struct {
		w int
		c float64
	}
	all := make([]wc, len(row))
	for w, c := range row {
		all[w] = wc{w, c}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].c > all[b].c })
	out := make([]int, 0, n)
	for i := 0; i < n && i < len(all); i++ {
		out = append(out, all[i].w)
	}
	return out
}

// Theta returns the smoothed document-topic proportions for partition part,
// θ[d][k] = (n_dk + α) / (len_d + Kα), read from the worker-local sampler
// state (host-side evaluation helper).
func (m *Model) Theta(part int) [][]float64 {
	if part < 0 || part >= len(m.states) || m.states[part] == nil {
		return nil
	}
	st := m.states[part]
	out := make([][]float64, len(st.ndk))
	for d, counts := range st.ndk {
		row := make([]float64, m.Topics)
		var docLen float64
		for _, c := range counts {
			docLen += float64(c)
		}
		denom := docLen + m.alpha*float64(m.Topics)
		for k, c := range counts {
			row[k] = (float64(c) + m.alpha) / denom
		}
		out[d] = row
	}
	return out
}
