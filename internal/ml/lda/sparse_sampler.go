package lda

import (
	"math"

	"repro/internal/data"
	"repro/internal/linalg"
)

// This file implements the SparseLDA sampling decomposition (Yao, Mimno &
// McCallum, KDD'09) — the technique behind large-K LDA systems such as the
// paper authors' own LDA* (the paper's reference [29]). The collapsed Gibbs
// conditional factors into three buckets
//
//	p(z=k) ∝ (n_dk + α)(n_wk + β)/(n_k + Vβ)
//	       =  αβ/(n_k+Vβ)                    «s: smoothing, dense but tiny»
//	       +  n_dk·β/(n_k+Vβ)                «r: nonzero only where n_dk > 0»
//	       +  (α+n_dk)·n_wk/(n_k+Vβ)         «q: nonzero only where n_wk > 0»
//
// with all three masses maintained incrementally, so a token resample walks
// the document's and the word's nonzero topics instead of all K. The sampler
// draws from exactly the same distribution as the standard one — only the
// arithmetic is reorganized — so statistical behaviour is unchanged while
// large-K sampling gets much cheaper.

// sparseSweep is sweep's SparseLDA variant: identical distribution,
// bucketized arithmetic, work counted by the operations actually walked. It
// updates ltot, the caller's copy of the topic totals, in place.
func (st *State) sparseSweep(rows []data.Document, rng *linalg.RNG, counts map[int][]float64, ltot []float64) Pass {
	K := st.cfg.Topics
	alphaSum := st.cfg.Alpha * float64(K)
	sw := newSparseSweeper(K, st.cfg.Alpha, st.cfg.Beta, st.vb, counts, ltot)
	pass := newPass(K)
	for d, doc := range rows {
		dIdx := newNZIndexInt(st.ndk[d], K)
		sw.beginDoc(st.ndk[d], dIdx)
		pass.Work += K
		docLen := float64(len(doc.Words))
		for t, w := range doc.Words {
			old := int(st.z[d][t])
			sw.remove(int(w), old)
			newK, total := sw.sample(rng, int(w))
			pass.Work += len(sw.wordIdx[int(w)].items) + len(dIdx.items) + 4
			pass.LogLik += math.Log(total / (docLen - 1 + alphaSum))
			sw.insert(int(w), newK)
			st.z[d][t] = int32(newK)
			pass.move(int(w), old, newK)
		}
	}
	return pass
}

// nzIndex tracks the nonzero entries of a K-vector of counts as a compact
// list for O(nnz) iteration with O(1) add/remove.
type nzIndex struct {
	items []int32
	pos   []int32
}

func newNZIndex(counts []float64, k int) *nzIndex {
	idx := &nzIndex{pos: make([]int32, k)}
	for i := range idx.pos {
		idx.pos[i] = -1
	}
	for i, c := range counts {
		if c > 0 {
			idx.add(i)
		}
	}
	return idx
}

func newNZIndexInt(counts []int32, k int) *nzIndex {
	idx := &nzIndex{pos: make([]int32, k)}
	for i := range idx.pos {
		idx.pos[i] = -1
	}
	for i, c := range counts {
		if c > 0 {
			idx.add(i)
		}
	}
	return idx
}

func (idx *nzIndex) add(k int) {
	if idx.pos[k] >= 0 {
		return
	}
	idx.pos[k] = int32(len(idx.items))
	idx.items = append(idx.items, int32(k))
}

func (idx *nzIndex) remove(k int) {
	i := idx.pos[k]
	if i < 0 {
		return
	}
	last := int32(len(idx.items) - 1)
	moved := idx.items[last]
	idx.items[i] = moved
	idx.pos[moved] = i
	idx.items = idx.items[:last]
	idx.pos[k] = -1
}

// sparseSweeper holds the partition-wide incremental state of a SparseLDA
// sweep: local topic totals, the smoothing bucket, and per-word nonzero
// indices over the local count copies.
type sparseSweeper struct {
	K         int
	alpha, vb float64
	beta      float64
	ltot      []float64
	counts    map[int][]float64
	wordIdx   map[int]*nzIndex
	sTerm     []float64
	sSum      float64
	// Per-document state, reset by beginDoc.
	rTerm []float64
	rSum  float64
	qcoef []float64
	ndk   []int32
	dIdx  *nzIndex
}

func newSparseSweeper(K int, alpha, beta, vb float64, counts map[int][]float64, ltot []float64) *sparseSweeper {
	sw := &sparseSweeper{
		K: K, alpha: alpha, beta: beta, vb: vb,
		ltot: ltot, counts: counts,
		wordIdx: make(map[int]*nzIndex, len(counts)),
		sTerm:   make([]float64, K),
		rTerm:   make([]float64, K),
		qcoef:   make([]float64, K),
	}
	for w, wc := range counts {
		sw.wordIdx[w] = newNZIndex(wc, K)
	}
	for k := 0; k < K; k++ {
		sw.sTerm[k] = alpha * beta / (ltot[k] + vb)
		sw.sSum += sw.sTerm[k]
	}
	return sw
}

// beginDoc installs a document's topic counts and rebuilds the r bucket and
// the q coefficients (O(K), amortized over the document's tokens).
func (sw *sparseSweeper) beginDoc(ndk []int32, dIdx *nzIndex) {
	sw.ndk = ndk
	sw.dIdx = dIdx
	sw.rSum = 0
	for k := 0; k < sw.K; k++ {
		denom := sw.ltot[k] + sw.vb
		sw.rTerm[k] = float64(ndk[k]) * sw.beta / denom
		sw.rSum += sw.rTerm[k]
		sw.qcoef[k] = (sw.alpha + float64(ndk[k])) / denom
	}
}

// refresh recomputes every k-indexed term after ltot[k] or ndk[k] changed.
func (sw *sparseSweeper) refresh(k int) {
	denom := sw.ltot[k] + sw.vb
	sw.sSum -= sw.sTerm[k]
	sw.sTerm[k] = sw.alpha * sw.beta / denom
	sw.sSum += sw.sTerm[k]
	sw.rSum -= sw.rTerm[k]
	sw.rTerm[k] = float64(sw.ndk[k]) * sw.beta / denom
	sw.rSum += sw.rTerm[k]
	sw.qcoef[k] = (sw.alpha + float64(sw.ndk[k])) / denom
}

// remove takes the current token out of topic k.
func (sw *sparseSweeper) remove(w, k int) {
	wc := sw.counts[w]
	sw.ndk[k]--
	wc[k]--
	sw.ltot[k]--
	if sw.ndk[k] == 0 {
		sw.dIdx.remove(k)
	}
	if wc[k] == 0 {
		sw.wordIdx[w].remove(k)
	}
	sw.refresh(k)
}

// insert puts the token into topic k.
func (sw *sparseSweeper) insert(w, k int) {
	wc := sw.counts[w]
	sw.ndk[k]++
	wc[k]++
	sw.ltot[k]++
	if sw.ndk[k] == 1 {
		sw.dIdx.add(k)
	}
	if wc[k] == 1 {
		sw.wordIdx[w].add(k)
	}
	sw.refresh(k)
}

// sample draws the token's new topic and returns it with the total
// unnormalized mass (for log-likelihood bookkeeping).
func (sw *sparseSweeper) sample(rng *linalg.RNG, w int) (int, float64) {
	wc := sw.counts[w]
	widx := sw.wordIdx[w]
	var qSum float64
	for _, k := range widx.items {
		qSum += sw.qcoef[k] * wc[k]
	}
	total := sw.sSum + sw.rSum + qSum
	u := rng.Float64() * total
	switch {
	case u < qSum:
		acc := 0.0
		for _, k := range widx.items {
			acc += sw.qcoef[k] * wc[k]
			if u <= acc {
				return int(k), total
			}
		}
		if n := len(widx.items); n > 0 {
			return int(widx.items[n-1]), total
		}
	case u < qSum+sw.rSum:
		u -= qSum
		acc := 0.0
		for _, k := range sw.dIdx.items {
			acc += sw.rTerm[k]
			if u <= acc {
				return int(k), total
			}
		}
		if n := len(sw.dIdx.items); n > 0 {
			return int(sw.dIdx.items[n-1]), total
		}
	}
	u -= qSum + sw.rSum
	acc := 0.0
	for k := 0; k < sw.K; k++ {
		acc += sw.sTerm[k]
		if u <= acc {
			return k, total
		}
	}
	return sw.K - 1, total
}
