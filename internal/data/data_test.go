package data

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/linalg"
)

func TestGenerateClassifyShape(t *testing.T) {
	cfg := ClassifyConfig{Rows: 500, Dim: 1000, NnzPerRow: 10, Skew: 1.1, WeightNnz: 100, Seed: 1}
	ds, err := GenerateClassify(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Instances) != 500 {
		t.Fatalf("rows = %d", len(ds.Instances))
	}
	pos := 0
	for _, inst := range ds.Instances {
		if inst.Features.Nnz() != 10 {
			t.Fatalf("nnz = %d, want 10", inst.Features.Nnz())
		}
		for _, i := range inst.Features.Indices {
			if i < 0 || i >= 1000 {
				t.Fatalf("index %d out of range", i)
			}
		}
		if inst.Label != 0 && inst.Label != 1 {
			t.Fatalf("label = %v", inst.Label)
		}
		if inst.Label == 1 {
			pos++
		}
	}
	if pos == 0 || pos == 500 {
		t.Fatalf("degenerate label distribution: %d positives", pos)
	}
}

func TestGenerateClassifyDeterministic(t *testing.T) {
	cfg := KDDBLike()
	cfg.Rows = 100
	a, _ := GenerateClassify(cfg)
	b, _ := GenerateClassify(cfg)
	for r := range a.Instances {
		if a.Instances[r].Label != b.Instances[r].Label {
			t.Fatal("same config gave different labels")
		}
		ai, bi := a.Instances[r].Features, b.Instances[r].Features
		if ai.Nnz() != bi.Nnz() {
			t.Fatal("same config gave different sparsity")
		}
		for k := range ai.Indices {
			if ai.Indices[k] != bi.Indices[k] || ai.Values[k] != bi.Values[k] {
				t.Fatal("same config gave different features")
			}
		}
	}
}

func TestGenerateClassifyLearnable(t *testing.T) {
	// A few steps of full-batch gradient descent on the generated data must
	// reduce logistic loss well below ln 2 — i.e. the data carries signal.
	cfg := ClassifyConfig{Rows: 2000, Dim: 500, NnzPerRow: 15, Skew: 1.0, NoiseRate: 0.02, WeightNnz: 100, Seed: 7}
	ds, _ := GenerateClassify(cfg)
	w := make([]float64, cfg.Dim)
	loss := func() float64 {
		var total float64
		for _, inst := range ds.Instances {
			total += linalg.LogLoss(inst.Features.DotDense(w), inst.Label)
		}
		return total / float64(len(ds.Instances))
	}
	start := loss()
	for it := 0; it < 30; it++ {
		grad := make([]float64, cfg.Dim)
		for _, inst := range ds.Instances {
			p := linalg.Sigmoid(inst.Features.DotDense(w))
			inst.Features.AddToDense(grad, p-inst.Label)
		}
		linalg.Axpy(-1.0/float64(len(ds.Instances)), grad, w)
	}
	end := loss()
	if start < 0.6 {
		t.Fatalf("initial loss %v suspiciously low", start)
	}
	if end > 0.85*start {
		t.Fatalf("loss barely moved: %v -> %v; data not learnable", start, end)
	}
}

func TestGenerateClassifyRejectsBadConfig(t *testing.T) {
	if _, err := GenerateClassify(ClassifyConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestGenerateClassifyReturnsWhenRowsAskForEveryDim: with skew, the last
// dimension is out of the draws' reach, so a row asking for every dimension
// (or more, which clamps to every dimension) gets all the others instead of
// drawing forever.
func TestGenerateClassifyReturnsWhenRowsAskForEveryDim(t *testing.T) {
	for _, cfg := range []ClassifyConfig{
		{Rows: 1, Dim: 4, NnzPerRow: 4, Skew: 1},
		{Rows: 3, Dim: 5, NnzPerRow: 9, Skew: 1.3, SortedFeatures: true},
		{Rows: 2, Dim: 1, NnzPerRow: 2, Skew: 1},
	} {
		done := make(chan *ClassifyDataset, 1)
		go func() {
			ds, err := GenerateClassify(cfg)
			if err != nil {
				t.Error(err)
			}
			done <- ds
		}()
		select {
		case ds := <-done:
			if ds == nil {
				continue
			}
			want := max(cfg.Dim-1, 1)
			for _, in := range ds.Instances {
				if in.Features.Nnz() != want {
					t.Errorf("%+v: a row holds %d indices, want %d", cfg, in.Features.Nnz(), want)
				}
			}
		case <-time.After(time.Second):
			t.Fatalf("%+v: GenerateClassify still running after 1 s", cfg)
		}
	}
}

func TestPartitionRoundRobin(t *testing.T) {
	cfg := ClassifyConfig{Rows: 10, Dim: 10, NnzPerRow: 2, WeightNnz: 5, Seed: 1}
	ds, _ := GenerateClassify(cfg)
	parts := Partition(ds.Instances, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total != 10 {
		t.Fatalf("partition lost rows: %d", total)
	}
	if len(parts[0]) != 4 || len(parts[1]) != 3 || len(parts[2]) != 3 {
		t.Fatalf("unbalanced: %d %d %d", len(parts[0]), len(parts[1]), len(parts[2]))
	}
}

func TestDatasetStats(t *testing.T) {
	cfg := ClassifyConfig{Rows: 50, Dim: 100, NnzPerRow: 4, WeightNnz: 10, Seed: 2}
	ds, _ := GenerateClassify(cfg)
	st := DatasetStats(ds.Instances, cfg.Dim)
	if st.Rows != 50 || st.Cols != 100 || st.Nnz != 200 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGenerateGraphShape(t *testing.T) {
	g, err := GenerateGraph(GraphConfig{Vertices: 500, EdgesPerNode: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Vertices() != 500 {
		t.Fatalf("vertices = %d", g.Vertices())
	}
	if g.Edges() < 500 {
		t.Fatalf("edges = %d, too few", g.Edges())
	}
	// Preferential attachment must produce a heavy tail: max degree far above
	// the mean.
	maxDeg, sumDeg := 0, 0
	for _, nbrs := range g.Adj {
		if len(nbrs) > maxDeg {
			maxDeg = len(nbrs)
		}
		sumDeg += len(nbrs)
	}
	mean := float64(sumDeg) / float64(g.Vertices())
	if float64(maxDeg) < 4*mean {
		t.Fatalf("degree distribution not heavy-tailed: max=%d mean=%v", maxDeg, mean)
	}
	// Symmetry check.
	for u, nbrs := range g.Adj {
		for _, v := range nbrs {
			found := false
			for _, back := range g.Adj[v] {
				if int(back) == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not symmetric", u, v)
			}
		}
	}
}

func TestGenerateGraphRejectsBadConfig(t *testing.T) {
	if _, err := GenerateGraph(GraphConfig{Vertices: 1, EdgesPerNode: 1}); err == nil {
		t.Fatal("1-vertex graph accepted")
	}
}

func TestRandomWalksPairs(t *testing.T) {
	g, _ := GenerateGraph(GraphConfig{Vertices: 200, EdgesPerNode: 3, Seed: 2})
	cfg := DefaultWalkConfig()
	pairs := RandomWalks(g, cfg)
	if len(pairs) == 0 {
		t.Fatal("no pairs generated")
	}
	for _, pr := range pairs {
		if pr.U < 0 || int(pr.U) >= g.Vertices() || pr.V < 0 || int(pr.V) >= g.Vertices() {
			t.Fatalf("pair out of range: %+v", pr)
		}
		if pr.U == pr.V {
			// Walks can revisit, but a window never pairs a position with
			// itself; equal IDs are possible only via revisits — allowed.
			continue
		}
	}
	// Window arithmetic: a full-length walk of L=8, W=4 yields at most
	// sum over i of min(i+W, L-1) - max(i-W,0) ... just sanity bound.
	maxPairs := g.Vertices() * cfg.WalksPerVertex * cfg.WalkLength * 2 * cfg.WindowSize
	if len(pairs) > maxPairs {
		t.Fatalf("pairs = %d exceeds bound %d", len(pairs), maxPairs)
	}
}

func TestGenerateCorpusShape(t *testing.T) {
	cfg := CorpusConfig{Docs: 100, Vocab: 500, MeanDocLen: 40, TrueTopics: 5, Concentrate: 0.1, Seed: 3}
	c, err := GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) != 100 {
		t.Fatalf("docs = %d", len(c.Docs))
	}
	var tokens int64
	for _, d := range c.Docs {
		if len(d.Words) == 0 {
			t.Fatal("empty document")
		}
		for _, w := range d.Words {
			if w < 0 || int(w) >= cfg.Vocab {
				t.Fatalf("word %d out of vocab", w)
			}
		}
		tokens += int64(len(d.Words))
	}
	if tokens != c.Tokens {
		t.Fatalf("token count mismatch: %d vs %d", tokens, c.Tokens)
	}
}

func TestGenerateCorpusHasTopicStructure(t *testing.T) {
	cfg := CorpusConfig{Docs: 300, Vocab: 1000, MeanDocLen: 60, TrueTopics: 10, Concentrate: 0.05, Seed: 4}
	c, _ := GenerateCorpus(cfg)
	// Documents should concentrate words in few vocabulary regions: measure
	// the average fraction of a doc's tokens in its top region.
	region := cfg.Vocab / cfg.TrueTopics
	var conc float64
	for _, d := range c.Docs {
		counts := map[int]int{}
		for _, w := range d.Words {
			counts[int(w)/region]++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		conc += float64(best) / float64(len(d.Words))
	}
	conc /= float64(len(c.Docs))
	if conc < 0.4 {
		t.Fatalf("documents not topic-concentrated: %v", conc)
	}
}

func TestGenerateTabular(t *testing.T) {
	ds, err := GenerateTabular(TabularConfig{Rows: 1000, Features: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for r, row := range ds.X {
		if len(row) != 20 {
			t.Fatalf("row %d has %d features", r, len(row))
		}
		if ds.Y[r] == 1 {
			pos++
		}
	}
	if pos < 100 || pos > 900 {
		t.Fatalf("degenerate targets: %d positives of 1000", pos)
	}
	// The target must depend on feature 0 (threshold structure).
	hi, lo := 0.0, 0.0
	nHi, nLo := 0, 0
	for r, row := range ds.X {
		if row[0] > 0.5 {
			hi += ds.Y[r]
			nHi++
		} else {
			lo += ds.Y[r]
			nLo++
		}
	}
	if hi/float64(nHi) < lo/float64(nLo)+0.1 {
		t.Fatalf("feature 0 carries no signal: hi=%v lo=%v", hi/float64(nHi), lo/float64(nLo))
	}
}

func TestLIBSVMRoundTrip(t *testing.T) {
	cfg := ClassifyConfig{Rows: 50, Dim: 200, NnzPerRow: 5, WeightNnz: 20, Seed: 6}
	ds, _ := GenerateClassify(cfg)
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, ds.Instances); err != nil {
		t.Fatal(err)
	}
	back, dim, err := ReadLIBSVM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 50 {
		t.Fatalf("rows = %d", len(back))
	}
	if dim > 200 {
		t.Fatalf("dim = %d, want <= 200", dim)
	}
	for r := range back {
		if back[r].Label != ds.Instances[r].Label {
			t.Fatalf("row %d label mismatch", r)
		}
		a, b := ds.Instances[r].Features, back[r].Features
		if a.Nnz() != b.Nnz() {
			t.Fatalf("row %d nnz mismatch", r)
		}
		for k := range a.Indices {
			if a.Indices[k] != b.Indices[k] || math.Abs(a.Values[k]-b.Values[k]) > 1e-12 {
				t.Fatalf("row %d features mismatch", r)
			}
		}
	}
}

func TestReadLIBSVMNegativeLabels(t *testing.T) {
	in := "-1 1:0.5 3:1.5\n+1 2:2.0\n"
	insts, dim, err := ReadLIBSVM(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 || insts[0].Label != 0 || insts[1].Label != 1 {
		t.Fatalf("labels wrong: %+v", insts)
	}
	if dim != 3 {
		t.Fatalf("dim = %d, want 3 (1-based shifted)", dim)
	}
	if insts[0].Features.Indices[0] != 0 || insts[0].Features.Indices[1] != 2 {
		t.Fatalf("indices not shifted: %v", insts[0].Features.Indices)
	}
}

func TestReadLIBSVMBadInput(t *testing.T) {
	for _, in := range []string{"x 1:2\n", "1 :3\n", "1 2:\n", "1 a:1\n"} {
		if _, _, err := ReadLIBSVM(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestReadLIBSVMSkipsCommentsAndBlank(t *testing.T) {
	in := "# comment\n\n1 1:1\n"
	insts, _, err := ReadLIBSVM(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 1 {
		t.Fatalf("rows = %d", len(insts))
	}
}

// Property: LIBSVM write→read is the identity on generated datasets.
func TestLIBSVMRoundTripProperty(t *testing.T) {
	f := func(seed uint16, rowsRaw uint8) bool {
		rows := int(rowsRaw%30) + 1
		ds, err := GenerateClassify(ClassifyConfig{Rows: rows, Dim: 100, NnzPerRow: 3, WeightNnz: 10, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if WriteLIBSVM(&buf, ds.Instances) != nil {
			return false
		}
		back, _, err := ReadLIBSVM(&buf)
		if err != nil || len(back) != rows {
			return false
		}
		for r := range back {
			a, b := ds.Instances[r].Features, back[r].Features
			if a.Nnz() != b.Nnz() || back[r].Label != ds.Instances[r].Label {
				return false
			}
			for k := range a.Indices {
				if a.Indices[k] != b.Indices[k] || math.Abs(a.Values[k]-b.Values[k]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBiasedRandomWalksDegeneratesToUniform(t *testing.T) {
	g, _ := GenerateGraph(GraphConfig{Vertices: 150, EdgesPerNode: 3, Seed: 7})
	cfg := DefaultBiasedWalkConfig()
	cfg.ReturnP, cfg.InOutQ = 1, 1
	pairs := BiasedRandomWalks(g, cfg)
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	for _, pr := range pairs {
		if int(pr.U) >= g.Vertices() || int(pr.V) >= g.Vertices() {
			t.Fatalf("pair out of range: %+v", pr)
		}
	}
}

func TestBiasedWalksReturnParameterControlsBacktracking(t *testing.T) {
	// Tiny return cost (p << 1) makes walks bounce back constantly; huge
	// return cost suppresses backtracking. Measure immediate backtrack rate
	// by re-deriving walks through pair structure on a path-ish graph.
	g, _ := GenerateGraph(GraphConfig{Vertices: 400, EdgesPerNode: 2, Seed: 8})
	rate := func(p float64) float64 {
		cfg := DefaultBiasedWalkConfig()
		cfg.ReturnP = p
		cfg.WindowSize = 1 // adjacent pairs only
		cfg.Seed = 5
		pairs := BiasedRandomWalks(g, cfg)
		// With window 1, consecutive pairs (u,v),(v,u) appear for every
		// step; count self-returns via (u,v) where a following (v,u) exists
		// trivially — instead estimate diversity: distinct partners per
		// center.
		partners := map[int32]map[int32]bool{}
		for _, pr := range pairs {
			m, ok := partners[pr.U]
			if !ok {
				m = map[int32]bool{}
				partners[pr.U] = m
			}
			m[pr.V] = true
		}
		var sum float64
		for _, m := range partners {
			sum += float64(len(m))
		}
		return sum / float64(len(partners))
	}
	backtracky := rate(0.01) // loves returning: fewer distinct partners
	exploring := rate(100)   // never returns: more distinct partners
	if exploring <= backtracky {
		t.Fatalf("p did not control exploration: p=0.01 -> %.2f partners, p=100 -> %.2f", backtracky, exploring)
	}
}

func TestDocwordRoundTrip(t *testing.T) {
	cfg := CorpusConfig{Docs: 60, Vocab: 200, MeanDocLen: 25, TrueTopics: 4, Concentrate: 0.1, Seed: 12}
	c, _ := GenerateCorpus(cfg)
	var buf bytes.Buffer
	if err := WriteDocword(&buf, c.Docs, cfg.Vocab); err != nil {
		t.Fatal(err)
	}
	back, vocab, err := ReadDocword(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if vocab != cfg.Vocab || len(back) != len(c.Docs) {
		t.Fatalf("header mismatch: vocab=%d docs=%d", vocab, len(back))
	}
	// Token multisets per document must match (order may differ).
	for d := range back {
		want := map[int32]int{}
		for _, w := range c.Docs[d].Words {
			want[w]++
		}
		got := map[int32]int{}
		for _, w := range back[d].Words {
			got[w]++
		}
		if len(want) != len(got) {
			t.Fatalf("doc %d vocab mismatch", d)
		}
		for w, n := range want {
			if got[w] != n {
				t.Fatalf("doc %d word %d count %d != %d", d, w, got[w], n)
			}
		}
	}
}

func TestReadDocwordValidation(t *testing.T) {
	cases := []string{
		"",                   // missing headers
		"2\n10\n1\n3 1 1\n",  // doc out of range
		"2\n10\n1\n1 11 1\n", // word out of range
		"2\n10\n1\n1 1 0\n",  // zero count
		"2\n10\n1\n1 1\n",    // wrong field count
		"2\n10\n1\nx y z\n",  // non-integers
		"2\n0\n0\n",          // zero vocab
	}
	for _, in := range cases {
		if _, _, err := ReadDocword(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}
