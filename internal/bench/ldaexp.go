package bench

import (
	"errors"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml/lda"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

func init() {
	register("fig12a", "LDA on PubMED-like: PS2 vs Petuum vs Glint", runFig12a)
	register("fig12b", "LDA on PubMED-like, small K: PS2 vs Spark MLlib", runFig12b)
	register("fig12c", "LDA on APP-like: PS2 only (others cannot handle it)", runFig12c)
}

func pubmedCorpus(o Opts) *data.Corpus {
	cfg := data.PubMEDLike()
	if o.Quick {
		cfg.Docs, cfg.Vocab, cfg.MeanDocLen = 800, 1500, 50
	}
	c, err := data.GenerateCorpus(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func docsRDD(e *core.Engine, c *data.Corpus) *rdd.RDD[data.Document] {
	return rdd.FromSlices(e.RDD, data.PartitionDocs(c.Docs, e.RDD.NumExecutors())).Cache()
}

// runLDA trains cfg on corpus c with strategy s on a fresh paper engine and
// returns its trace, named, and the run's virtual end time.
func runLDA(name string, workers, servers int, c *data.Corpus, cfg lda.Config, s lda.Strategy) (*core.Trace, float64) {
	e := paperEngine(workers, servers)
	var tr *core.Trace
	end := e.Run(func(p *simnet.Proc) {
		var err error
		if tr, err = lda.Run(p, e, docsRDD(e, c), c.Config.Vocab, cfg, s); err != nil {
			panic(err)
		}
	})
	tr.Name = name
	return tr, end
}

// ldaConfig is Table 4's LDA configuration at the given scale; every system
// of a figure trains the same one.
func ldaConfig(topics, iters int) lda.Config {
	cfg := lda.DefaultConfig()
	cfg.Topics, cfg.Iterations = topics, iters
	return cfg
}

func runFig12a(o Opts) *Result {
	c := pubmedCorpus(o)
	topics := 50 // paper: 1000, scaled with the corpus
	iters := 10
	workers := 20
	if o.Quick {
		topics, iters, workers = 20, 5, 8
	}
	cfg := ldaConfig(topics, iters)
	ps2, ps2Time := runLDA("PS2", workers, workers, c, cfg, lda.PS2())
	petuum, petuumTime := runLDA("Petuum", workers, workers, c, cfg, baselines.PetuumLDA())
	glint, glintTime := runLDA("Glint", workers, workers, c, cfg, baselines.GlintLDA())

	r := &Result{ID: "fig12a",
		Title:  fmt.Sprintf("LDA, K=%d, %d Gibbs iterations, %d docs x vocab %d", topics, iters, len(c.Docs), c.Config.Vocab),
		Header: []string{"system", "time (s)", "final loglik/token", "PS2 speedup"}}
	r.AddRow("PS2", ps2Time, ps2.Final(), fmtSpeed(1.0))
	r.AddRow("Petuum", petuumTime, petuum.Final(), fmtSpeed(petuumTime/ps2Time))
	r.AddRow("Glint", glintTime, glint.Final(), fmtSpeed(glintTime/ps2Time))
	r.Traces = []*core.Trace{ps2, petuum, glint}
	r.Note("paper: 386s (PS2) vs 1440s (Petuum, 3.7x) vs 3500s (Glint, 9x) to converge")
	return r
}

func runFig12b(o Opts) *Result {
	c := pubmedCorpus(o)
	topics := 20 // paper uses K=100 because MLlib cannot go higher; scaled
	iters := 8
	workers := 20
	if o.Quick {
		topics, iters, workers = 10, 4, 8
	}
	cfg := ldaConfig(topics, iters)
	ps2, ps2Time := runLDA("PS2", workers, workers, c, cfg, lda.PS2())
	mllib, mllibTime := runLDA("MLlib", workers, 0, c, cfg, baselines.MLlibLDA())

	r := &Result{ID: "fig12b",
		Title:  fmt.Sprintf("LDA, K=%d (MLlib's ceiling), %d iterations", topics, iters),
		Header: []string{"system", "time (s)", "final loglik/token", "PS2 speedup"}}
	r.AddRow("PS2", ps2Time, ps2.Final(), fmtSpeed(1.0))
	r.AddRow("MLlib", mllibTime, mllib.Final(), fmtSpeed(mllibTime/ps2Time))
	r.Traces = []*core.Trace{ps2, mllib}
	r.Note("paper: PS2 17x faster than Spark MLlib at K=100; MLlib OOMs beyond that")

	// Demonstrate the ceiling: MLlib at the PS2-scale topic count must OOM.
	eOOM := paperEngine(workers, 0)
	eOOM.Run(func(p *simnet.Proc) {
		_, err := lda.Run(p, eOOM, docsRDD(eOOM, c), c.Config.Vocab, ldaConfig(100_000, 1), baselines.MLlibLDA())
		if errors.Is(err, baselines.ErrOOM) {
			r.Note("MLlib at large K: %v (as in the paper)", err)
		} else {
			r.Note("UNEXPECTED: MLlib at large K did not OOM")
		}
	})
	return r
}

func runFig12c(o Opts) *Result {
	cfg := data.AppLike()
	topics := 80
	iters := 6
	workers := 20
	if o.Quick {
		cfg.Docs, cfg.Vocab, cfg.MeanDocLen = 1500, 2500, 60
		topics, iters, workers = 20, 3, 8
	}
	c, err := data.GenerateCorpus(cfg)
	if err != nil {
		panic(err)
	}
	tr, end := runLDA("PS2-LDA", workers, workers, c, ldaConfig(topics, iters), lda.PS2())
	r := &Result{ID: "fig12c",
		Title:  fmt.Sprintf("LDA on APP-like (%d docs, vocab %d, K=%d) — PS2 only", len(c.Docs), c.Config.Vocab, topics),
		Header: []string{"system", "time (s)", "first loglik", "final loglik"}}
	r.AddRow("PS2", end, tr.Values[0], tr.Final())
	r.Traces = []*core.Trace{tr}
	r.Note("paper: only PS2 completes the APP corpus (2.3B docs); baselines cannot handle it")
	return r
}
