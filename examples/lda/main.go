// LDA topic modelling on PS2 (paper Section 6.3.3): the topic-word count
// matrix lives on the parameter servers as K co-located DCVs; workers
// batch-pull the counts of exactly the words in their partitions
// (compressed), resample with collapsed Gibbs, and push deltas. The corpus
// is generated from a known topic structure, so the example can show the
// sampler recovering it.
//
//	go run ./examples/lda
package main

import (
	"fmt"
	"log"

	ps2 "repro"
	"repro/internal/data"
	"repro/internal/ml/lda"
	"repro/internal/rdd"
)

func main() {
	corpusCfg := data.CorpusConfig{
		Docs: 1200, Vocab: 3000, MeanDocLen: 60, TrueTopics: 10, Concentrate: 0.05, Seed: 4,
	}
	corpus, err := data.GenerateCorpus(corpusCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d docs, %d tokens, vocab %d, %d hidden topics\n",
		len(corpus.Docs), corpus.Tokens, corpusCfg.Vocab, corpusCfg.TrueTopics)

	opt := ps2.DefaultOptions()
	opt.Executors, opt.Servers = 8, 8
	engine := ps2.NewEngine(opt)

	cfg := lda.DefaultConfig()
	cfg.Topics = 10
	cfg.Iterations = 20

	var model *lda.Model
	var tops [][]int
	end := engine.Run(func(p *ps2.Proc) {
		docs := rdd.FromSlices(engine.RDD, data.PartitionDocs(corpus.Docs, engine.RDD.NumExecutors())).Cache()
		m, err := ps2.TrainLDA(p, engine, docs, corpusCfg.Vocab, cfg)
		if err != nil {
			log.Fatal(err)
		}
		model = m
		for k := 0; k < cfg.Topics; k++ {
			top, err := lda.TopWords(p, engine.Driver(), m, k, 8)
			if err != nil {
				log.Fatal(err)
			}
			tops = append(tops, top)
		}
	})

	fmt.Printf("trained %d Gibbs iterations in %.2fs simulated\n", cfg.Iterations, end)
	fmt.Printf("log-likelihood/token: %.4f -> %.4f\n", model.Trace.Values[0], model.Trace.Final())

	// The generator concentrates hidden topic t on the vocabulary region
	// [t*region, (t+1)*region); well-recovered topics have their top words
	// inside one region.
	region := corpusCfg.Vocab / corpusCfg.TrueTopics
	for k, words := range tops {
		counts := map[int]int{}
		for _, w := range words {
			counts[w/region]++
		}
		best, bestRegion := 0, -1
		for r, n := range counts {
			if n > best {
				best, bestRegion = n, r
			}
		}
		fmt.Printf("  topic %2d: top words %v -> %d/8 in hidden topic region %d\n", k, words, best, bestRegion)
	}
}
