// DeepWalk graph embedding on PS2 (paper Section 5.2.2, Figure 6): random
// walks over a synthetic social graph feed skip-gram training where the dot
// products and updates of the 2V co-located embedding vectors run
// server-side. The example then compares edge scores for real neighbours
// against random vertex pairs, and contrasts the DCV path with the pull/push
// baseline on the same workload.
//
//	go run ./examples/deepwalk
package main

import (
	"fmt"
	"log"

	ps2 "repro"
	"repro/internal/data"
	"repro/internal/ml/embedding"
	"repro/internal/rdd"
)

func main() {
	g, err := data.GenerateGraph(data.GraphConfig{Vertices: 1500, EdgesPerNode: 4, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	walks := data.DefaultWalkConfig()
	walks.WalksPerVertex = 2
	pairs := data.RandomWalks(g, walks)
	fmt.Printf("graph: %d vertices, %d edges -> %d skip-gram pairs\n", g.Vertices(), g.Edges(), len(pairs))

	for _, mode := range []embedding.Mode{embedding.ModeDCV, embedding.ModePullPush} {
		opt := ps2.DefaultOptions()
		opt.Servers = 4
		engine := ps2.NewEngine(opt)

		cfg := embedding.DefaultConfig()
		cfg.Mode = mode
		cfg.K = 64
		cfg.Iterations = 10
		cfg.BatchSize = 256
		cfg.LearningRate = 0.3

		var score float64
		var firstLoss, lastLoss float64
		end := engine.Run(func(p *ps2.Proc) {
			prdd := rdd.FromSlices(engine.RDD, data.PartitionPairs(pairs, engine.RDD.NumExecutors())).Cache()
			model, err := ps2.TrainDeepWalk(p, engine, prdd, g.Vertices(), cfg)
			if err != nil {
				log.Fatal(err)
			}
			firstLoss, lastLoss = model.Trace.Values[0], model.Trace.Final()
			if score, err = embedding.EdgeScore(p, engine.Driver(), model, pairs[:300], 5); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("%-13s %.2fs simulated  pair loss %.4f -> %.4f  edge-vs-random score %+.3f\n",
			mode.String()+"-DeepWalk:", end, firstLoss, lastLoss, score)
	}
	fmt.Println("(positive edge score: embeddings rank real neighbours above random pairs)")
}
