package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/ml/lr"
	"repro/internal/ps"
	"repro/internal/wire"
)

// lrSize fixes one TCP training workload: what ps2worker is asked to do in
// one repetition.
type lrSize struct {
	servers, iters, batch, rows, dim, nnz int
	compareIters                          int // length of the simnet cross-check run
}

// The sizes are frozen: later changes are compared on them. The sparse
// workload spends its iteration in the worker (index sets, gradient, codec,
// small RPCs); the dense one spends it in the server's fused step over a
// 4 M-wide shard, so a change to one side shows on one workload only.
func lrSizeOf(name string, smoke bool) lrSize {
	switch {
	case name == "tcp-lr-sparse" && !smoke:
		return lrSize{servers: 2, iters: 1500, batch: 256, rows: 20000, dim: 50000, nnz: 16, compareIters: 50}
	case name == "tcp-lr-sparse":
		return lrSize{servers: 2, iters: 20, batch: 64, rows: 1000, dim: 5000, nnz: 16, compareIters: 5}
	case !smoke:
		return lrSize{servers: 1, iters: 400, batch: 64, rows: 5000, dim: 4000000, nnz: 8, compareIters: 50}
	}
	return lrSize{servers: 1, iters: 10, batch: 64, rows: 500, dim: 40000, nnz: 8, compareIters: 5}
}

const (
	lrMat        = 1 // ps2worker's matrix id
	lrRowWeight  = 0
	lrRowGrad    = 1
	lrLearnRate  = 0.5 // ps2worker's -rate default
	lossTol      = 1e-6
	attributeTol = 0.05
)

// datasetConfig is the dataset cmd/ps2worker generates for these flags.
func (z lrSize) datasetConfig(seed uint64) data.ClassifyConfig {
	return data.ClassifyConfig{
		Rows: z.rows, Dim: z.dim, NnzPerRow: z.nnz,
		Skew: 1.0, NoiseRate: 0.02, WeightNnz: z.dim / 10, Seed: seed,
	}
}

func (z lrSize) workerArgs(addrs []string, seed uint64, iters int, extra ...string) []string {
	args := []string{
		"-servers", strings.Join(addrs, ","),
		"-iters", strconv.Itoa(iters), "-batch", strconv.Itoa(z.batch),
		"-rows", strconv.Itoa(z.rows), "-dim", strconv.Itoa(z.dim), "-nnz", strconv.Itoa(z.nnz),
		"-seed", strconv.FormatUint(seed, 10),
	}
	return append(args, extra...)
}

// lrSetup is a repetition up to its first timed operation: fresh servers
// with the shards created, and the dataset the benchmark verifies against.
// Servers are fresh for every repetition because CreateShard is idempotent
// and ps2serve keeps matrix 1: a second ps2worker against the same servers
// would go on training the first one's weights.
type lrSetup struct {
	cl       *cluster
	ds       *data.ClassifyDataset
	pt       *ps.Partitioner
	setupSec float64
	genSec   float64
	before   counterMark
}

func (e *env) setupLR(z lrSize, seed uint64) (su *lrSetup, err error) {
	start := time.Now()
	cl, err := e.startCluster(z.servers)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			cl.stop()
		}
	}()
	su = &lrSetup{cl: cl}
	if su.pt, err = ps.NewPartitioner(z.dim, z.servers); err != nil {
		return nil, err
	}
	for s := 0; s < z.servers; s++ {
		lo, hi := su.pt.Range(s)
		if err = cl.client.CreateShard(s, lrMat, 2, lo, hi); err != nil {
			return nil, fmt.Errorf("create shard on server %d: %w", s, err)
		}
	}
	genStart := time.Now()
	if su.ds, err = data.GenerateClassify(z.datasetConfig(seed)); err != nil {
		return nil, err
	}
	su.genSec = time.Since(genStart).Seconds()
	if su.before, err = cl.mark(); err != nil {
		return nil, err
	}
	su.setupSec = time.Since(start).Seconds()
	return su, nil
}

// lrOutcome is what the servers saw and hold after a training run.
type lrOutcome struct {
	traffic wire.ServerStats // what the servers counted since set-up
	loss    float64          // full-dataset loss of the weights on the servers
}

// outcome reads the servers' counters, pulls the weights they hold and
// computes the loss from them.
func (su *lrSetup) outcome() (lrOutcome, error) {
	var out lrOutcome
	var err error
	if out.traffic, err = su.cl.trafficSince(su.before); err != nil {
		return out, err
	}
	w := make([]float64, su.pt.Dim)
	for s := 0; s < su.pt.Servers; s++ {
		lo, vals, err := su.cl.client.PullRange(s, lrMat, lrRowWeight)
		if err != nil {
			return out, fmt.Errorf("verification pull from server %d: %w", s, err)
		}
		copy(w[lo:], vals)
	}
	out.loss = lr.EvalLoss(lr.Logistic, su.ds.Instances, w)
	return out, nil
}

// lrRep is one untraced repetition: ps2worker against fresh servers.
type lrRep struct {
	setup   *lrSetup
	worker  *workerRun
	outcome lrOutcome
	servers usage
}

func (e *env) runLRRep(z lrSize, seed uint64) (*lrRep, error) {
	su, err := e.setupLR(z, seed)
	if err != nil {
		return nil, err
	}
	w, err := e.runWorker(z.workerArgs(su.cl.addrs(), seed, z.iters)...)
	if err != nil {
		su.cl.stop()
		return nil, err
	}
	out, err := su.outcome()
	servers := su.cl.stop()
	if err != nil {
		return nil, err
	}
	return &lrRep{setup: su, worker: w, outcome: out, servers: servers}, nil
}

// compareSimnet runs the product's own acceptance gate once: a short
// ps2worker run replayed on the simulated cluster must give the same loss
// trajectory.
func (e *env) compareSimnet(z lrSize, seed uint64) error {
	cl, err := e.startCluster(z.servers)
	if err != nil {
		return err
	}
	defer cl.stop()
	_, err = e.runWorker(z.workerArgs(cl.addrs(), seed, z.compareIters, "-compare-simnet")...)
	return err
}

// runTCPLR runs one of the tcp-lr workloads: repetitions of ps2worker until
// the time is used, or with trace set one reference repetition and the
// traced replica of ps2worker's loop.
func (e *env) runTCPLR(name string, seed uint64, seconds float64, trace bool) (*result, error) {
	z := lrSizeOf(name, e.smoke)
	r := newResult()
	if err := e.compareSimnet(z, seed); err != nil {
		r.fail("simnet cross-check: %v", err)
	}
	var first *lrRep
	begin := time.Now()
	for rep := 0; rep < minReps(e.smoke, trace) || time.Since(begin).Seconds() < seconds; rep++ {
		lp, err := e.runLRRep(z, seed)
		r.Attempted += z.iters
		if err != nil {
			// A dead worker or server fails every iteration of the repetition.
			r.Failed += z.iters
			r.fail("repetition %d: %v", rep, err)
			break
		}
		r.Failed += lp.worker.timeouts + lp.worker.attempts - lp.worker.calls
		iters := float64(z.iters)
		r.sample("setup_s", lp.setup.setupSec)
		r.sample("iters_per_s", iters/lp.worker.wallSec)
		r.sample("op_p50_us", 1e6*lp.worker.wallSec/iters)
		r.sample("cpu_ms_per_iter", 1e3*(lp.worker.usage.cpuSec+lp.servers.cpuSec)/iters)
		r.sample("wire_kb_per_iter", float64(lp.outcome.traffic.BytesIn+lp.outcome.traffic.BytesOut)/1e3/iters)
		r.sample("rpcs_per_iter", float64(lp.outcome.traffic.Requests)/iters)
		r.sample("peak_rss_mb", lp.worker.usage.rssMB+lp.servers.rssMB)
		r.sample("proc.ps2worker_cpu_ms_per_iter", 1e3*lp.worker.usage.cpuSec/iters)
		r.sample("proc.ps2serve_cpu_ms_per_iter", 1e3*lp.servers.cpuSec/iters)
		r.sample("proc.server_ready_ms", lp.setup.cl.readyMS)
		r.sample("data.generate_s", lp.setup.genSec)

		if d := math.Abs(lp.worker.finalLoss - lp.outcome.loss); d > lossTol {
			r.fail("repetition %d: ps2worker reports loss %.6f, the weights on the servers give %.9f", rep, lp.worker.finalLoss, lp.outcome.loss)
		}
		if first == nil {
			first = lp
		} else if lp.outcome.loss != first.outcome.loss || lp.outcome.traffic != first.outcome.traffic {
			r.fail("repetition %d differs from repetition 0 on the same inputs: loss %v vs %v, traffic %+v vs %+v",
				rep, lp.outcome.loss, first.outcome.loss, lp.outcome.traffic, first.outcome.traffic)
		}
		if trace {
			break
		}
	}
	if first == nil {
		return r, nil
	}
	r.finish()
	r.Values["lr.final_loss"] = first.outcome.loss
	r.Values["build_s"] = e.build
	if trace {
		if err := e.traceTCPLR(r, name, z, seed, first); err != nil {
			r.fail("traced run: %v", err)
		}
	}
	return r, nil
}

// minReps is the least number of repetitions a run makes however short its
// time: a median needs three; the smoke test and a traced run need one.
func minReps(smoke, trace bool) int {
	if smoke || trace {
		return 1
	}
	return 3
}

// batchRNG is the generator internal/wire/lr.go draws its batches from,
// repeated here so the replica sees the same batches as ps2worker.
type batchRNG struct{ s uint64 }

func (r *batchRNG) intn(n int) int {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

// eachServer runs fn for every server at once, as ps2worker's loop does, and
// returns the first error.
func eachServer(n int, fn func(s int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = fn(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitVals cuts vals, which lie beside sorted columns, into the runs that
// pt.SplitIndices cut the columns into.
func splitVals(perCols [][]int, vals []float64) [][]float64 {
	perVals := make([][]float64, len(perCols))
	for s, cols := range perCols {
		perVals[s], vals = vals[:len(cols)], vals[len(cols):]
	}
	return perVals
}

// replicaLR is ps2worker's training run written over the same public
// operators, with a span around each call. It must issue the same requests
// as ps2worker: the caller checks the servers' counters and the loss.
func replicaLR(tr *tracer, addrs []string, z lrSize, seed uint64) (cst wire.ClientStats, colsPerFrame int, err error) {
	root := tr.begin("ps2worker-replica", 0, -1, 0)
	defer tr.end(root)
	// call times one public function as a child of parent.
	call := func(name string, parent, req, lane int, fn func() error) error {
		id := tr.begin(name, parent, req, lane)
		err := fn()
		tr.end(id)
		return err
	}
	c := newClient(addrs)
	defer c.Close()

	var ds *data.ClassifyDataset
	if err := call("data.GenerateClassify", root, -1, 0, func() (err error) {
		ds, err = data.GenerateClassify(z.datasetConfig(seed))
		return err
	}); err != nil {
		return cst, 0, err
	}
	pt, err := ps.NewPartitioner(z.dim, len(addrs))
	if err != nil {
		return cst, 0, err
	}
	n := len(addrs)
	if err := eachServer(n, func(s int) error {
		lo, hi := pt.Range(s)
		return call("wire.CreateShard", root, -1, s+1, func() error { return c.CreateShard(s, lrMat, 2, lo, hi) })
	}); err != nil {
		return cst, 0, err
	}

	rng := batchRNG{s: seed}
	batch := make([]data.Instance, z.batch)
	pullBufs := make([][]float64, n)
	pushCols := 0
	for it := 0; it < z.iters; it++ {
		iter := tr.begin("iteration", root, it, 0)
		for i := range batch {
			batch[i] = ds.Instances[rng.intn(len(ds.Instances))]
		}
		var idx []int
		call("lr.DistinctIndices", iter, it, 0, func() error { idx = lr.DistinctIndices(batch); return nil })
		perCols := pt.SplitIndices(idx)
		if err := eachServer(n, func(s int) error {
			if len(perCols[s]) == 0 {
				return nil
			}
			return call("wire.PullSparseInto", iter, it, s+1, func() error {
				return c.PullSparseInto(s, lrMat, lrRowWeight, perCols[s], &pullBufs[s])
			})
		}); err != nil {
			return cst, 0, fmt.Errorf("iteration %d pull: %w", it, err)
		}
		w := make(map[int]float64, len(idx))
		for s, sc := range perCols {
			for i, col := range sc {
				w[col] = pullBufs[s][i]
			}
		}
		var grad map[int]float64
		call("lr.BatchGradient", iter, it, 0, func() error {
			grad, _ = lr.BatchGradient(lr.Logistic, batch, func(i int) float64 { return w[i] })
			return nil
		})
		cols := make([]int, 0, len(grad))
		for col := range grad {
			cols = append(cols, col)
		}
		sort.Ints(cols)
		vals := make([]float64, len(cols))
		for i, col := range cols {
			vals[i] = grad[col]
		}
		pushCols += len(cols)
		perCols = pt.SplitIndices(cols)
		perVals := splitVals(perCols, vals)
		if err := eachServer(n, func(s int) error {
			if len(perCols[s]) == 0 {
				return nil
			}
			return call("wire.PushAdd", iter, it, s+1, func() error {
				return c.PushAdd(s, lrMat, lrRowGrad, perCols[s], perVals[s])
			})
		}); err != nil {
			return cst, 0, fmt.Errorf("iteration %d push: %w", it, err)
		}
		step := []wire.FusedOp{
			{Kind: wire.FAxpy, Dst: lrRowWeight, Src: lrRowGrad, Scale: -lrLearnRate / float64(len(batch))},
			{Kind: wire.FZero, Row: lrRowGrad},
		}
		if err := eachServer(n, func(s int) error {
			return call("wire.Fused", iter, it, s+1, func() error { return c.Fused(s, lrMat, step) })
		}); err != nil {
			return cst, 0, fmt.Errorf("iteration %d step: %w", it, err)
		}
		tr.end(iter)
	}

	weights := make([]float64, z.dim)
	if err := eachServer(n, func(s int) error {
		return call("wire.PullRange", root, -1, s+1, func() error {
			lo, vals, err := c.PullRange(s, lrMat, lrRowWeight)
			copy(weights[lo:], vals)
			return err
		})
	}); err != nil {
		return cst, 0, fmt.Errorf("final pull: %w", err)
	}
	call("lr.EvalLoss", root, -1, 0, func() error { lr.EvalLoss(lr.Logistic, ds.Instances, weights); return nil })
	return c.Stats(), pushCols / (z.iters * n), nil
}

// traceTCPLR makes the traced run: the replica of ps2worker's loop against
// fresh servers, checked against the untraced repetition ref, then the probes
// of the layers the workload runs through.
func (e *env) traceTCPLR(r *result, name string, z lrSize, seed uint64, ref *lrRep) error {
	su, err := e.setupLR(z, seed)
	if err != nil {
		return err
	}
	defer su.cl.stop()
	tr := newTracer()
	cst, colsPerFrame, err := replicaLR(tr, su.cl.addrs(), z, seed)
	if err != nil {
		return err
	}
	out, err := su.outcome()
	if err != nil {
		return err
	}
	// The ping probe needs a live server; the replica's are idle now.
	if err := probePing(r, su.cl.client, e.smoke); err != nil {
		return err
	}
	su.cl.stop()
	// The machine's speed drifts by several per cent within a minute, so the
	// replica is compared with ps2worker just before and just after it. A
	// one-iteration run gives what a ps2worker process costs besides its
	// loop: start, dataset, shards, final pull, loss, exit.
	after, err := e.runLRRep(z, seed)
	if err != nil {
		return err
	}
	one := z
	one.iters = 1
	fixed, err := e.runLRRep(one, seed)
	if err != nil {
		return err
	}

	// The replica did ps2worker's work if the servers saw the same requests
	// and bytes and hold weights with the same loss.
	if out.traffic != ref.outcome.traffic {
		r.fail("the traced replica's traffic %+v differs from ps2worker's %+v", out.traffic, ref.outcome.traffic)
	}
	if math.Abs(out.loss-ref.outcome.loss) > lossTol {
		r.fail("the traced replica's loss %.9f differs from ps2worker's %.9f", out.loss, ref.outcome.loss)
	}

	iters := float64(z.iters)
	self := selfTimes(tr.spans)
	usPerIter := func(d time.Duration) float64 { return float64(d) / 1e3 / iters }
	var loop time.Duration // the replica's iterations, its fixed costs left out
	for _, sp := range tr.spans {
		if sp.Name == "iteration" {
			loop += sp.dur()
		}
	}
	tracedUS := usPerIter(loop)
	untracedUS := 1e6 * ((ref.worker.wallSec+after.worker.wallSec)/2 - fixed.worker.wallSec) / (iters - 1)
	// Calls to different servers run side by side, so the time the public
	// calls account for is the part of the iterations they cover, not their
	// sum: what is left of an iteration is the replica's own glue.
	glue := self["iteration"]
	calls := loop - glue
	r.Values["lr.distinct_us_per_batch"] = usPerIter(self["lr.DistinctIndices"])
	r.Values["lr.gradient_us_per_batch"] = usPerIter(self["lr.BatchGradient"])
	r.Values["wire.rpc.pull_us_p50"] = median(durationsUS(tr.spans, "wire.PullSparseInto"))
	r.Values["wire.rpc.push_us_p50"] = median(durationsUS(tr.spans, "wire.PushAdd"))
	r.Values["wire.rpc.step_us_p50"] = median(durationsUS(tr.spans, "wire.Fused"))
	r.Values["wire.rpc.step_share_pct"] = 100 * usPerIter(coverage(tr.spans, "wire.Fused")) / tracedUS
	// What ps2worker's private loop costs beyond the public calls: its
	// untraced iteration time less the time the traced calls cover.
	r.Values["worker.glue_us_per_iter"] = untracedUS - usPerIter(calls)
	r.Values["proc.ps2worker_fixed_ms"] = 1e3 * fixed.worker.wallSec
	r.Values["trace.overhead_pct"] = 100 * (tracedUS - untracedUS) / untracedUS
	if gap := math.Abs(tracedUS-untracedUS) / untracedUS; gap > attributeTol {
		r.note("UNATTRIBUTED: traced calls %.1f µs + replica glue %.1f µs = %.1f µs an iteration, ps2worker's loop takes %.1f µs untraced (gap %.1f %%)",
			usPerIter(calls), usPerIter(glue), tracedUS, untracedUS, 100*gap)
	}

	r.Values["wire.server.requests_per_iter"] = float64(out.traffic.Requests) / iters
	r.Values["wire.server.dedup_hits"] = float64(out.traffic.DedupHits)
	r.Values["wire.server.kb_in_per_iter"] = float64(out.traffic.BytesIn) / 1e3 / iters
	r.Values["wire.server.kb_out_per_iter"] = float64(out.traffic.BytesOut) / 1e3 / iters
	r.Values["wire.client.attempts_per_call"] = float64(cst.Attempts) / float64(cst.Calls)
	r.Values["wire.client.timeouts"] = float64(cst.Timeouts)
	r.Values["wire.client.redials"] = float64(cst.Redials)

	if err := probeCodec(r, colsPerFrame, e.smoke); err != nil {
		return err
	}
	probeLinalg(r, e.smoke)
	return writeChrome(e.tracePath(name), tr.spans)
}
