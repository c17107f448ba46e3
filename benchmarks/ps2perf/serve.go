package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/wire"
)

// serveSize fixes the tcp-serve-mixed workload: one ps2serve holding a
// 2-row matrix, a reader on one connection issuing sparse pulls on a fixed
// schedule (open loop), and a writer on a second connection pushing deltas
// and, every stepEvery-th push, running the fused step over the whole row.
// The server applies every request under one mutex, so a read that lands
// behind the wide step waits for it: that wait is the tail this workload
// exists to measure.
type serveSize struct {
	cols      int // columns of the matrix
	readCols  int // distinct columns per read, Zipf(1.1) over cols
	pushCols  int // columns per push, uniform over cols
	readRate  int // reads per second
	writeRate int // pushes per second
	stepEvery int
	warmSec   float64 // traffic before the measured window, discarded
	segments  int     // fresh servers per run; samples are pooled
	readPool  int     // distinct reads generated, cycled
	pushPool  int
}

func serveSizeOf(smoke bool) serveSize {
	if smoke {
		return serveSize{cols: 20000, readCols: 64, pushCols: 256, readRate: 5000, writeRate: 200,
			stepEvery: 10, warmSec: 0.05, segments: 1, readPool: 64, pushPool: 8}
	}
	return serveSize{cols: 1000000, readCols: 64, pushCols: 4096, readRate: 5000, writeRate: 200,
		stepEvery: 10, warmSec: 0.5, segments: 5, readPool: 4096, pushPool: 64}
}

const (
	serveMat      = 1
	serveScale    = -0.01 // the step's w += scale·g
	sweepLimitUS  = 10000 // p99 limit of serve.max_rate_ok
	minAchieved   = 0.99  // share of the scheduled rate below which the backlog grows
	lateLimitUS   = 200   // generator lateness above which the read latencies are suspect
	writerSpinGap = 300 * time.Microsecond
)

// serveInputs are the request bodies, generated from the seed before any
// server runs. The server receives only these.
type serveInputs struct {
	reads  [][]int
	pushes [][]int
	vals   []float64
}

// distinctSorted draws n distinct values with draw and returns them sorted.
func distinctSorted(n int, draw func() int) []int {
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		if c := draw(); !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

func makeServeInputs(z serveSize, seed uint64) serveInputs {
	rng := rand.New(rand.NewSource(int64(seed)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(z.cols-1))
	in := serveInputs{vals: make([]float64, z.pushCols)}
	for i := 0; i < z.readPool; i++ {
		// Ranks are scattered over the columns so that the hot ones are not
		// all at the start of the row.
		in.reads = append(in.reads, distinctSorted(z.readCols, func() int {
			return int((zipf.Uint64()*2654435761 + 97) % uint64(z.cols))
		}))
	}
	for i := 0; i < z.pushPool; i++ {
		in.pushes = append(in.pushes, distinctSorted(z.pushCols, func() int { return rng.Intn(z.cols) }))
	}
	for i := range in.vals {
		in.vals[i] = 1e-3 * float64(1+i%7)
	}
	return in
}

// write is one writer operation on the client's timeline: a push and, when
// stepped, the fused step after it.
type write struct {
	due, start, pushEnd, end time.Duration
	stepped                  bool
}

// segment is the traffic against one fresh server.
type segment struct {
	setupSec float64
	readyMS  float64
	// Per measured read, in µs: latency from the due time, service time from
	// the send, and how late the generator sent it for reasons of its own.
	latUS, serviceUS, lateUS  []float64
	readStart, readEnd        []time.Duration // measured reads, when spans are kept
	writes                    []write         // every write, warm-up included
	measuredFrom              time.Duration
	windowSec                 float64 // first measured due time → last measured completion
	reads                     int     // reads issued, warm-up included
	failedReads, failedWrites int
	readerStats, writerStats  wire.ClientStats
	traffic                   wire.ServerStats
	server                    usage
	exactlyOnce               bool
}

// serveSegment starts a server, runs the reader and the writer against it
// for warm-up plus seconds at the given read rate, verifies the server's
// final state and stops it.
func (e *env) serveSegment(z serveSize, in serveInputs, rate int, seconds float64, keepSpans bool, afterLoad func(*cluster) error) (*segment, error) {
	setupStart := time.Now()
	cl, err := e.startCluster(1)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	if err := cl.client.CreateShard(0, serveMat, 2, 0, z.cols); err != nil {
		return nil, err
	}
	before, err := cl.mark()
	if err != nil {
		return nil, err
	}
	reader := newClient(cl.addrs())
	writer := newClient(cl.addrs())
	defer reader.Close()
	defer writer.Close()

	seg := &segment{readyMS: cl.readyMS}
	total := time.Duration((z.warmSec + seconds) * float64(time.Second))
	warm := time.Duration(z.warmSec * float64(time.Second))
	seg.measuredFrom = warm
	nReads := int(total.Seconds() * float64(rate))
	readGap := time.Second / time.Duration(rate)
	writeGap := time.Second / time.Duration(z.writeRate)
	measured := nReads - int(warm/readGap)
	seg.latUS = make([]float64, 0, measured)
	seg.serviceUS = make([]float64, 0, measured)
	seg.lateUS = make([]float64, 0, measured)
	if keepSpans {
		seg.readStart = make([]time.Duration, 0, measured)
		seg.readEnd = make([]time.Duration, 0, measured)
	}
	seg.writes = make([]write, 0, int(total/writeGap)+1)

	base := time.Now()
	now := func() time.Duration { return time.Since(base) }
	// A generator that has fallen this far behind will never catch up.
	giveUp := total + 5*time.Second
	var wg sync.WaitGroup
	var readErr, writeErr error
	var lastEnd time.Duration

	wg.Add(2)
	go func() { // reader: open loop, one connection
		defer wg.Done()
		var buf []float64
		var prevEnd time.Duration
		for i := 0; i < nReads; i++ {
			due := time.Duration(i) * readGap
			// Busy-wait: a timer would oversleep by more than a read takes.
			t := now()
			for t < due {
				t = now()
			}
			if t > giveUp {
				readErr = fmt.Errorf("reader %v behind schedule after %d of %d reads", t-due, i, nReads)
				return
			}
			err := reader.PullSparseInto(0, serveMat, 0, in.reads[i%len(in.reads)], &buf)
			end := now()
			seg.reads++
			if err != nil || len(buf) != z.readCols {
				seg.failedReads++
				readErr = fmt.Errorf("read %d: %d values, %v", i, len(buf), err)
			} else if due >= warm {
				ready := due // when the generator could have sent: due, or once the previous read returned
				if prevEnd > ready {
					ready = prevEnd
				}
				seg.latUS = append(seg.latUS, float64(end-due)/1e3)
				seg.serviceUS = append(seg.serviceUS, float64(end-t)/1e3)
				seg.lateUS = append(seg.lateUS, float64(t-ready)/1e3)
				if keepSpans {
					seg.readStart = append(seg.readStart, t)
					seg.readEnd = append(seg.readEnd, end)
				}
				lastEnd = end
			}
			prevEnd = end
		}
	}()
	go func() { // writer: scheduled, second connection
		defer wg.Done()
		step := []wire.FusedOp{
			{Kind: wire.FAxpy, Dst: 0, Src: 1, Scale: serveScale},
			{Kind: wire.FZero, Row: 1},
		}
		for j := 0; ; j++ {
			due := time.Duration(j) * writeGap
			if due >= total {
				return
			}
			if d := due - writerSpinGap - now(); d > 0 {
				time.Sleep(d)
			}
			t := now()
			for t < due {
				t = now()
			}
			if t > giveUp {
				writeErr = fmt.Errorf("writer %v behind schedule", t-due)
				return
			}
			w := write{due: due, start: t, stepped: (j+1)%z.stepEvery == 0}
			err := writer.PushAdd(0, serveMat, 1, in.pushes[j%len(in.pushes)], in.vals)
			w.pushEnd = now()
			if err == nil && w.stepped {
				err = writer.Fused(0, serveMat, step)
			}
			w.end = now()
			seg.writes = append(seg.writes, w)
			if err != nil {
				seg.failedWrites++
				writeErr = fmt.Errorf("write %d: %w", j, err)
				return
			}
		}
	}()
	seg.setupSec = base.Sub(setupStart).Seconds() + z.warmSec
	wg.Wait()
	if readErr != nil {
		return seg, readErr
	}
	if writeErr != nil {
		return seg, writeErr
	}
	seg.windowSec = (lastEnd - warm).Seconds()
	seg.readerStats, seg.writerStats = reader.Stats(), writer.Stats()
	if seg.traffic, err = cl.trafficSince(before); err != nil {
		return seg, err
	}
	if seg.exactlyOnce, err = verifyServeState(cl.client, z, in, seg.writes); err != nil {
		return seg, err
	}
	if afterLoad != nil {
		if err := afterLoad(cl); err != nil {
			return seg, err
		}
	}
	seg.server = cl.stop()
	return seg, nil
}

// verifyServeState replays the writes on a local copy with the server's own
// kernels and compares both rows with what the server holds: every push and
// step applied exactly once, in order.
func verifyServeState(c *wire.Client, z serveSize, in serveInputs, writes []write) (bool, error) {
	w, g := make([]float64, z.cols), make([]float64, z.cols)
	for j, wr := range writes {
		for i, col := range in.pushes[j%len(in.pushes)] {
			g[col] += in.vals[i]
		}
		if wr.stepped {
			linalg.Axpy(serveScale, g, w)
			linalg.Fill(g, 0)
		}
	}
	for row, want := range [][]float64{w, g} {
		lo, got, err := c.PullRange(0, serveMat, row)
		if err != nil {
			return false, fmt.Errorf("final pull of row %d: %w", row, err)
		}
		if lo != 0 || len(got) != len(want) {
			return false, nil
		}
		for i := range want {
			if got[i] != want[i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// achieved is the share of the scheduled read rate the segment kept up with.
func (s *segment) achieved(rate int) float64 {
	if s.windowSec <= 0 {
		return 0
	}
	return float64(len(s.latUS)) / s.windowSec / float64(rate)
}

func (e *env) runServe(name string, seed uint64, seconds float64, trace bool) (*result, error) {
	z := serveSizeOf(e.smoke)
	in := makeServeInputs(z, seed)
	r := newResult()
	segSec := seconds / float64(z.segments)

	segments := z.segments
	if trace {
		segments = 1 // a traced run takes one untraced segment as its reference
	}
	for i := 0; i < segments; i++ {
		seg, err := e.serveSegment(z, in, z.readRate, segSec, false, nil)
		if seg != nil {
			r.Attempted += seg.reads + len(seg.writes)
			r.Failed += seg.failedReads + seg.failedWrites
		}
		if err != nil {
			r.fail("segment %d: %v", i, err)
			break
		}
		e.checkSegment(r, z, seg, z.readRate, fmt.Sprintf("segment %d", i))
		ops := float64(seg.reads)
		r.sample("setup_s", seg.setupSec)
		r.sample("iters_per_s", float64(len(seg.latUS))/seg.windowSec)
		r.sample("cpu_ms_per_iter", 1e3*seg.server.cpuSec/ops)
		r.sample("wire_kb_per_iter", float64(seg.traffic.BytesIn+seg.traffic.BytesOut)/1e3/ops)
		r.sample("rpcs_per_iter", float64(seg.traffic.Requests)/ops)
		r.sample("peak_rss_mb", seg.server.rssMB)
		r.sample("proc.ps2serve_cpu_ms_per_iter", 1e3*seg.server.cpuSec/ops)
		r.sample("proc.server_ready_ms", seg.readyMS)
		r.sample("op_p50_us", median(seg.latUS))
	}
	if len(r.Samples["setup_s"]) == 0 {
		return r, nil
	}
	r.finish()
	r.Values["build_s"] = e.build
	if trace {
		if err := e.traceServe(r, name, z, in, segSec, r.Values["op_p50_us"]); err != nil {
			r.fail("traced run: %v", err)
		}
	}
	return r, nil
}

// checkSegment applies the checks every segment must pass.
func (e *env) checkSegment(r *result, z serveSize, seg *segment, rate int, what string) {
	if !seg.exactlyOnce {
		r.fail("%s: the rows on the server differ from the pushes and steps applied once each", what)
	}
	if a := seg.achieved(rate); a < minAchieved {
		r.fail("%s: VOID, the reader kept up with %.1f %% of %d reads/s: the backlog grows", what, 100*a, rate)
	}
	if late := quantile(sorted(seg.lateUS), tailOf(len(seg.lateUS))); late > lateLimitUS {
		r.note("%s: the generator itself sent late (tail %.0f µs > %d µs): read latencies include its delay", what, late, lateLimitUS)
	}
}

// traceServe makes the traced run: one segment with spans kept, split into
// reads that overlapped a write and reads that did not, then short segments
// at other rates, then the probes.
func (e *env) traceServe(r *result, name string, z serveSize, in serveInputs, segSec, untracedP50 float64) error {
	probes := func(cl *cluster) error { return probePing(r, cl.client, e.smoke) }
	seg, err := e.serveSegment(z, in, z.readRate, segSec, true, probes)
	if err != nil {
		return err
	}
	e.checkSegment(r, z, seg, z.readRate, "traced segment")

	busy := make([]interval, 0, len(seg.writes))
	var pushUS, stepUS, writeUS []float64
	tr := newTracer()
	for j, w := range seg.writes {
		busy = append(busy, interval{w.start, w.end})
		tr.add("wire.PushAdd", j, 2, w.start, w.pushEnd)
		if w.stepped {
			tr.add("wire.Fused", j, 2, w.pushEnd, w.end)
		}
		if w.due < seg.measuredFrom {
			continue
		}
		pushUS = append(pushUS, float64(w.pushEnd-w.start)/1e3)
		writeUS = append(writeUS, float64(w.end-w.due)/1e3)
		if w.stepped {
			stepUS = append(stepUS, float64(w.end-w.pushEnd)/1e3)
		}
	}
	blocked := overlapsAny(seg.readStart, seg.readEnd, busy)
	var idle, overlap []float64
	for i, b := range blocked {
		tr.add("wire.PullSparseInto", i, 1, seg.readStart[i], seg.readEnd[i])
		if b {
			overlap = append(overlap, seg.latUS[i])
		} else {
			idle = append(idle, seg.latUS[i])
		}
	}
	asc := sorted(seg.latUS)
	r.Values["serve.read_us_p50"] = quantile(asc, 0.5)
	r.Values["serve.read_us_p99"] = quantile(asc, tailOf(len(asc)))
	r.Values["serve.write_us_p50"] = median(writeUS)
	r.Values["serve.read_us_p50_idle"] = median(idle)
	r.Values["serve.read_us_p99_overlap"] = quantile(sorted(overlap), tailOf(len(overlap)))
	r.Values["serve.read_blocked_share"] = float64(len(overlap)) / float64(len(blocked))
	r.Values["wire.rpc.pull_us_p50"] = median(seg.serviceUS)
	r.Values["wire.rpc.push_us_p50"] = median(pushUS)
	r.Values["wire.rpc.step_us_p50"] = median(stepUS)
	lateAsc := sorted(seg.lateUS)
	r.Values["gen.late_us_p99"] = quantile(lateAsc, tailOf(len(lateAsc)))
	r.Values["gen.max_late_us"] = lateAsc[len(lateAsc)-1]
	r.Values["trace.overhead_pct"] = 100 * (r.Values["serve.read_us_p50"] - untracedP50) / untracedP50

	ops := float64(seg.reads)
	calls := seg.readerStats.Calls + seg.writerStats.Calls
	r.Values["wire.server.requests_per_iter"] = float64(seg.traffic.Requests) / ops
	r.Values["wire.server.dedup_hits"] = float64(seg.traffic.DedupHits)
	r.Values["wire.server.kb_in_per_iter"] = float64(seg.traffic.BytesIn) / 1e3 / ops
	r.Values["wire.server.kb_out_per_iter"] = float64(seg.traffic.BytesOut) / 1e3 / ops
	r.Values["wire.client.attempts_per_call"] = float64(seg.readerStats.Attempts+seg.writerStats.Attempts) / float64(calls)
	r.Values["wire.client.timeouts"] = float64(seg.readerStats.Timeouts + seg.writerStats.Timeouts)
	r.Values["wire.client.redials"] = float64(seg.readerStats.Redials + seg.writerStats.Redials)

	// Latency at other rates, and the highest rate that meets the limit
	// without a growing backlog. The scheduled rate's own segment counts.
	maxOK := 0.0
	if r.Values["serve.read_us_p99"] <= sweepLimitUS && seg.achieved(z.readRate) >= minAchieved {
		maxOK = float64(z.readRate)
	}
	for _, rate := range []int{z.readRate / 2, z.readRate * 2, z.readRate * 4} {
		sw, err := e.serveSegment(z, in, rate, segSec, false, nil)
		if err != nil && sw == nil {
			return err
		}
		// Falling behind at a rate above capacity is a finding, not a fault.
		p99 := quantile(sorted(sw.latUS), tailOf(len(sw.latUS)))
		r.Values[fmt.Sprintf("serve.rate_sweep.p99_us.r%d", rate)] = p99
		if err == nil && p99 <= sweepLimitUS && sw.achieved(rate) >= minAchieved && float64(rate) > maxOK {
			maxOK = float64(rate)
		}
	}
	r.Values["serve.max_rate_ok"] = maxOK

	if err := probeCodec(r, z.readCols, e.smoke); err != nil {
		return err
	}
	probeLinalg(r, e.smoke)
	return writeChrome(e.tracePath(name), tr.spans)
}
