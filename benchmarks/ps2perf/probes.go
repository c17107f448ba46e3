package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/linalg"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// probeBudget is how long each timed probe loop runs. The probes give
// per-layer context, not gated numbers, so they are kept short.
func probeBudget(smoke bool) time.Duration {
	if smoke {
		return 5 * time.Millisecond
	}
	return 120 * time.Millisecond
}

// timeOp calls fn repeatedly for about budget and returns the mean time of
// one call in nanoseconds. The first call is a warm-up and is not timed.
func timeOp(budget time.Duration, fn func()) float64 {
	fn()
	calls := 0
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < 8; i++ {
			fn()
		}
		calls += 8
	}
	return float64(time.Since(start)) / float64(calls)
}

// probeLinalg times the dense kernels the servers' fused step is made of, at
// a cache-resident width (4 Ki elements) and a memory-resident one (2 Mi).
func probeLinalg(r *result, smoke bool) {
	budget, wide := probeBudget(smoke), 2<<20
	if smoke {
		wide = 1 << 16
	}
	mk := func(n int) ([]float64, []float64) {
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = float64(i%7)+0.5, float64(i%5)
		}
		return x, y
	}
	x4k, y4k := mk(4 << 10)
	xw, yw := mk(wide)
	r.Values["linalg.axpy_ns_per_elem.w4k"] = timeOp(budget, func() { linalg.Axpy(1e-9, x4k, y4k) }) / float64(len(x4k))
	axpy := timeOp(budget, func() { linalg.Axpy(1e-9, xw, yw) }) / float64(wide)
	r.Values["linalg.axpy_ns_per_elem.w2m"] = axpy
	// Axpy reads x and y and writes y: 24 bytes an element. B/ns is GB/s.
	r.Values["linalg.axpy_gbps.w2m"] = 24 / axpy
	r.Values["linalg.fill_ns_per_elem.w2m"] = timeOp(budget, func() { linalg.Fill(yw, 0) }) / float64(wide)
	var sink float64
	r.Values["linalg.dot_ns_per_elem.w2m"] = timeOp(budget, func() { sink += linalg.Dot(xw, yw) }) / float64(wide)
	_ = sink
}

// probeCodec times the wire codec at the frame size the workload produces:
// cols columns in a push, cols values in a pull response.
func probeCodec(r *result, cols int, smoke bool) error {
	budget := probeBudget(smoke)
	idx := make([]int, cols)
	vals := make([]float64, cols)
	for i := range idx {
		idx[i], vals[i] = 3*i, float64(i)*0.25
	}
	var (
		push, resp []byte
		colsBuf    []int
		valsBuf    []float64
		frameBuf   []byte
		wbuf       bytes.Buffer
		rd         bytes.Reader
		f          wire.Frame
		err        error
	)
	encode := func() { push = wire.AppendPushAdd(push[:0], 1, 1, idx, vals) }
	decode := func() {
		if _, _, _, _, e := wire.DecodePushAddInto(push, &colsBuf, &valsBuf); e != nil {
			err = e
		}
	}
	resp = wire.AppendVals(resp, vals)
	decodeVals := func() {
		if _, e := wire.DecodeValsInto(resp, &valsBuf); e != nil {
			err = e
		}
	}
	frame := func() {
		wbuf.Reset()
		if e := wire.WriteFrame(&wbuf, wire.Frame{Op: wire.OpPushAdd, Flags: wire.FlagMutates, ReqID: 7, Payload: push}); e != nil {
			err = e
		}
		rd.Reset(wbuf.Bytes())
		if e := wire.ReadFrameReuse(&rd, &f, &frameBuf); e != nil {
			err = e
		}
	}
	r.Values["wire.codec.pushadd_enc_ns_per_col"] = timeOp(budget, encode) / float64(cols)
	r.Values["wire.codec.pushadd_dec_ns_per_col"] = timeOp(budget, decode) / float64(cols)
	r.Values["wire.codec.pullresp_dec_ns_per_val"] = timeOp(budget, decodeVals) / float64(cols)
	r.Values["wire.codec.frame_rw_ns"] = timeOp(budget, frame)

	// Heap allocations of one warm encode → frame → decode cycle; the codec's
	// contract is none.
	const cycles = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		encode()
		frame()
		decode()
		decodeVals()
	}
	runtime.ReadMemStats(&after)
	r.Values["wire.codec.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / cycles
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	return nil
}

// probePing times small round trips against a live server: the floor under
// every RPC of the TCP workloads.
func probePing(r *result, c *wire.Client, smoke bool) error {
	n := 5000
	if smoke {
		n = 200
	}
	payload := make([]byte, 8)
	lat := make([]float64, 0, n)
	for i := 0; i < n+100; i++ {
		start := time.Now()
		if _, err := c.Ping(0, payload); err != nil {
			return fmt.Errorf("ping probe: %w", err)
		}
		if i >= 100 { // the first hundred warm the connection up
			lat = append(lat, float64(time.Since(start))/1e3)
		}
	}
	asc := sorted(lat)
	r.Values["wire.rpc.ping_us_p50"] = quantile(asc, 0.5)
	r.Values["wire.rpc.ping_us_p99"] = quantile(asc, tailOf(len(asc)))
	return nil
}

// tailOf is the tail percentile the benchmark reports for n samples: p99, or
// lower when p99 would have fewer than ten samples beyond it.
func tailOf(n int) float64 {
	if q := highestPercentile(n); q < 0.99 {
		return q
	}
	return 0.99
}

// probeSimnetKernel times the simulation kernel alone through its public
// API: half the processes sleep in a loop, the other half play ping-pong
// over mailboxes, so both the timer queue and the wake-up path are used and
// no model code runs.
func probeSimnetKernel(r *result, smoke bool) {
	procs, rounds := 64, 4000
	if smoke {
		procs, rounds = 8, 200
	}
	s := simnet.New()
	for i := 0; i < procs/2; i++ {
		s.Spawn(fmt.Sprintf("sleeper-%d", i), func(p *simnet.Proc) {
			for k := 0; k < rounds; k++ {
				p.Sleep(1e-6)
			}
		})
	}
	for i := 0; i < procs/4; i++ {
		ping, pong := s.NewMailbox(), s.NewMailbox()
		s.Spawn(fmt.Sprintf("ping-%d", i), func(p *simnet.Proc) {
			for k := 0; k < rounds; k++ {
				ping.Put(k)
				pong.Get(p)
			}
		})
		s.Spawn(fmt.Sprintf("pong-%d", i), func(p *simnet.Proc) {
			for k := 0; k < rounds; k++ {
				ping.Get(p)
				pong.Put(k)
			}
		})
	}
	start := time.Now()
	s.Run()
	r.Values["simnet.kernel_events_per_s"] = float64(s.EventsProcessed()) / time.Since(start).Seconds()
}
