package bench

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/linalg"
	"repro/internal/wire"
)

func init() {
	register("ext-hotpath", "Extension: hot-path allocation trajectory — per-op fresh buffers vs arena/into reuse on the pull/push wire path", runExtHotpath)
}

// runExtHotpath records the steady-state allocation cost of the RPC hot path
// before and after the buffer-reuse pass. Every "legacy" arm re-creates the
// buffers each operation — exactly what the codec and frame reader did before
// the append/into API existed — while the "reuse" arm threads
// connection-scoped buffers through the same calls, the way Server.serveConn
// and Client.callDecode now do.
//
// Alloc counts come from testing.AllocsPerRun over pool-free code, so they
// are exact and machine-independent: the table is deterministic and belongs
// in the JSON snapshot (unlike wall-clock throughput, which lives in the
// `go test -bench` benchmarks and the CI bench-smoke step). The zero cells
// are not aspirational formatting — internal/wire/alloc_test.go and
// internal/linalg's kernel tests assert the same paths allocate exactly
// nothing, so a regression fails the suite before it can reach this table.
func runExtHotpath(o Opts) *Result {
	r := &Result{ID: "ext-hotpath",
		Title:  "Hot-path allocations: per-op buffers (legacy) vs connection-scoped reuse",
		Header: []string{"path", "payload", "legacy allocs/op", "reuse allocs/op", "reduction"},
	}

	nCols := 128
	if o.Quick {
		nCols = 64
	}
	cols := make([]int, nCols)
	vals := make([]float64, nCols)
	for i := range cols {
		cols[i] = i * 3
		vals[i] = float64(i) * 0.25
	}

	addArm := func(path, payload string, legacy, reuse func()) {
		la := testing.AllocsPerRun(200, legacy)
		ra := testing.AllocsPerRun(200, reuse)
		red := "n/a"
		if la > 0 {
			red = fmt.Sprintf("%.0f%%", 100*(1-ra/la))
		}
		r.AddRow(path, payload, la, ra, red)
	}

	// Push-add encode: the client-side half of every combined gradient flush.
	encBuf := wire.AppendPushAdd(nil, 1, 7, cols, vals)
	addArm("push-add encode", fmt.Sprintf("%d nnz", nCols),
		func() { _ = wire.AppendPushAdd(nil, 1, 7, cols, vals) },
		func() { encBuf = wire.AppendPushAdd(encBuf[:0], 1, 7, cols, vals) })

	// Push-add decode: the server-side half, into per-connection scratch.
	pushPayload := wire.AppendPushAdd(nil, 1, 7, cols, vals)
	var dcols []int
	var dvals []float64
	addArm("push-add decode", fmt.Sprintf("%d nnz", nCols),
		func() {
			var fc []int
			var fv []float64
			if _, _, _, _, err := wire.DecodePushAddInto(pushPayload, &fc, &fv); err != nil {
				panic(err)
			}
		},
		func() {
			if _, _, _, _, err := wire.DecodePushAddInto(pushPayload, &dcols, &dvals); err != nil {
				panic(err)
			}
		})

	// Pull response decode: what every sparse pull pays to assemble values.
	valsPayload := wire.AppendVals(nil, vals)
	var pvals []float64
	addArm("pull-resp decode", fmt.Sprintf("%d floats", nCols),
		func() {
			var fv []float64
			if _, err := wire.DecodeValsInto(valsPayload, &fv); err != nil {
				panic(err)
			}
		},
		func() {
			if _, err := wire.DecodeValsInto(valsPayload, &pvals); err != nil {
				panic(err)
			}
		})

	// Frame read: one buffered request crossing the TCP seam. A nil buffer
	// makes the reader allocate a fresh payload per frame; the reuse form is
	// what serveConn holds per connection.
	var frameBuf bytes.Buffer
	if err := wire.WriteFrame(&frameBuf, wire.Frame{Op: wire.OpPushAdd, ReqID: 42, Payload: pushPayload}); err != nil {
		panic(err)
	}
	frameBytes := frameBuf.Bytes()
	rd := bytes.NewReader(frameBytes)
	var fr wire.Frame
	var rbuf []byte
	addArm("frame decode", fmt.Sprintf("%d B", len(frameBytes)),
		func() {
			rd.Reset(frameBytes)
			var f wire.Frame
			if err := wire.ReadFrameReuse(rd, &f, nil); err != nil {
				panic(err)
			}
		},
		func() {
			rd.Reset(frameBytes)
			if err := wire.ReadFrameReuse(rd, &fr, &rbuf); err != nil {
				panic(err)
			}
		})

	// Fused program decode: the k-op batch request of the DCV path.
	prog := make([]wire.FusedOp, 8)
	for i := range prog {
		prog[i] = wire.FusedOp{Kind: wire.FAxpy, Dst: i, Src: i + 1, Scale: 0.5}
	}
	fusedPayload := wire.AppendFused(nil, 1, prog)
	var opsBuf []wire.FusedOp
	addArm("fused decode", fmt.Sprintf("%d ops", len(prog)),
		func() {
			var fo []wire.FusedOp
			if _, _, err := wire.DecodeFusedInto(fusedPayload, &fo); err != nil {
				panic(err)
			}
		},
		func() {
			if _, _, err := wire.DecodeFusedInto(fusedPayload, &opsBuf); err != nil {
				panic(err)
			}
		})

	// Sparse-vector build: gradient assembly sorts its indices anyway, so the
	// already-sorted fast path skips the pair-sort machinery entirely.
	shuffled := make([]int, nCols)
	for i := range shuffled {
		shuffled[i] = cols[(i*17+5)%nCols]
	}
	shuffledVals := make([]float64, nCols)
	copy(shuffledVals, vals)
	addArm("sparse build", fmt.Sprintf("%d nnz", nCols),
		func() {
			if _, err := linalg.NewSparse(shuffled, shuffledVals); err != nil {
				panic(err)
			}
		},
		func() {
			if _, err := linalg.NewSparse(cols, vals); err != nil {
				panic(err)
			}
		})

	r.Note("legacy arms rebuild per-op buffers (pre-reuse behavior); reuse arms thread connection/worker-scoped buffers through the same exported calls")
	r.Note("counts are exact (pool-free paths, testing.AllocsPerRun): the table is byte-stable across reruns and machines on the same toolchain")
	r.Note("wall-clock kernel throughput is measured by `go test -bench Hotpath ./internal/linalg/` and the CI bench-smoke step, not recorded here")
	return r
}
