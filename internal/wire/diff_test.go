package wire

// The two shard cores against each other: one seeded op stream goes through
// an in-process Server and through a simulated ps.Matrix (PushAdd,
// PullRowIndices, and dcv's axpy, fill and scale, each an Invoke of its
// colOp), and after every op both answer alike and hold the same rows bit
// for bit. The server keeps one shard of the whole width and the simulated
// matrix two, so the same rows cross the dense threshold at different
// member counts on the two sides, and dcv's kernels run on the rows' dense
// views where the server visits pairs.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dcv"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// Values and scales a stream draws from. All are finite, so a NaN comes only
// from an overflow meeting a zero or its negation, and every NaN is the one
// the hardware makes: where two NaNs meet, which one a sum keeps is the
// compiled code's choice, so a second payload would make the bits depend on
// it.
var (
	diffVals   = []float64{math.Copysign(0, -1), 0, 1.5, -2.25, 7, -math.SmallestNonzeroFloat64, 1e-300, -3, 1e300}
	diffScales = []float64{0, math.Copysign(0, -1), 0.5, -0.5, 2}
)

// TestShardCoresAgree runs 64 seeded streams of 200 ops on 3 rows 640
// columns wide.
func TestShardCoresAgree(t *testing.T) {
	const rows, width, streams, ops = 3, 640, 64, 200
	for seed := uint64(1); seed <= streams; seed++ {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			runCores(t, rand.New(rand.NewPCG(seed, 0x64696666)), rows, width, ops)
		})
	}
}

// runCores drives one stream of n ops through both cores, comparing after
// each.
func runCores(t *testing.T, rng *rand.Rand, rows, width, n int) {
	srv := NewServer()
	var sc connScratch
	var id uint64
	handle := func(op byte, payload []byte) []byte {
		t.Helper()
		id++
		resp, err := srv.handle(Frame{Op: op, Flags: FlagMutates, ReqID: id, AckedTo: id - 1, Payload: payload}, &sc)
		if err != nil {
			t.Errorf("op %d: %v", op, err)
		}
		return bytes.Clone(resp)
	}
	handle(OpCreateShard, AppendCreateShard(nil, 1, rows, 0, width))

	sim := simnet.New()
	cfg := cluster.DefaultConfig()
	cfg.Servers, cfg.Executors = 2, 1
	cl := cluster.New(sim, cfg)
	sess := dcv.NewSession(ps.NewMaster(cl))
	w := cl.Executors[0]
	sim.Spawn("driver", func(p *simnet.Proc) {
		v, err := sess.Dense(p, width, rows)
		if err != nil {
			t.Error(err)
			return
		}
		vecs := []*dcv.Vector{v}
		for len(vecs) < rows {
			vecs = append(vecs, v.MustDerive())
		}
		for i := 0; i < n && !t.Failed(); i++ {
			r := rng.IntN(rows)
			cols := drawDistinct(rng, width, 1+rng.IntN(width/8))
			var what string
			switch rng.IntN(3) {
			case 0: // sparse pull
				what = fmt.Sprintf("op %d: pull %d cols of row %d", i, len(cols), r)
				got := handle(OpPullSparse, AppendPullSparseReq(nil, 1, r, cols))
				want, err := v.Matrix().PullRowIndices(p, w, r, cols, nil)
				if err != nil {
					t.Errorf("%s: %v", what, err)
					return
				}
				if !bytes.Equal(got, AppendVals(nil, want)) {
					t.Errorf("%s: the server answered unlike the simulated matrix", what)
					return
				}
			case 1: // push-add
				vals := make([]float64, len(cols))
				for j := range vals {
					vals[j] = diffVals[rng.IntN(len(diffVals))]
				}
				what = fmt.Sprintf("op %d: push %d cols into row %d", i, len(cols), r)
				handle(OpPushAdd, AppendPushAdd(nil, 1, r, cols, vals))
				delta, err := linalg.NewSparse(cols, vals)
				if err == nil {
					err = vecs[r].Add(p, w, delta)
				}
				if err != nil {
					t.Errorf("%s: %v", what, err)
					return
				}
			default: // fused program
				prog := make([]FusedOp, 1+rng.IntN(3))
				for j := range prog {
					a := diffScales[rng.IntN(len(diffScales))]
					switch rng.IntN(3) {
					case 0:
						prog[j] = FusedOp{Kind: FAxpy, Dst: rng.IntN(rows), Src: rng.IntN(rows), Scale: a}
					case 1:
						prog[j] = FusedOp{Kind: FZero, Row: rng.IntN(rows)}
					default:
						prog[j] = FusedOp{Kind: FScale, Row: rng.IntN(rows), Scale: a}
					}
				}
				what = fmt.Sprintf("op %d: fused %+v", i, prog)
				handle(OpFused, AppendFused(nil, 1, prog))
				for _, op := range prog {
					var err error
					switch op.Kind {
					case FAxpy:
						err = vecs[op.Dst].Axpy(p, w, op.Scale, vecs[op.Src])
					case FZero:
						err = vecs[op.Row].Fill(p, w, 0)
					case FScale:
						err = vecs[op.Row].Scale(p, w, op.Scale)
					}
					if err != nil {
						t.Errorf("%s: %v", what, err)
						return
					}
				}
			}
			for r := range rows {
				want := make([]float64, width)
				for s := range v.Matrix().Part.NumServers() {
					v.Matrix().HostShard(s).ReadRow(r, want)
				}
				if got := values(srv.mats[1], r); !equalFloats(got, want) {
					c := 0
					for math.Float64bits(got[c]) == math.Float64bits(want[c]) {
						c++
					}
					t.Errorf("%s: row %d col %d = %v (%#x) on the server, %v (%#x) on the simulated matrix",
						what, r, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
					return
				}
			}
		}
	})
	sim.Run()
}

// drawDistinct returns k columns of [0, width), sorted and distinct (fewer
// when draws repeat).
func drawDistinct(rng *rand.Rand, width, k int) []int {
	cols := make([]int, k)
	for i := range cols {
		cols[i] = rng.IntN(width)
	}
	slices.Sort(cols)
	return slices.Compact(cols)
}
