package dcv

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// opCost is what one column op costs and computes on a fresh 4-server
// cluster: bytes the servers receive (requests plus any operand shuffle),
// bytes the caller receives (responses), virtual seconds, kernel events, and
// the bits of the result — the reduction's value, or an FNV-64a hash of the
// target vector's bits for a mutation.
type opCost struct {
	serverRecv, callerRecv float64
	dt                     float64
	events                 uint64
	bits                   uint64
}

func (c opCost) String() string {
	return fmt.Sprintf("{%v, %v, %v, %d, %#x}", c.serverRecv, c.callerRecv, c.dt, c.events, c.bits)
}

// costVecs are the operands of one measured op: w, a and b share a raw
// matrix, far is an independent DCV (rotated placement) reached by the
// shuffle.
type costVecs struct{ w, a, b, far *Vector }

// measureOp builds the operands, runs op once from the driver and returns
// its cost. op returns the reduction's value, or nil when it mutates w.
func measureOp(t *testing.T, op func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error)) opCost {
	t.Helper()
	const dim = 1000
	sim, cl, sess := testSession(4)
	var c opCost
	run(sim, func(p *simnet.Proc) {
		w, err := sess.Dense(p, dim, 3)
		if err != nil {
			t.Fatal(err)
		}
		far, err := sess.Dense(p, dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		v := costVecs{w: w, a: w.MustDerive(), b: w.MustDerive(), far: far}
		vals := func(f func(i float64) float64) []float64 {
			out := make([]float64, dim)
			for i := range out {
				out[i] = f(float64(i))
			}
			return out
		}
		ps.MustOK(v.w.Set(p, cl.Driver, vals(func(i float64) float64 { return math.Sin(i) })))
		ps.MustOK(v.a.Set(p, cl.Driver, vals(func(i float64) float64 { return 1.5 + math.Cos(i) })))
		ps.MustOK(v.b.Set(p, cl.Driver, vals(func(i float64) float64 { return i / 3 })))
		ps.MustOK(v.far.Set(p, cl.Driver, vals(func(i float64) float64 { return 0.25 + float64(int(i)%7) })))

		serverRecv := func() float64 {
			var total float64
			for _, s := range cl.Servers {
				total += s.BytesRecv
			}
			return total
		}
		sr, cr, t0, e0 := serverRecv(), cl.Driver.BytesRecv, p.Now(), sim.EventsProcessed()
		res, err := op(p, cl.Driver, v)
		if err != nil {
			t.Fatal(err)
		}
		c = opCost{serverRecv() - sr, cl.Driver.BytesRecv - cr, p.Now() - t0, sim.EventsProcessed() - e0, 0}
		if res != nil {
			c.bits = math.Float64bits(*res)
			return
		}
		h := fnv.New64a()
		for _, x := range v.w.Pull(p, cl.Driver) {
			b := math.Float64bits(x)
			h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24),
				byte(b >> 32), byte(b >> 40), byte(b >> 48), byte(b >> 56)})
		}
		c.bits = h.Sum64()
	})
	return c
}

// batchOf runs a one-op batch; scalar-returning records resolve after Run.
func batchOf(record func(b *Batch, v costVecs) *Scalar) func(*simnet.Proc, *simnet.Node, costVecs) (*float64, error) {
	return func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
		b := NewBatch(v.w)
		sc := record(b, v)
		if err := b.Run(p, from); err != nil || sc == nil {
			return nil, err
		}
		x := sc.Value()
		return &x, nil
	}
}

func mutation(err error) (*float64, error) { return nil, err }

func reduction(x float64, err error) (*float64, error) { return &x, err }

// TestColumnOpCostsPinned pins every column op's cost exactly, beyond the
// rounded figures table1 prints: each Vector op run alone on co-located
// operands, each Batch op run as a batch (alone and in one mixed program),
// and every Vector op whose operand is not co-located and so rides the
// server-to-server shuffle. A change to any op's bytes, virtual time, event
// count or result bits trips here.
func TestColumnOpCostsPinned(t *testing.T) {
	zip := func(lo int, rows [][]float64) {
		for i := range rows[0] {
			rows[0][i] = rows[0][i]*rows[1][i] + float64(lo+i)
		}
	}
	zip3 := func(lo int, rows [][]float64) {
		for i := range rows[0] {
			rows[2][i] += rows[1][i]
			rows[0][i] -= 0.1 * rows[2][i]
		}
	}
	lone := func(op func(p *simnet.Proc, from *simnet.Node, v costVecs) error) func(*simnet.Proc, *simnet.Node, costVecs) (*float64, error) {
		return func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			return mutation(op(p, from, v))
		}
	}
	cases := []struct {
		name string
		op   func(*simnet.Proc, *simnet.Node, costVecs) (*float64, error)
		want string
	}{
		{"lone fill", lone(func(p *simnet.Proc, from *simnet.Node, v costVecs) error { return v.w.Fill(p, from, 2.5) }), "{1024, 1024, 3.9336000000000384e-05, 39, 0x743c50e7a1f34a25}"},
		{"lone zero", lone(func(p *simnet.Proc, from *simnet.Node, v costVecs) error { return v.w.Zero(p, from) }), "{1024, 1024, 3.9336000000000384e-05, 39, 0x51e78e744621f425}"},
		{"lone scale", lone(func(p *simnet.Proc, from *simnet.Node, v costVecs) error { return v.w.Scale(p, from, -0.75) }), "{1024, 1024, 3.9336000000000384e-05, 39, 0xf7b4c36b4314985a}"},
		{"lone axpy", lone(func(p *simnet.Proc, from *simnet.Node, v costVecs) error { return v.w.Axpy(p, from, 0.3, v.a) }), "{1024, 1024, 4.43360000000004e-05, 39, 0x77ed1ead027dc8be}"},
		{"lone add", lone(func(p *simnet.Proc, from *simnet.Node, v costVecs) error { return v.w.AddVec(p, from, v.a) }), "{1024, 1024, 4.43360000000004e-05, 39, 0xbe6077538ea97c8b}"},
		{"lone sub", lone(func(p *simnet.Proc, from *simnet.Node, v costVecs) error { return v.w.SubVec(p, from, v.a) }), "{1024, 1024, 4.43360000000004e-05, 39, 0x60cc847816ffbcff}"},
		{"lone mul", lone(func(p *simnet.Proc, from *simnet.Node, v costVecs) error { return v.w.MulVec(p, from, v.a) }), "{1024, 1024, 4.43360000000004e-05, 39, 0xfbb3fab10d8c7fff}"},
		{"lone div", lone(func(p *simnet.Proc, from *simnet.Node, v costVecs) error { return v.w.DivVec(p, from, v.a) }), "{1024, 1024, 4.43360000000004e-05, 39, 0xd92e021b7389996d}"},
		{"lone copy", lone(func(p *simnet.Proc, from *simnet.Node, v costVecs) error { return v.w.CopyFrom(p, from, v.a) }), "{1024, 1024, 4.43360000000004e-05, 39, 0x3e9c18a5b0d869c3}"},
		{"lone zipmap", lone(func(p *simnet.Proc, from *simnet.Node, v costVecs) error {
			return v.w.ZipMap(p, from, 3, zip3, v.a, v.b)
		}), "{1024, 1024, 5.683600000000032e-05, 39, 0xb2c2bbfa94122829}"},
		{"lone zipreduce", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			parts, err := ZipReduce(p, from, v.w, 2, 16, func(sp ShardSpan) float64 {
				return linalg.Dot(sp.Rows[0], sp.Rows[1]) + float64(sp.Lo)
			}, v.a)
			var total float64
			for _, x := range parts {
				total = 3*total + x
			}
			return &total, err
		}, "{1024, 1088, 4.4976000000000174e-05, 39, 0x40b1d07db1ed9b81}"},
		{"lone dot", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			return reduction(v.w.Dot(p, from, v.a))
		}, "{1024, 1056, 4.4656000000000014e-05, 39, 0xbfa0924092ad5380}"},
		{"lone sum", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			return reduction(v.w.Sum(p, from))
		}, "{1056, 1056, 3.978399999999985e-05, 39, 0xbf8a70825047ec80}"},
		{"lone nnz", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			n, err := v.w.Nnz(p, from)
			return reduction(float64(n), err)
		}, "{1056, 1056, 3.978399999999985e-05, 39, 0x408f380000000000}"},
		{"lone norm2", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			return reduction(v.w.Norm2(p, from))
		}, "{1056, 1056, 3.978399999999985e-05, 39, 0x4036598593686bfc}"},
		{"batch fill", batchOf(func(b *Batch, v costVecs) *Scalar { b.Fill(v.w, 2.5); return nil }), "{1120, 1024, 4.029600000000032e-05, 36, 0x743c50e7a1f34a25}"},
		{"batch zero", batchOf(func(b *Batch, v costVecs) *Scalar { b.Zero(v.w); return nil }), "{1120, 1024, 4.029600000000032e-05, 36, 0x51e78e744621f425}"},
		{"batch sub", batchOf(func(b *Batch, v costVecs) *Scalar { b.SubVec(v.w, v.a); return nil }), "{1120, 1024, 4.5296000000000333e-05, 36, 0x60cc847816ffbcff}"},
		{"batch copy", batchOf(func(b *Batch, v costVecs) *Scalar { b.CopyFrom(v.w, v.a); return nil }), "{1120, 1024, 4.5296000000000333e-05, 36, 0x3e9c18a5b0d869c3}"},
		{"batch zipmap", batchOf(func(b *Batch, v costVecs) *Scalar { b.ZipMap(v.w, 3, zip, v.a); return nil }), "{1120, 1024, 5.0296000000000347e-05, 36, 0x151ba2fcb771ae3a}"},
		{"batch zipmap3", batchOf(func(b *Batch, v costVecs) *Scalar { b.ZipMap(v.w, 3, zip3, v.a, v.b); return nil }), "{1120, 1024, 5.779600000000026e-05, 36, 0xb2c2bbfa94122829}"},
		{"batch dot", batchOf(func(b *Batch, v costVecs) *Scalar { return b.Dot(v.w, v.a) }), "{1120, 1056, 4.542400000000018e-05, 36, 0xbfa0924092ad5380}"},
		{"batch program", batchOf(func(b *Batch, v costVecs) *Scalar {
			b.SubVec(v.w, v.a).CopyFrom(v.a, v.w).Fill(v.b, 2)
			return b.Dot(v.w, v.a)
		}), "{1408, 1056, 7.330399999999995e-05, 36, 0x40a969fbacbdca2b}"},
		{"shuffled dot", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			return reduction(v.w.Dot(p, from, v.far))
		}, "{10048, 1056, 9.075200000000004e-05, 51, 0xc02ef8837639b819}"},
		{"shuffled axpy", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			return mutation(v.w.Axpy(p, from, -0.4, v.far))
		}, "{10048, 1024, 9.043200000000042e-05, 51, 0xdc844dc649581b9a}"},
		{"shuffled add", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			return mutation(v.w.AddVec(p, from, v.far))
		}, "{10048, 1024, 9.043200000000042e-05, 51, 0xaadfe16e400cceec}"},
		{"shuffled sub", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			return mutation(v.w.SubVec(p, from, v.far))
		}, "{10048, 1024, 9.043200000000042e-05, 51, 0xdf67f63361135f38}"},
		{"shuffled mul", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			return mutation(v.w.MulVec(p, from, v.far))
		}, "{10048, 1024, 9.043200000000042e-05, 51, 0xe8affa56a48e5c01}"},
		{"shuffled div", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			return mutation(v.w.DivVec(p, from, v.far))
		}, "{10048, 1024, 9.043200000000042e-05, 51, 0xf29c0bf759612a98}"},
		{"shuffled copy", func(p *simnet.Proc, from *simnet.Node, v costVecs) (*float64, error) {
			return mutation(v.w.CopyFrom(p, from, v.far))
		}, "{10048, 1024, 9.043200000000042e-05, 51, 0xa6db0be7644b07dd}"},
	}
	for _, tc := range cases {
		if got := measureOp(t, tc.op).String(); got != tc.want {
			t.Errorf("%s: cost %s, want %s", tc.name, got, tc.want)
		}
	}
}
