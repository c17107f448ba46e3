package dcv

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/linalg"
	"repro/internal/ps"
	"repro/internal/simnet"
)

// must returns v, panicking with err, which fails the run, when it is not
// nil; mustOK is must for operators that return only an error.
func must[T any](v T, err error) T {
	mustOK(err)
	return v
}

func mustOK(err error) {
	if err != nil {
		panic(err)
	}
}

func testSession(servers int) (*simnet.Sim, *cluster.Cluster, *Session) {
	sim := simnet.New()
	cfg := cluster.DefaultConfig()
	cfg.Executors = 4
	cfg.Servers = servers
	cl := cluster.New(sim, cfg)
	return sim, cl, NewSession(ps.NewMaster(cl))
}

func run(sim *simnet.Sim, fn func(p *simnet.Proc)) {
	sim.Spawn("driver", fn)
	sim.Run()
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func TestDenseDeriveColocation(t *testing.T) {
	sim, _, sess := testSession(4)
	run(sim, func(p *simnet.Proc) {
		w, err := sess.Dense(p, 100, 4)
		if err != nil {
			t.Error(err)
			return
		}
		v := w.MustDerive()
		s := w.MustDerive()
		g := w.MustDerive()
		if !w.Colocated(v) || !w.Colocated(s) || !w.Colocated(g) {
			t.Error("derived vectors not co-located")
		}
		if w.Row() == v.Row() || v.Row() == s.Row() || s.Row() == g.Row() {
			t.Error("derived vectors share rows")
		}
		if _, err := g.Derive(); err != ErrNoFreeRows {
			t.Errorf("5th derive from capacity-4 matrix: err = %v, want ErrNoFreeRows", err)
		}
	})
}

func TestDefaultCapacity(t *testing.T) {
	sim, _, sess := testSession(2)
	run(sim, func(p *simnet.Proc) {
		w, _ := sess.Dense(p, 10)
		for i := 0; i < DefaultCapacity-1; i++ {
			if _, err := w.Derive(); err != nil {
				t.Errorf("derive %d failed: %v", i, err)
			}
		}
		if _, err := w.Derive(); err == nil {
			t.Error("derive beyond default capacity succeeded")
		}
	})
}

func TestIndependentDenseNotColocated(t *testing.T) {
	sim, _, sess := testSession(4)
	run(sim, func(p *simnet.Proc) {
		a, _ := sess.Dense(p, 100)
		b, _ := sess.Dense(p, 100)
		if a.Colocated(b) {
			t.Error("independently created DCVs should not be co-located")
		}
		// Placement rotation: the same logical shard lives on different
		// physical machines.
		if a.Matrix().ServerNode(0) == b.Matrix().ServerNode(0) {
			t.Error("placement rotation did not separate the matrices")
		}
	})
}

func TestFillPullSetRoundTrip(t *testing.T) {
	sim, cl, sess := testSession(3)
	run(sim, func(p *simnet.Proc) {
		v, _ := sess.Dense(p, 50)
		worker := cl.Executors[0]
		mustOK(v.Fill(p, cl.Driver, 2.5))
		got := v.Pull(p, worker)
		for i, x := range got {
			if x != 2.5 {
				t.Errorf("after fill, [%d] = %v", i, x)
			}
		}
		mustOK(v.Set(p, worker, seq(50)))
		got = v.Pull(p, worker)
		for i, x := range got {
			if x != float64(i) {
				t.Errorf("after set, [%d] = %v", i, x)
			}
		}
		mustOK(v.Zero(p, cl.Driver))
		if must(v.Sum(p, worker)) != 0 {
			t.Error("zero did not clear the vector")
		}
	})
}

func TestRowAggregatesViaDCV(t *testing.T) {
	sim, cl, sess := testSession(4)
	run(sim, func(p *simnet.Proc) {
		v, _ := sess.Dense(p, 10)
		w := cl.Executors[0]
		mustOK(v.Set(p, w, []float64{3, 0, 4, 0, 0, 0, 0, 0, 0, 0}))
		if got := must(v.Sum(p, w)); got != 7 {
			t.Errorf("Sum = %v", got)
		}
		if got := must(v.Nnz(p, w)); got != 2 {
			t.Errorf("Nnz = %v", got)
		}
		if got := must(v.Norm2(p, w)); math.Abs(got-5) > 1e-9 {
			t.Errorf("Norm2 = %v", got)
		}
	})
}

func TestDotColocatedCorrect(t *testing.T) {
	sim, cl, sess := testSession(4)
	run(sim, func(p *simnet.Proc) {
		a, _ := sess.Dense(p, 64, 2)
		b := a.MustDerive()
		w := cl.Executors[0]
		mustOK(a.Set(p, w, seq(64)))
		ones := make([]float64, 64)
		linalg.Fill(ones, 1)
		mustOK(b.Set(p, w, ones))
		got, err := a.Dot(p, w, b)
		if err != nil {
			t.Error(err)
		}
		if want := 64.0 * 63 / 2; math.Abs(got-want) > 1e-9 {
			t.Errorf("dot = %v, want %v", got, want)
		}
	})
}

func TestDotNonColocatedCorrectButCostly(t *testing.T) {
	// The paper's Figure 4: dot between independently created DCVs still
	// returns the right answer but shuffles vector data between servers.
	dotRun := func(coloc bool) (float64, float64) {
		sim, cl, sess := testSession(4)
		var got float64
		run(sim, func(p *simnet.Proc) {
			a, _ := sess.Dense(p, 10000, 2)
			var b *Vector
			if coloc {
				b = a.MustDerive()
			} else {
				b, _ = sess.Dense(p, 10000, 2)
			}
			w := cl.Executors[0]
			mustOK(a.Set(p, w, seq(10000)))
			mustOK(b.Set(p, w, seq(10000)))
			before := serverBytes(cl)
			got, _ = a.Dot(p, w, b)
			_ = before
		})
		return got, serverBytes(cl)
	}
	want := 0.0
	for i := 0; i < 10000; i++ {
		want += float64(i) * float64(i)
	}
	colocVal, colocBytes := dotRun(true)
	shufVal, shufBytes := dotRun(false)
	if math.Abs(colocVal-want) > 1e-6*want || math.Abs(shufVal-want) > 1e-6*want {
		t.Fatalf("dot values wrong: coloc=%v shuffle=%v want=%v", colocVal, shufVal, want)
	}
	if shufBytes < colocBytes+8*10000/2 {
		t.Fatalf("shuffle dot (%v server bytes) not clearly costlier than co-located (%v)", shufBytes, colocBytes)
	}
}

func serverBytes(cl *cluster.Cluster) float64 {
	var total float64
	for _, s := range cl.Servers {
		total += s.BytesSent
	}
	return total
}

func TestAxpy(t *testing.T) {
	sim, cl, sess := testSession(3)
	run(sim, func(p *simnet.Proc) {
		a, _ := sess.Dense(p, 30, 2)
		b := a.MustDerive()
		w := cl.Executors[0]
		mustOK(a.Set(p, w, seq(30)))
		ones := make([]float64, 30)
		linalg.Fill(ones, 2)
		mustOK(b.Set(p, w, ones))
		if err := a.Axpy(p, w, 0.5, b); err != nil {
			t.Error(err)
		}
		got := a.Pull(p, w)
		for i := range got {
			if math.Abs(got[i]-(float64(i)+1)) > 1e-9 {
				t.Errorf("axpy[%d] = %v, want %v", i, got[i], float64(i)+1)
			}
		}
	})
}

func TestElementwiseOps(t *testing.T) {
	sim, cl, sess := testSession(4)
	run(sim, func(p *simnet.Proc) {
		a, _ := sess.Dense(p, 20, 6)
		b := a.MustDerive()
		w := cl.Executors[0]
		av := seq(20)
		bv := make([]float64, 20)
		for i := range bv {
			bv[i] = float64(i%4) + 1
		}
		reset := func() {
			mustOK(a.Set(p, w, av))
			mustOK(b.Set(p, w, bv))
		}
		check := func(name string, got []float64, f func(x, y float64) float64) {
			for i := range got {
				if math.Abs(got[i]-f(av[i], bv[i])) > 1e-9 {
					t.Errorf("%s[%d] = %v, want %v", name, i, got[i], f(av[i], bv[i]))
				}
			}
		}
		reset()
		if err := a.AddVec(p, w, b); err != nil {
			t.Error(err)
		}
		check("add", a.Pull(p, w), func(x, y float64) float64 { return x + y })
		reset()
		if err := a.SubVec(p, w, b); err != nil {
			t.Error(err)
		}
		check("sub", a.Pull(p, w), func(x, y float64) float64 { return x - y })
		reset()
		if err := a.MulVec(p, w, b); err != nil {
			t.Error(err)
		}
		check("mul", a.Pull(p, w), func(x, y float64) float64 { return x * y })
		reset()
		if err := a.DivVec(p, w, b); err != nil {
			t.Error(err)
		}
		check("div", a.Pull(p, w), func(x, y float64) float64 { return x / y })
		reset()
		if err := a.CopyFrom(p, w, b); err != nil {
			t.Error(err)
		}
		check("copy", a.Pull(p, w), func(_, y float64) float64 { return y })
	})
}

func TestScale(t *testing.T) {
	sim, cl, sess := testSession(2)
	run(sim, func(p *simnet.Proc) {
		v, _ := sess.Dense(p, 10)
		w := cl.Executors[0]
		mustOK(v.Set(p, w, seq(10)))
		mustOK(v.Scale(p, w, -2))
		got := v.Pull(p, w)
		for i := range got {
			if got[i] != -2*float64(i) {
				t.Errorf("scale[%d] = %v", i, got[i])
			}
		}
	})
}

func TestDimensionMismatchRejected(t *testing.T) {
	sim, cl, sess := testSession(2)
	run(sim, func(p *simnet.Proc) {
		a, _ := sess.Dense(p, 10)
		b, _ := sess.Dense(p, 20)
		if _, err := a.Dot(p, cl.Executors[0], b); err == nil {
			t.Error("dot across dimensions accepted")
		}
		if err := a.AddVec(p, cl.Executors[0], b); err == nil {
			t.Error("add across dimensions accepted")
		}
	})
}

func TestZipMapAdamStyleUpdate(t *testing.T) {
	// The paper's Figure 3 model update: one zip over four co-located DCVs,
	// all computation on servers, correct results.
	sim, cl, sess := testSession(4)
	run(sim, func(p *simnet.Proc) {
		w, _ := sess.Dense(p, 40, 4)
		vel, sq := w.MustDerive(), w.MustDerive()
		mustOK(vel.Zero(p, cl.Driver))
		mustOK(sq.Zero(p, cl.Driver))
		grad := w.MustDerive()
		worker := cl.Executors[0]
		gv := make([]float64, 40)
		linalg.Fill(gv, 0.5)
		mustOK(grad.Set(p, worker, gv))

		driverWorkBefore := cl.Driver.WorkDone
		err := w.ZipMap(p, cl.Driver, 8, func(lo int, rows [][]float64) {
			wt, v, s, g := rows[0], rows[1], rows[2], rows[3]
			for i := range wt {
				s[i] = 0.9*s[i] + 0.1*g[i]*g[i]
				v[i] = 0.999*v[i] + 0.001*g[i]
				wt[i] -= 0.618 * v[i] / (math.Sqrt(s[i]) + 1e-8)
			}
		}, vel, sq, grad)
		if err != nil {
			t.Error(err)
		}
		if cl.Driver.WorkDone != driverWorkBefore {
			t.Error("zip charged compute to the driver; it must be server-side")
		}
		got := w.Pull(p, worker)
		wantS := 0.1 * 0.25
		wantV := 0.001 * 0.5
		want := -0.618 * wantV / (math.Sqrt(wantS) + 1e-8)
		for i := range got {
			if math.Abs(got[i]-want) > 1e-12 {
				t.Errorf("zip update [%d] = %v, want %v", i, got[i], want)
			}
		}
	})
}

func TestZipMapRequiresColocation(t *testing.T) {
	sim, cl, sess := testSession(2)
	run(sim, func(p *simnet.Proc) {
		a, _ := sess.Dense(p, 10)
		b, _ := sess.Dense(p, 10)
		err := a.ZipMap(p, cl.Driver, 1, func(int, [][]float64) {}, b)
		if err != ErrNotColocated {
			t.Errorf("err = %v, want ErrNotColocated", err)
		}
	})
}

func TestZipReducePartials(t *testing.T) {
	sim, cl, sess := testSession(4)
	run(sim, func(p *simnet.Proc) {
		a, _ := sess.Dense(p, 40, 2)
		b := a.MustDerive()
		w := cl.Executors[0]
		mustOK(a.Set(p, w, seq(40)))
		mustOK(b.Set(p, w, seq(40)))
		parts, err := ZipReduce(p, cl.Driver, a, 2, 16, func(sp ShardSpan) float64 {
			var max float64 = math.Inf(-1)
			for i := range sp.Rows[0] {
				if s := sp.Rows[0][i] + sp.Rows[1][i]; s > max {
					max = s
				}
			}
			return max
		}, b)
		if err != nil {
			t.Error(err)
		}
		if len(parts) != 4 {
			t.Fatalf("partials = %v", parts)
		}
		best := math.Inf(-1)
		for _, v := range parts {
			if v > best {
				best = v
			}
		}
		if best != 78 {
			t.Errorf("max over partials = %v, want 78", best)
		}
	})
}

func TestSparseVectorCheaperPull(t *testing.T) {
	pullBytes := func(sparse bool) float64 {
		sim, cl, sess := testSession(4)
		run(sim, func(p *simnet.Proc) {
			var v *Vector
			if sparse {
				v, _ = sess.Sparse(p, 100000)
			} else {
				v, _ = sess.Dense(p, 100000)
			}
			w := cl.Executors[0]
			delta, _ := linalg.NewSparse([]int{5, 500, 50000}, []float64{1, 2, 3})
			mustOK(v.Add(p, w, delta))
			cl.Executors[1].BytesRecv = 0
			v.Pull(p, cl.Executors[1])
		})
		return cl.Executors[1].BytesRecv
	}
	sp := pullBytes(true)
	dn := pullBytes(false)
	if sp*50 > dn {
		t.Fatalf("sparse DCV pull (%v B) not ≪ dense pull (%v B)", sp, dn)
	}
}

func TestSparsePullValuesMatchDense(t *testing.T) {
	sim, cl, sess := testSession(3)
	run(sim, func(p *simnet.Proc) {
		v, _ := sess.Sparse(p, 1000)
		w := cl.Executors[0]
		delta, _ := linalg.NewSparse([]int{1, 999, 500}, []float64{-1, 7, 3})
		mustOK(v.Add(p, w, delta))
		got := v.Pull(p, w)
		if got[1] != -1 || got[500] != 3 || got[999] != 7 {
			t.Errorf("sparse pull values wrong: %v %v %v", got[1], got[500], got[999])
		}
		if linalg.NnzDense(got) != 3 {
			t.Errorf("unexpected extra nonzeros")
		}
	})
}

func TestDeriveIsFree(t *testing.T) {
	sim, _, sess := testSession(4)
	var before, after float64
	run(sim, func(p *simnet.Proc) {
		w, _ := sess.Dense(p, 1000, 5)
		before = p.Now()
		w.MustDerive()
		w.MustDerive()
		after = p.Now()
	})
	if after != before {
		t.Fatalf("derive consumed %v seconds of virtual time; must be free", after-before)
	}
}

// Property: any sequence of co-located element-wise ops matches a dense
// two-vector oracle.
func TestColumnOpsOracleProperty(t *testing.T) {
	f := func(ops []uint8, serversRaw uint8) bool {
		servers := int(serversRaw%5) + 1
		if len(ops) > 12 {
			ops = ops[:12]
		}
		dim := 37
		sim, cl, sess := testSession(servers)
		oa, ob := make([]float64, dim), make([]float64, dim)
		for i := 0; i < dim; i++ {
			oa[i] = float64(i%5) + 1
			ob[i] = float64(i%3) + 1
		}
		good := true
		run(sim, func(p *simnet.Proc) {
			a, err := sess.Dense(p, dim, 2)
			if err != nil {
				good = false
				return
			}
			b := a.MustDerive()
			w := cl.Executors[0]
			mustOK(a.Set(p, w, oa))
			mustOK(b.Set(p, w, ob))
			for _, op := range ops {
				switch op % 5 {
				case 0:
					if a.AddVec(p, w, b) != nil {
						good = false
					}
					for i := range oa {
						oa[i] += ob[i]
					}
				case 1:
					if a.SubVec(p, w, b) != nil {
						good = false
					}
					for i := range oa {
						oa[i] -= ob[i]
					}
				case 2:
					if a.MulVec(p, w, b) != nil {
						good = false
					}
					for i := range oa {
						oa[i] *= ob[i]
					}
				case 3:
					if a.Axpy(p, w, 0.5, b) != nil {
						good = false
					}
					for i := range oa {
						oa[i] += 0.5 * ob[i]
					}
				case 4:
					mustOK(a.Scale(p, w, 0.9))
					for i := range oa {
						oa[i] *= 0.9
					}
				}
			}
			got := a.Pull(p, w)
			for i := range got {
				rel := math.Abs(got[i]-oa[i]) / (1 + math.Abs(oa[i]))
				if rel > 1e-9 {
					good = false
					return
				}
			}
		})
		return good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseAcrossIndependentMatrices(t *testing.T) {
	// Non-co-located operands still compute correctly: the engine shuffles
	// the operand's ranges between servers first. Only the target vector is
	// mutated, so reads-from-copies are safe.
	sim, cl, sess := testSession(4)
	run(sim, func(p *simnet.Proc) {
		a, _ := sess.Dense(p, 40)
		b, _ := sess.Dense(p, 40) // independent: rotated placement
		w := cl.Executors[0]
		mustOK(a.Set(p, w, seq(40)))
		ones := make([]float64, 40)
		linalg.Fill(ones, 3)
		mustOK(b.Set(p, w, ones))
		if err := a.AddVec(p, w, b); err != nil {
			t.Error(err)
		}
		got := a.Pull(p, w)
		for i := range got {
			if got[i] != float64(i)+3 {
				t.Errorf("add[%d] = %v, want %v", i, got[i], float64(i)+3)
			}
		}
		// b must be untouched.
		bv := b.Pull(p, w)
		for i := range bv {
			if bv[i] != 3 {
				t.Errorf("operand mutated at %d: %v", i, bv[i])
			}
		}
	})
}

func TestZipReduceRequiresColocation(t *testing.T) {
	sim, cl, sess := testSession(2)
	run(sim, func(p *simnet.Proc) {
		a, _ := sess.Dense(p, 10)
		b, _ := sess.Dense(p, 10)
		_, err := ZipReduce(p, cl.Driver, a, 1, 8, func(sp ShardSpan) int { return 0 }, b)
		if err != ErrNotColocated {
			t.Errorf("err = %v, want ErrNotColocated", err)
		}
	})
}

func TestPullIndicesUnderRotatedPlacement(t *testing.T) {
	// Sparse pulls must route by logical shard even when the matrix's
	// physical placement is rotated (second matrix gets offset 1).
	sim, cl, sess := testSession(5)
	run(sim, func(p *simnet.Proc) {
		_, _ = sess.Dense(p, 10) // burn an offset
		v, _ := sess.Dense(p, 1000)
		w := cl.Executors[0]
		delta, _ := linalg.NewSparse([]int{0, 199, 200, 500, 999}, []float64{1, 2, 3, 4, 5})
		mustOK(v.Add(p, w, delta))
		got := must(v.PullIndices(p, w, []int{0, 199, 200, 500, 999}, nil))
		want := []float64{1, 2, 3, 4, 5}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("PullIndices[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	})
}

func TestSumNnzNorm2OnDerived(t *testing.T) {
	sim, cl, sess := testSession(3)
	run(sim, func(p *simnet.Proc) {
		a, _ := sess.Dense(p, 30, 2)
		b := a.MustDerive()
		w := cl.Executors[0]
		vals := make([]float64, 30)
		vals[7], vals[21] = 3, -4
		mustOK(b.Set(p, w, vals))
		if got := must(b.Sum(p, w)); got != -1 {
			t.Errorf("derived Sum = %v", got)
		}
		if got := must(b.Nnz(p, w)); got != 2 {
			t.Errorf("derived Nnz = %v", got)
		}
		if got := must(b.Norm2(p, w)); math.Abs(got-5) > 1e-9 {
			t.Errorf("derived Norm2 = %v", got)
		}
	})
}

// TestReadsOutsideDedup asserts the column reductions go out as reads: in an
// unreliable run, Dot (co-located and shuffled) and ZipReduce leave no entry
// in any server's applied set, as a read needs no exactly-once filter.
func TestReadsOutsideDedup(t *testing.T) {
	sim, cl, sess := testSession(3)
	sess.Master.Unreliable = true
	run(sim, func(p *simnet.Proc) {
		a, _ := sess.Dense(p, 30, 2)
		b := a.MustDerive()
		far, _ := sess.Dense(p, 30)
		for i := 0; i < 3; i++ {
			must(a.Dot(p, cl.Driver, b))
			must(a.Dot(p, cl.Driver, far))
			must(ZipReduce(p, cl.Driver, a, 1, 8, func(sp ShardSpan) float64 { return sp.Rows[1][0] }, b))
		}
		for s := range cl.Servers {
			if n := sess.Master.Server(s).DedupSize(); n != 0 {
				t.Errorf("server %d holds %d applied-set entries after reads only, want 0", s, n)
			}
		}
	})
}
