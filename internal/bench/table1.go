package bench

import (
	"fmt"

	"repro/internal/dcv"
	"repro/internal/linalg"
	"repro/internal/simnet"
)

func init() {
	register("table1", "DCV operator set, each demonstrated live with its virtual cost", runTable1)
}

// runTable1 exercises every operator of the paper's Table 1 once on a
// dim-100K DCV over 8 servers and reports each operator's virtual latency
// and wire bytes — making the operator-set table executable.
func runTable1(o Opts) *Result {
	dim := 100_000
	if o.Quick {
		dim = 20_000
	}
	e := paperEngine(4, 8)
	r := &Result{ID: "table1", Title: fmt.Sprintf("DCV operators on a dim-%d vector, 8 servers", dim),
		Header: []string{"category", "operator", "virtual ms", "wire KB"}}

	e.Run(func(p *simnet.Proc) {
		worker := e.Cluster.Executors[0]
		driver := e.Driver()
		measure := func(category, name string, fn func() error) {
			startBytes := e.Cluster.TotalBytesOnWire()
			start := p.Now()
			if err := fn(); err != nil {
				panic(err)
			}
			r.AddRow(category, name,
				fmt.Sprintf("%.3f", 1000*(p.Now()-start)),
				fmt.Sprintf("%.1f", (e.Cluster.TotalBytesOnWire()-startBytes)/1000))
		}

		var v, w *dcv.Vector
		measure("creation", "dense", func() (err error) {
			v, err = e.DCV.Dense(p, dim, 4)
			return err
		})
		measure("creation", "derive", func() error { w = v.MustDerive(); return nil })
		measure("creation", "sparse", func() error {
			_, err := e.DCV.Sparse(p, dim, 1)
			return err
		})

		vals := make([]float64, dim)
		for i := range vals {
			vals[i] = float64(i%100) / 100
		}
		if err := v.Set(p, worker, vals); err != nil {
			panic(err)
		}
		if err := w.Set(p, worker, vals); err != nil {
			panic(err)
		}

		measure("row access", "pull", func() error { v.Pull(p, worker); return nil })
		idx := make([]int, 1000)
		for i := range idx {
			idx[i] = i * (dim / 1000)
		}
		measure("row access", "pull (sparse)", func() error { _, err := v.PullIndices(p, worker, idx, nil); return err })
		delta, err := linalg.NewSparse(idx, make([]float64, len(idx)))
		if err != nil {
			panic(err)
		}
		measure("row access", "push (add)", func() error { return v.Add(p, worker, delta) })
		measure("row access", "sum", func() error { _, err := v.Sum(p, worker); return err })
		measure("row access", "nnz", func() error { _, err := v.Nnz(p, worker); return err })
		measure("row access", "norm2", func() error { _, err := v.Norm2(p, worker); return err })

		measure("column access", "dot", func() error { _, err := v.Dot(p, worker, w); return err })
		measure("column access", "axpy", func() error { return v.Axpy(p, driver, 0.5, w) })
		measure("column access", "add", func() error { return v.AddVec(p, driver, w) })
		measure("column access", "sub", func() error { return v.SubVec(p, driver, w) })
		measure("column access", "mul", func() error { return v.MulVec(p, driver, w) })
		measure("column access", "div", func() error { return v.DivVec(p, driver, w) })
		measure("column access", "copy", func() error { return v.CopyFrom(p, driver, w) })
		measure("column access", "zip+mapPartition", func() error {
			return v.ZipMap(p, driver, 2, func(lo int, rows [][]float64) {
				a, b := rows[0], rows[1]
				for i := range a {
					a[i] += 0.1 * b[i]
				}
			}, w)
		})
	})
	r.Note("column-access operators move only commands and scalars: compare their wire KB against the row-access pull")
	return r
}
