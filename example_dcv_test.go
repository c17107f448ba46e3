package ps2_test

import (
	"fmt"

	ps2 "repro"
)

// Example_dcv mirrors the paper's Figure 3/4 code: a weight DCV is
// allocated, three auxiliary vectors are derived (co-located, costing no
// communication), and element-wise operators run server-side. The
// "inefficient writing" from the paper's Figure 4 — a dot between two
// independently created DCVs — still computes correctly but is not
// co-located.
func Example_dcv() {
	engine := ps2.NewEngine(ps2.DefaultOptions())
	engine.Run(func(p *ps2.Proc) {
		// val weight = DCV.dense(dim, 4)
		weight, err := engine.DCV.Dense(p, 1000, 4)
		if err != nil {
			panic(err)
		}
		check := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		// val velocity = DCV.derive(weight).fill(0.0)  (and friends)
		velocity, gradient := weight.MustDerive(), weight.MustDerive()
		check(velocity.Fill(p, engine.Driver(), 0))
		check(gradient.Fill(p, engine.Driver(), 1))
		fmt.Println("derived co-located:", weight.Colocated(velocity))

		// Server-side element-wise computation across co-located DCVs.
		check(velocity.Axpy(p, engine.Driver(), 2, gradient))
		sum, err := velocity.Sum(p, engine.Driver())
		check(err)
		fmt.Println("velocity sum after axpy:", sum)

		// Figure 4's "inefficient writing": independent DCVs are not
		// co-located; dot still works via a server-to-server shuffle.
		other, err := engine.DCV.Dense(p, 1000, 1)
		if err != nil {
			panic(err)
		}
		check(other.Fill(p, engine.Driver(), 3))
		fmt.Println("independent co-located:", weight.Colocated(other))
		dot, err := gradient.Dot(p, engine.Driver(), other)
		check(err)
		fmt.Println("dot across placements:", dot)
	})
	// Output:
	// derived co-located: true
	// velocity sum after axpy: 2000
	// independent co-located: false
	// dot across placements: 3000
}
