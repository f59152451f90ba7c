package electrical

import (
	"fmt"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/fabric"
)

// sinkCost keeps the benchmarked solve from being optimized away.
var sinkCost fabric.StepCost

// benchSteps returns the fat-tree steps Fig 7 spends its time on at n
// hosts: a Ring step (n intra- and inter-edge neighbour flows) and RD's
// widest exchange (every flow crosses the core).
func benchSteps(b *testing.B, n int) map[string]core.Step {
	b.Helper()
	rd, err := collective.BuildRD(n)
	if err != nil {
		b.Fatal(err)
	}
	ring, _ := collective.StreamRing(n).Next() // step 0, without materializing 2(n-1) steps
	return map[string]core.Step{
		"ring": {Phase: ring.Phase, Transfers: append([]core.Transfer(nil), ring.Transfers...)},
		"rd":   rd.Steps[rd.NumSteps()/2-1],
	}
}

// BenchmarkFatTreeStep times one StepCost solve of the max–min fluid
// model, steady state (the network's scratch is warm), at a 100 MB
// per-node payload.
func BenchmarkFatTreeStep(b *testing.B) {
	const elems = 100e6 / 4
	for _, n := range []int{128, 1024} {
		nw, err := NewNetwork(n, DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		f := nw.Fabric()
		steps := benchSteps(b, n)
		for _, alg := range []string{"ring", "rd"} {
			st := steps[alg]
			b.Run(fmt.Sprintf("%s/N%d", alg, n), func(b *testing.B) {
				f.StepCost(st, elems)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkCost = f.StepCost(st, elems)
				}
			})
		}
	}
}
