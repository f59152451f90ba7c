// Quickstart: build a WRHT all-reduce schedule, inspect it, run it on
// real data, and time it under the paper's optical model — all through
// the public wrht API.
//
// This reproduces the paper's motivating example (§3.3 / Fig 2): 15
// nodes and 2 wavelengths, where binary-tree all-reduce needs 8 steps
// but WRHT needs 3.
package main

import (
	"fmt"
	"log"

	"wrht"
)

func main() {
	log.SetFlags(0)

	// 1. Build the schedule: 15 nodes, 2 wavelengths (Fig 2b).
	sched, err := wrht.Build(wrht.KindWRHT, 15, wrht.WithWavelengths(2))
	if err != nil {
		log.Fatal(err)
	}
	bt, err := wrht.Build(wrht.KindBT, 15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WRHT needs %d steps; binary tree needs %d (paper Fig 2: 3 vs 8)\n",
		sched.NumSteps(), bt.NumSteps())

	// 2. Inspect: every step is an explicit set of wavelength-assigned
	// circuits, and the schedule is verifiably conflict-free within the
	// 2-wavelength budget.
	if err := sched.Validate(2); err != nil {
		log.Fatal(err)
	}
	for i, st := range sched.Steps {
		fmt.Printf("step %d (%s): %d transfers, %d wavelengths\n",
			i+1, st.Phase, len(st.Transfers), st.MaxWavelength())
	}

	// 3. Run it for real: 15 goroutine workers all-reduce their vectors
	// and every one ends with the mean.
	inputs := make([]wrht.Vector, 15)
	for i := range inputs {
		inputs[i] = wrht.Vector{float32(i + 1), float32(i + 1), float32(i + 1), float32(i + 1)}
	}
	out, err := wrht.AllReduce(sched, inputs, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after all-reduce every worker holds the mean %.1f: worker0=%v\n",
		float32(15+1)/2, out[0])

	// 4. Time it under the Table-2 optical model for a ResNet50-sized
	// gradient (Eq 6).
	res, err := wrht.Simulate(wrht.Optical, sched, float64(wrht.ResNet50().GradBytes()),
		wrht.WithOpticalParams(opticalWith2Wavelengths()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optical communication time for the %.0f MB ResNet50 gradient: %.3f ms (θ=%d)\n",
		float64(wrht.ResNet50().GradBytes())/1e6, res.Time*1e3, res.Steps)
}

func opticalWith2Wavelengths() wrht.OpticalParams {
	p := wrht.DefaultOpticalParams()
	p.Wavelengths = 2
	return p
}
