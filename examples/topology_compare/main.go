// topology_compare: the same all-reduce payload across three fabrics.
//
//  1. Optical ring (TeraRack-style, Table 2) running WRHT and Ring.
//  2. Optical 32×32 torus (§6.1 extension) running the two-stage
//     row/column WRHT — fewer steps when wavelengths are scarce, because
//     each row is a short independent ring.
//  3. Electrical two-level fat-tree (Table 2) running Ring and recursive
//     halving/doubling, via the flow-level simulator.
//
// Reproduces the Fig-7 story plus the §6.1 discussion at one glance,
// written against the facade's Build/Simulate API: one constructor and
// one simulation entrypoint regardless of collective and fabric.
package main

import (
	"fmt"
	"log"

	"wrht"
	"wrht/internal/core"
	"wrht/internal/metrics"
	"wrht/internal/phys"
	"wrht/internal/topo"
)

func main() {
	log.SetFlags(0)
	const (
		n     = 1024
		waves = 8 // scarce wavelengths make the torus interesting
	)
	model := wrht.ResNet50()
	d := float64(model.GradBytes())
	p := wrht.DefaultOpticalParams()
	p.Wavelengths = waves

	table := &metrics.Table{
		Title:   fmt.Sprintf("%s gradient (%.0f MB), %d nodes, %d wavelengths", model.Name, d/1e6, n, waves),
		Headers: []string{"Fabric", "Algorithm", "Steps", "Time (ms)"},
	}

	// Optical ring: analytic profiles through the unified Simulate.
	wrhtProf, err := wrht.WRHTProfile(wrht.Config{N: n, Wavelengths: waves})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prof wrht.Profile
	}{{"WRHT", wrhtProf}, {"Ring", wrht.RingProfile(n)}} {
		res, err := wrht.Simulate(wrht.Optical, c.prof, d, wrht.WithOpticalParams(p))
		if err != nil {
			log.Fatal(err)
		}
		table.AddRow("optical ring", c.name, fmt.Sprint(c.prof.NumSteps()), fmt.Sprintf("%.2f", res.Time*1e3))
	}

	// Optical torus (32×32): schedule-based timing through Build.
	tor := topo.NewTorus(32, 32)
	ts, err := wrht.Build(wrht.KindTorus, n, wrht.WithDims(32, 32), wrht.WithWavelengths(waves))
	if err != nil {
		log.Fatal(err)
	}
	if err := core.ValidateTorus(ts, tor, waves); err != nil {
		log.Fatal(err)
	}
	// Torus wavelength reuse is validated per row/column above, not
	// against the flat-ring budget, so skip the ring validator.
	tres, err := wrht.Simulate(wrht.Optical, ts, d,
		wrht.WithOpticalParams(p), wrht.WithoutValidation())
	if err != nil {
		log.Fatal(err)
	}
	table.AddRow("optical 32x32 torus", "WRHT rows+col", fmt.Sprint(ts.NumSteps()), fmt.Sprintf("%.2f", tres.Time*1e3))

	// Electrical fat-tree: same Build and Simulate calls, different
	// backend.
	for _, c := range []struct {
		name string
		kind wrht.Kind
	}{{"Ring", wrht.KindRing}, {"RD", wrht.KindRD}} {
		sched, err := wrht.Build(c.kind, n)
		if err != nil {
			log.Fatal(err)
		}
		res, err := wrht.Simulate(wrht.ElectricalFatTree, sched, d)
		if err != nil {
			log.Fatal(err)
		}
		table.AddRow("electrical fat-tree", c.name, fmt.Sprint(sched.NumSteps()), fmt.Sprintf("%.2f", res.Time*1e3))
	}

	fmt.Println(table)

	// The torus's real advantage is physical (§4.4 + §6.1): its circuits
	// never span more than one row or column, so the worst-case insertion
	// loss is bounded by the row length instead of growing with N.
	flatM := core.Config{N: n, Wavelengths: waves}.EffectiveGroupSize()
	flatLen := phys.MaxCommLength(n, flatM)
	rowLen := phys.MaxCommLength(tor.Cols, flatM)
	fmt.Printf("max circuit length: flat ring %d interfaces vs torus %d (insertion-loss budget, §4.4);\n",
		flatLen, rowLen)
	fmt.Println("on the torus every row reduces in parallel on its own short waveguide (§6.1).")
}
