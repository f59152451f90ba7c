package plan

import (
	"testing"

	"wrht/internal/core"
	"wrht/internal/electrical"
	"wrht/internal/fabric"
	"wrht/internal/optical"
	"wrht/internal/topo"
)

func opticalFab(t testing.TB, w int, aSec float64) fabric.Fabric {
	t.Helper()
	p := optical.DefaultParams()
	p.Wavelengths = w
	if aSec > 0 {
		p.ReconfigDelay = aSec
	}
	f, err := p.Fabric()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func identityReps(r int) []int {
	reps := make([]int, r)
	for i := range reps {
		reps[i] = i
	}
	return reps
}

// TestPredictedMatchesSimulated cross-checks the planner's pricing
// against fabric.Engine on both fabrics: the chosen plan's Predicted
// must equal the engine's simulated time bit for bit (both run the
// steps through fabric.Fold), and every other candidate must simulate
// to its own prediction too.
func TestPredictedMatchesSimulated(t *testing.T) {
	const dBytes = 25e6
	cases := []struct {
		name    string
		fab     fabric.Fabric
		budget  int
		r       int
		overlap bool
	}{
		{"optical-r16-w8", opticalFab(t, 8, 0), 8, 16, true},
		{"optical-r32-w8", opticalFab(t, 8, 0), 8, 32, true},
		{"optical-r8-w64", opticalFab(t, 64, 0), 64, 8, true},
		{"optical-no-overlap", opticalFab(t, 8, 0), 8, 16, false},
	}
	if nw, err := electrical.NewNetwork(16, electrical.DefaultParams()); err == nil {
		cases = append(cases, struct {
			name    string
			fab     fabric.Fabric
			budget  int
			r       int
			overlap bool
		}{"electrical-r16", nw.Fabric(), 0, 16, false})
	} else {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring := topo.NewRing(tc.r)
			reps := identityReps(tc.r)
			pl := Planner{Fabric: tc.fab, Budget: tc.budget, Overlap: tc.overlap}
			d, err := pl.Plan(ring, reps, dBytes)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Candidates) == 0 {
				t.Fatal("no candidates")
			}
			eng := fabric.Engine{Fabric: tc.fab, Opts: fabric.Options{Overlap: tc.overlap, ValidateWavelengths: true}}
			for i, c := range d.Candidates {
				steps, err := core.BuildPhaseSteps(ring, reps, c.Plan)
				if err != nil {
					t.Fatalf("candidate %s: %v", c.Plan, err)
				}
				res, err := eng.RunSchedule(&core.Schedule{Algorithm: "a2a-plan", Ring: ring, Steps: steps}, dBytes)
				if err != nil {
					t.Fatalf("candidate %s: %v", c.Plan, err)
				}
				if res.Time != c.Predicted {
					t.Errorf("candidate %s: predicted %.12g s, engine %.12g s", c.Plan, c.Predicted, res.Time)
				}
				if c.Predicted < d.Best().Predicted {
					t.Errorf("candidate %d (%s) beats the chosen plan", i, c.Plan)
				}
			}
			sim, err := eng.RunSchedule(d.Materialize(ring), dBytes)
			if err != nil {
				t.Fatal(err)
			}
			if sim.Time != d.Best().Predicted {
				t.Errorf("chosen %s: predicted %.12g s, simulated %.12g s", d.Best().Plan, d.Best().Predicted, sim.Time)
			}
		})
	}
}

// TestOverlapPrefersStaggeredWhenItWins checks the overlap pricing is
// live: with overlap on, the planner's chosen time is never above the
// overlap-off choice, and staggered candidates price below their packed
// siblings whenever the halved stripes cost less than the hidden
// reconfigurations (small payloads).
func TestOverlapPricingMonotone(t *testing.T) {
	fab := opticalFab(t, 8, 0)
	ring := topo.NewRing(16)
	reps := identityReps(16)
	for _, dBytes := range []float64{1e3, 1e5, 1e7} {
		on := Planner{Fabric: fab, Budget: 8, Overlap: true}
		off := Planner{Fabric: fab, Budget: 8, Overlap: false}
		dOn, err := on.Plan(ring, reps, dBytes)
		if err != nil {
			t.Fatal(err)
		}
		dOff, err := off.Plan(ring, reps, dBytes)
		if err != nil {
			t.Fatal(err)
		}
		if dOn.Best().Predicted > dOff.Best().Predicted {
			t.Errorf("d=%g: overlap-on choice %.12g s slower than overlap-off %.12g s", dBytes, dOn.Best().Predicted, dOff.Best().Predicted)
		}
	}
}

// TestCostArgminConsistent checks the analytic closed form against the
// fabric pricing: the plan Cost ranks cheapest must tie the fabric-
// priced argmin's Cost (Cost ignores the sub-microsecond O/E/O term and
// stripe rounding, so index equality is only guaranteed up to exact
// Cost ties).
func TestCostArgminConsistent(t *testing.T) {
	p := optical.DefaultParams()
	for _, tc := range []struct{ r, w int }{{16, 8}, {32, 8}, {32, 16}, {8, 64}} {
		fab := opticalFab(t, tc.w, 0)
		ring := topo.NewRing(tc.r)
		reps := identityReps(tc.r)
		for _, dBytes := range []float64{1e4, 1e6, 100e6} {
			pl := Planner{Fabric: fab, Budget: tc.w, Overlap: false}
			d, err := pl.Plan(ring, reps, dBytes)
			if err != nil {
				t.Fatal(err)
			}
			minCost := -1.0
			for _, c := range d.Candidates {
				if cost := Cost(c.Plan, dBytes, p.ReconfigDelay, p.BandwidthBps); minCost < 0 || cost < minCost {
					minCost = cost
				}
			}
			chosenCost := Cost(d.Best().Plan, dBytes, p.ReconfigDelay, p.BandwidthBps)
			if rel := (chosenCost - minCost) / minCost; rel > 1e-6 {
				t.Errorf("r=%d w=%d d=%g: chosen plan's analytic cost %.12g exceeds the analytic argmin %.12g (rel %.2g)",
					tc.r, tc.w, dBytes, chosenCost, minCost, rel)
			}
		}
	}
}

// TestPlannerSteadyStateAllocs pins the planner's zero-alloc steady
// state: one warm call caches the (r, w) plan enumeration and sizes the
// pooled builder, probe and candidate buffers, after which repeated
// planning of the same shape allocates nothing.
func TestPlannerSteadyStateAllocs(t *testing.T) {
	fab := opticalFab(t, 8, 0)
	ring := topo.NewRing(32)
	reps := identityReps(32)
	pl := Planner{Fabric: fab, Budget: 8, Overlap: true}
	if _, err := pl.Plan(ring, reps, 64e6); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := pl.Plan(ring, reps, 64e6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Plan allocates %.1f times per call, want 0", allocs)
	}
}

// TestPlannerErrors covers the failure modes.
func TestPlannerErrors(t *testing.T) {
	var empty Planner
	if _, err := empty.Plan(topo.NewRing(4), []int{0, 1}, 1e6); err == nil {
		t.Error("fabric-less planner did not error")
	}
	pl := Planner{Fabric: opticalFab(t, 8, 0), Budget: 8}
	if _, err := pl.Plan(topo.NewRing(4), []int{0, 1}, -1); err == nil {
		t.Error("negative payload did not error")
	}
	if _, err := pl.Plan(topo.NewRing(4), []int{1, 0}, 1e6); err == nil {
		t.Error("descending representatives did not error")
	}
}

// BenchmarkPlanAllToAll measures a full plan decision — enumerate,
// build, validate and price every candidate — at the r=32, w=8 fallback
// regime with a 100 MB payload.
func BenchmarkPlanAllToAll(b *testing.B) {
	fab := opticalFab(b, 8, 0)
	ring := topo.NewRing(32)
	reps := identityReps(32)
	pl := Planner{Fabric: fab, Budget: 8, Overlap: true}
	if _, err := pl.Plan(ring, reps, 100e6); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Plan(ring, reps, 100e6); err != nil {
			b.Fatal(err)
		}
	}
}
