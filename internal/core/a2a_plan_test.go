package core

import (
	"testing"

	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// runPhaseSteps executes plan steps under snapshot semantics — every
// transfer of a step reads its source's pre-step state — over one
// L-element vector per node, mutating vals in place.
func runPhaseSteps(t *testing.T, steps []Step, vals [][]float64) {
	t.Helper()
	if len(vals) == 0 {
		return
	}
	l := len(vals[0])
	snap := make([][]float64, len(vals))
	for i := range snap {
		snap[i] = make([]float64, l)
	}
	for si := range steps {
		for i := range vals {
			copy(snap[i], vals[i])
		}
		for _, tr := range steps[si].Transfers {
			lo, hi := tr.Chunk.Range(l)
			for k := lo; k < hi; k++ {
				switch tr.Op {
				case tensor.OpSum:
					vals[tr.Dst][k] += snap[tr.Src][k]
				case tensor.OpCopy:
					vals[tr.Dst][k] = snap[tr.Src][k]
				default:
					t.Fatalf("step %d: unknown op %v", si, tr.Op)
				}
			}
		}
	}
}

// checkPhaseAllReduce builds the plan's steps for the representatives,
// validates every round against the budget, and checks that executing
// them leaves every representative with the elementwise sum of all
// representatives' initial vectors (and every other node untouched).
func checkPhaseAllReduce(t *testing.T, ring topo.Ring, reps []int, p PhasePlan, w int) {
	t.Helper()
	steps, err := BuildPhaseSteps(ring, reps, p)
	if err != nil {
		t.Fatalf("build %s: %v", p, err)
	}
	if got, want := len(steps), p.NumSteps(); got != want {
		t.Fatalf("%s emitted %d steps, NumSteps says %d", p, got, want)
	}
	s := &Schedule{Algorithm: "a2a-plan", Ring: ring, Steps: steps}
	if err := s.Validate(w); err != nil {
		t.Fatalf("%s: invalid under budget %d: %v", p, w, err)
	}
	for _, st := range steps {
		if st.Phase != PhaseAllToAll {
			t.Fatalf("%s: step phase %v, every plan round must carry PhaseAllToAll", p, st.Phase)
		}
	}
	const l = 5 // odd length so uneven stripe splits are exercised
	vals := make([][]float64, ring.N)
	want := make([]float64, l)
	inReps := make([]bool, ring.N)
	for i := range vals {
		vals[i] = make([]float64, l)
		for k := range vals[i] {
			vals[i][k] = float64((i+1)*(k+2)) + 1000
		}
	}
	for _, rep := range reps {
		inReps[rep] = true
		for k := 0; k < l; k++ {
			want[k] += vals[rep][k]
		}
	}
	runPhaseSteps(t, steps, vals)
	for i := range vals {
		for k := 0; k < l; k++ {
			if inReps[i] {
				if vals[i][k] != want[k] {
					t.Fatalf("%s: rep %d elem %d = %g, want global sum %g", p, i, k, vals[i][k], want[k])
				}
			} else if vals[i][k] != float64((i+1)*(k+2))+1000 {
				t.Fatalf("%s: non-participant %d elem %d mutated to %g", p, i, k, vals[i][k])
			}
		}
	}
}

// TestPhasePlansAllReduce checks every enumerated plan at a grid of
// (r, w) points: each is budget-feasible, wavelength-conflict-free, and
// semantically an all-reduce among the representatives — both with the
// representatives filling their own ring and scattered across a larger
// one.
func TestPhasePlansAllReduce(t *testing.T) {
	cases := []struct{ r, w int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 4}, {8, 64},
		{16, 8}, {16, 32}, {17, 8}, {32, 8}, {32, 16},
	}
	for _, tc := range cases {
		plans := PhasePlans(tc.r, tc.w)
		if len(plans) == 0 {
			t.Fatalf("r=%d w=%d: no feasible plans", tc.r, tc.w)
		}
		ring := topo.NewRing(tc.r)
		reps := make([]int, tc.r)
		for i := range reps {
			reps[i] = i
		}
		// Scattered representatives on a larger ring, unevenly spaced.
		big := topo.NewRing(3*tc.r + 7)
		scattered := make([]int, tc.r)
		for i := range scattered {
			scattered[i] = 3*i + i%2
		}
		for _, p := range plans {
			checkPhaseAllReduce(t, ring, reps, p, tc.w)
			checkPhaseAllReduce(t, big, scattered, p, tc.w)
		}
	}
}

// TestPhasePlansUncapped checks the w ≤ 0 enumeration used by fabrics
// without circuit semantics: every plan has stripe 1 everywhere and
// still all-reduces (validated uncapped).
func TestPhasePlansUncapped(t *testing.T) {
	for _, r := range []int{2, 5, 16} {
		ring := topo.NewRing(r)
		reps := make([]int, r)
		for i := range reps {
			reps[i] = i
		}
		plans := PhasePlans(r, 0)
		if len(plans) == 0 {
			t.Fatalf("r=%d uncapped: no plans", r)
		}
		for _, p := range plans {
			if p.StaggerStride != 0 {
				t.Fatalf("r=%d uncapped: staggered plan %s enumerated", r, p)
			}
			for _, lv := range p.Levels {
				if lv.Stripe != 1 || lv.BcastStripe != 1 {
					t.Fatalf("r=%d uncapped: striped plan %s", r, p)
				}
			}
			if p.TopA2A && p.TopStripe != 1 {
				t.Fatalf("r=%d uncapped: striped top in %s", r, p)
			}
			checkPhaseAllReduce(t, ring, reps, p, 0)
		}
	}
}

// TestDefaultPhasePlanBeatsFallback checks the heuristic's economics in
// the fallback regime: the chosen plan's serialized payload must be
// strictly below the fallback's 2d (unstriped gather + broadcast)
// whenever the budget allows any striping at all.
func TestDefaultPhasePlanBeatsFallback(t *testing.T) {
	for _, tc := range []struct{ r, w int }{{16, 8}, {32, 16}, {64, 32}, {9, 4}} {
		p, ok := DefaultPhasePlan(tc.r, tc.w)
		if !ok {
			t.Fatalf("r=%d w=%d: no default plan", tc.r, tc.w)
		}
		if p.SerWeight() >= 2 {
			t.Errorf("r=%d w=%d: default plan %s serializes %.3gd, not below the fallback's 2d",
				tc.r, tc.w, p, p.SerWeight())
		}
	}
	// r=16, w=8 is the worked DESIGN.md example: two ×8-striped gather
	// levels of triples, a tiny top exchange, and the striped broadcast
	// mirrors — 5 steps carrying 0.625d of serialized payload, versus
	// the fallback's 2 steps at 2d.
	p, ok := DefaultPhasePlan(16, 8)
	if !ok || p.NumSteps() != 5 || p.SerWeight() != 0.625 {
		t.Fatalf("r=16 w=8 default plan = %s, ok=%v; want the 5-step ser-0.625d k-round(g=3)", p, ok)
	}
}

// TestPlanAllToAllProperty is the regime property over r up to 512:
// with GroupSize pinned to r, StepsWRHT takes the one-shot all-to-all
// iff its requirement fits the budget, and with PlanAllToAll a
// multi-round plan is reported exactly where the gather fallback used
// to fire. Sampled configurations also build and validate.
func TestPlanAllToAllProperty(t *testing.T) {
	for r := 2; r <= 512; r = r + 1 + r/8 {
		req := AllToAllRequirement(r)
		for _, w := range []int{max(r/2, 1), max(r, 2), req, req + 3} {
			if w < r/2 { // config invalid: group needs ⌊r/2⌋ wavelengths
				continue
			}
			cfg := Config{N: r, Wavelengths: w, GroupSize: r}
			st, err := StepsWRHT(cfg)
			if err != nil {
				t.Fatalf("r=%d w=%d: %v", r, w, err)
			}
			if st.AllToAll != (req <= w) {
				t.Fatalf("r=%d w=%d: AllToAll=%v, requirement %d vs budget", r, w, st.AllToAll, req)
			}
			cfg.PlanAllToAll = true
			pst, err := StepsWRHT(cfg)
			if err != nil {
				t.Fatalf("r=%d w=%d planned: %v", r, w, err)
			}
			if pst.Planned != (req > w) {
				t.Fatalf("r=%d w=%d: Planned=%v, want plan exactly in the fallback regime (req %d)", r, w, pst.Planned, req)
			}
			if pst.Planned && pst.PlanSteps < 2 {
				t.Fatalf("r=%d w=%d: planned %d steps", r, w, pst.PlanSteps)
			}
			if r <= 70 { // keep the build/validate sample cheap
				s, err := BuildWRHT(cfg)
				if err != nil {
					t.Fatalf("r=%d w=%d build: %v", r, w, err)
				}
				if err := s.Validate(w); err != nil {
					t.Fatalf("r=%d w=%d: planned schedule invalid: %v", r, w, err)
				}
				if got := len(s.Steps); got != pst.Total {
					t.Fatalf("r=%d w=%d: built %d steps, analysis says %d", r, w, got, pst.Total)
				}
			}
		}
	}
}

// TestPlanAllToAllSchedulesAllReduce executes a full planned WRHT
// schedule in the fallback regime end to end: every node must end with
// the global sum.
func TestPlanAllToAllSchedulesAllReduce(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{64, 4}, {256, 8}} {
		cfg := Config{N: tc.n, Wavelengths: tc.w, PlanAllToAll: true}
		st, err := StepsWRHT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Planned {
			t.Fatalf("N=%d w=%d: expected the planned regime (final r=%d)", tc.n, tc.w, st.FinalGroup)
		}
		s, err := BuildWRHT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(tc.w); err != nil {
			t.Fatalf("N=%d w=%d: %v", tc.n, tc.w, err)
		}
		const l = 5
		vals := make([][]float64, tc.n)
		want := make([]float64, l)
		for i := range vals {
			vals[i] = make([]float64, l)
			for k := range vals[i] {
				vals[i][k] = float64(i*l + k + 1)
				want[k] += vals[i][k]
			}
		}
		runPhaseSteps(t, s.Steps, vals)
		for i := range vals {
			for k := 0; k < l; k++ {
				if vals[i][k] != want[k] {
					t.Fatalf("N=%d w=%d: node %d elem %d = %g, want %g", tc.n, tc.w, i, k, vals[i][k], want[k])
				}
			}
		}
	}
}
