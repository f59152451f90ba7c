package exp

import (
	"testing"

	"wrht/internal/ir"
	"wrht/internal/obs"
)

// TestOverlapSweepManufacturesHiddenReconfigs pins the PR's acceptance
// criterion at the golden configs: with the pass pipeline on, the
// hidden-reconfig count must be strictly greater than the opportunistic
// baseline at N ∈ {1024, 4096}, w=64, without ever making the schedule
// slower.
func TestOverlapSweepManufacturesHiddenReconfigs(t *testing.T) {
	o := Defaults()
	o.Metrics = obs.NewRegistry()
	r, err := OverlapSweep(o, []int{1024, 4096}, 64, 100e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(r.Points))
	}
	for _, pt := range r.Points {
		if pt.PassHidden <= pt.BaselineHidden {
			t.Errorf("N=%d: pass hidden count %d not > baseline %d", pt.N, pt.PassHidden, pt.BaselineHidden)
		}
		if pt.PassSaved <= pt.BaselineSaved {
			t.Errorf("N=%d: pass saved %g not > baseline %g", pt.N, pt.PassSaved, pt.BaselineSaved)
		}
		// The split pass must never slow the schedule down: the setup it
		// adds has to be hidden (tiny float slack for the re-summation).
		if pt.PassTime > pt.BaselineTime+1e-9 {
			t.Errorf("N=%d: pass time %g exceeds baseline %g", pt.N, pt.PassTime, pt.BaselineTime)
		}
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["ir.pass.split.runs"]; got != 2 {
		t.Errorf("ir.pass.split.runs = %d, want 2 (one per sweep point)", got)
	}
	if got := snap.Counters["ir.pass.split.boundaries_gained"]; got < 2 {
		t.Errorf("split gained %d disjoint boundaries across the sweep, want >= 2", got)
	}
}

// TestOverlapSweepIdentityPipeline: an empty (non-nil) pass list is the
// round-trip control — both runs time the same schedule and must agree
// exactly.
func TestOverlapSweepIdentityPipeline(t *testing.T) {
	r, err := OverlapSweep(Defaults(), []int{64, 1024}, 64, 100e6, []ir.Pass{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range r.Points {
		if pt.PassSteps != pt.BaselineSteps || pt.PassHidden != pt.BaselineHidden ||
			pt.PassSaved != pt.BaselineSaved || pt.PassTime != pt.BaselineTime {
			t.Errorf("N=%d: identity pipeline diverged from baseline: %+v", pt.N, pt)
		}
	}
}

// TestOverlapSweepGolden pins every OverlapPoint field with == across
// N ∈ {1024, 4096} × w ∈ {8, 64} × payload ∈ {1, 100} MB, under the
// default pipeline and the identity pipeline. Any change to how a step
// boundary decides between holding and reconfiguring its circuits
// shows up here.
func TestOverlapSweepGolden(t *testing.T) {
	want := []OverlapPoint{
		// Default pipeline, w=8.
		{N: 1024, W: 8, BaselineSteps: 5, PassSteps: 6, BaselineHidden: 0, PassHidden: 1, BaselineSaved: 0, PassSaved: 2.5e-05, BaselineTime: 0.001125034514165, PassTime: 0.001125034514662},
		{N: 4096, W: 8, BaselineSteps: 6, PassSteps: 6, BaselineHidden: 1, PassHidden: 1, BaselineSaved: 2.5e-05, PassSaved: 2.5e-05, BaselineTime: 0.001325041416998, PassTime: 0.001325041416998},
		{N: 1024, W: 8, BaselineSteps: 5, PassSteps: 6, BaselineHidden: 0, PassHidden: 1, BaselineSaved: 0, PassSaved: 2.5e-05, BaselineTime: 0.10012845138916501, PassTime: 0.100128451389662},
		{N: 4096, W: 8, BaselineSteps: 6, PassSteps: 6, BaselineHidden: 1, PassHidden: 1, BaselineSaved: 2.5e-05, PassSaved: 2.5e-05, BaselineTime: 0.12012914166699801, PassTime: 0.12012914166699801},
		// Default pipeline, w=64.
		{N: 1024, W: 64, BaselineSteps: 3, PassSteps: 4, BaselineHidden: 0, PassHidden: 1, BaselineSaved: 0, PassSaved: 2.5e-05, BaselineTime: 0.000675020708499, PassTime: 0.0006750207089960001},
		{N: 4096, W: 64, BaselineSteps: 4, PassSteps: 6, BaselineHidden: 1, PassHidden: 3, BaselineSaved: 2.5e-05, PassSaved: 7.500000000000001e-05, BaselineTime: 0.000875027611332, PassTime: 0.0008750276123260001},
		{N: 1024, W: 64, BaselineSteps: 3, PassSteps: 4, BaselineHidden: 0, PassHidden: 1, BaselineSaved: 0, PassSaved: 2.5e-05, BaselineTime: 0.060077070833499, PassTime: 0.06007707083399601},
		{N: 4096, W: 64, BaselineSteps: 4, PassSteps: 6, BaselineHidden: 1, PassHidden: 3, BaselineSaved: 2.5e-05, PassSaved: 7.500000000000001e-05, BaselineTime: 0.08007776111133201, PassTime: 0.080077761112326},
		// Identity pipeline, w=8.
		{N: 1024, W: 8, BaselineSteps: 5, PassSteps: 5, BaselineHidden: 0, PassHidden: 0, BaselineSaved: 0, PassSaved: 0, BaselineTime: 0.001125034514165, PassTime: 0.001125034514165},
		{N: 4096, W: 8, BaselineSteps: 6, PassSteps: 6, BaselineHidden: 1, PassHidden: 1, BaselineSaved: 2.5e-05, PassSaved: 2.5e-05, BaselineTime: 0.001325041416998, PassTime: 0.001325041416998},
		{N: 1024, W: 8, BaselineSteps: 5, PassSteps: 5, BaselineHidden: 0, PassHidden: 0, BaselineSaved: 0, PassSaved: 0, BaselineTime: 0.10012845138916501, PassTime: 0.10012845138916501},
		{N: 4096, W: 8, BaselineSteps: 6, PassSteps: 6, BaselineHidden: 1, PassHidden: 1, BaselineSaved: 2.5e-05, PassSaved: 2.5e-05, BaselineTime: 0.12012914166699801, PassTime: 0.12012914166699801},
		// Identity pipeline, w=64.
		{N: 1024, W: 64, BaselineSteps: 3, PassSteps: 3, BaselineHidden: 0, PassHidden: 0, BaselineSaved: 0, PassSaved: 0, BaselineTime: 0.000675020708499, PassTime: 0.000675020708499},
		{N: 4096, W: 64, BaselineSteps: 4, PassSteps: 4, BaselineHidden: 1, PassHidden: 1, BaselineSaved: 2.5e-05, PassSaved: 2.5e-05, BaselineTime: 0.000875027611332, PassTime: 0.000875027611332},
		{N: 1024, W: 64, BaselineSteps: 3, PassSteps: 3, BaselineHidden: 0, PassHidden: 0, BaselineSaved: 0, PassSaved: 0, BaselineTime: 0.060077070833499, PassTime: 0.060077070833499},
		{N: 4096, W: 64, BaselineSteps: 4, PassSteps: 4, BaselineHidden: 1, PassHidden: 1, BaselineSaved: 2.5e-05, PassSaved: 2.5e-05, BaselineTime: 0.08007776111133201, PassTime: 0.08007776111133201},
	}
	var got []OverlapPoint
	for _, passes := range [][]ir.Pass{nil, {}} {
		for _, w := range []int{8, 64} {
			for _, mb := range []float64{1, 100} {
				r, err := OverlapSweep(Defaults(), []int{1024, 4096}, w, mb*1e6, passes)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, r.Points...)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
