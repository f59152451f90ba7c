package wrht_test

import (
	"fmt"
	"testing"

	"wrht"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	sched, err := wrht.Build(wrht.KindWRHT, 15, wrht.WithWavelengths(2))
	if err != nil {
		t.Fatal(err)
	}
	if sched.NumSteps() != 3 {
		t.Fatalf("steps = %d, want 3", sched.NumSteps())
	}
	inputs := make([]wrht.Vector, 15)
	for i := range inputs {
		inputs[i] = wrht.Vector{float32(i), float32(2 * i)}
	}
	out, err := wrht.AllReduce(sched, inputs, true)
	if err != nil {
		t.Fatal(err)
	}
	for node, v := range out {
		if v[0] != 7 || v[1] != 14 { // mean of 0..14 and 0..28
			t.Fatalf("node %d = %v", node, v)
		}
	}
	// Inputs untouched.
	if inputs[3][0] != 3 {
		t.Fatal("AllReduce mutated inputs")
	}
	res, err := wrht.Simulate(wrht.Optical, sched, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 3 || res.Time <= 0 {
		t.Fatalf("simulation result %+v", res)
	}
}

// mustBuild builds a schedule through the facade or fails the test.
func mustBuild(t *testing.T, kind wrht.Kind, n int, opts ...wrht.BuildOption) *wrht.Schedule {
	t.Helper()
	s, err := wrht.Build(kind, n, opts...)
	if err != nil {
		t.Fatalf("Build(%s, %d): %v", kind, n, err)
	}
	return s
}

func TestFacadeBaselinesAndProfiles(t *testing.T) {
	if mustBuild(t, wrht.KindRing, 8).NumSteps() != 14 {
		t.Fatal("ring steps")
	}
	if mustBuild(t, wrht.KindBT, 8).NumSteps() != 6 {
		t.Fatal("bt steps")
	}
	if mustBuild(t, wrht.KindRD, 8).NumSteps() != 6 {
		t.Fatal("rd steps")
	}
	if mustBuild(t, wrht.KindHRing, 8, wrht.WithGroupSize(2), wrht.WithWavelengths(4)).NumSteps() == 0 {
		t.Fatal("hring steps")
	}
	pr, err := wrht.WRHTProfile(wrht.Config{N: 4096, Wavelengths: 64})
	if err != nil || pr.NumSteps() != 4 {
		t.Fatalf("profile: %v %d", err, pr.NumSteps())
	}
	res, err := wrht.Simulate(wrht.Optical, wrht.RingProfile(1024), 1e6)
	if err != nil || res.Steps != 2046 {
		t.Fatalf("profile sim: %v %+v", err, res)
	}
	if wrht.BTProfile(1024).NumSteps() != 20 || wrht.HRingProfile(100, 5, 64).NumSteps() == 0 {
		t.Fatal("baseline profiles")
	}
}

func TestFacadeAnalysisAndConstraints(t *testing.T) {
	st, err := wrht.Steps(wrht.Config{N: 1024, Wavelengths: 64})
	if err != nil || st.Total != 3 {
		t.Fatalf("Steps: %v %+v", err, st)
	}
	if wrht.LowerBoundSteps(1024, 64) != 4 {
		t.Fatal("lower bound")
	}
	b := wrht.DefaultBudget()
	m := wrht.MaxGroupSize(b, 1024, 129)
	if m < 2 || m > 129 {
		t.Fatalf("MaxGroupSize = %d", m)
	}
	// The constraint clamps the schedule.
	s := mustBuild(t, wrht.KindWRHT, 1024, wrht.WithWavelengths(64), wrht.WithMaxGroupSize(m))
	if s.WavelengthsNeeded() > 64 {
		t.Fatal("constrained schedule exceeds budget")
	}
}

func TestFacadeTorusAndElectrical(t *testing.T) {
	if mustBuild(t, wrht.KindTorus, 16, wrht.WithDims(4, 4), wrht.WithWavelengths(2)).NumSteps() == 0 {
		t.Fatal("torus steps")
	}
	res, err := wrht.Simulate(wrht.ElectricalFatTree, mustBuild(t, wrht.KindRing, 16), 1e6)
	if err != nil || res.Time <= 0 {
		t.Fatalf("electrical: %v %g", err, res.Time)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(wrht.Workloads()) != 4 {
		t.Fatal("workloads")
	}
	if wrht.VGG16().Params() != 138357544 {
		t.Fatal("VGG16 params")
	}
	if wrht.BEiTLarge().GradBytes() <= wrht.ResNet50().GradBytes() {
		t.Fatal("model ordering")
	}
	if wrht.AlexNet().Name != "AlexNet" {
		t.Fatal("alexnet name")
	}
}

// ExampleAllReduce demonstrates the three-line all-reduce flow.
func ExampleAllReduce() {
	sched, _ := wrht.Build(wrht.KindWRHT, 4, wrht.WithWavelengths(2))
	out, _ := wrht.AllReduce(sched, []wrht.Vector{{1}, {2}, {3}, {4}}, true)
	fmt.Println(out[0][0], out[3][0])
	// Output: 2.5 2.5
}

func TestFacadeExtensions(t *testing.T) {
	// Mesh variant (§6.1).
	if mustBuild(t, wrht.KindMesh, 15, wrht.WithDims(3, 5), wrht.WithWavelengths(2)).NumSteps() == 0 {
		t.Fatal("mesh steps")
	}
	// Segment variant (§6.2).
	seg := mustBuild(t, wrht.KindSegment, 32, wrht.WithParticipants(8, 9, 10, 11), wrht.WithWavelengths(4))
	for _, st := range seg.Steps {
		for _, tr := range st.Transfers {
			if tr.Src < 8 || tr.Src > 11 || tr.Dst < 8 || tr.Dst > 11 {
				t.Fatalf("segment escaped span: %v", tr)
			}
		}
	}
	// DBTree and primitives.
	if mustBuild(t, wrht.KindDBTree, 16).NumSteps() != 8 {
		t.Fatal("dbtree steps")
	}
	if mustBuild(t, wrht.KindBroadcast, 16, wrht.WithWavelengths(4), wrht.WithRoot(3)).NumSteps() == 0 {
		t.Fatal("broadcast steps")
	}
	if mustBuild(t, wrht.KindReduce, 16, wrht.WithWavelengths(4), wrht.WithRoot(3)).NumSteps() == 0 {
		t.Fatal("reduce steps")
	}
	if mustBuild(t, wrht.KindReduceScatter, 8).NumSteps() != 7 || mustBuild(t, wrht.KindAllGather, 8).NumSteps() != 7 {
		t.Fatal("rs/ag steps")
	}
	// MRR-level verification through the facade.
	if err := wrht.VerifyMRR(mustBuild(t, wrht.KindWRHT, 64, wrht.WithWavelengths(8))); err != nil {
		t.Fatal(err)
	}
}

// ExampleBuild shows the Fig-2 motivating configuration.
func ExampleBuild() {
	sched, _ := wrht.Build(wrht.KindWRHT, 15, wrht.WithWavelengths(2))
	fmt.Println(sched.NumSteps())
	// Output: 3
}
