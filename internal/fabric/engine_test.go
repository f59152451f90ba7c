package fabric

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"wrht/internal/core"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// stubFabric is a minimal deterministic backend: setup is a constant,
// transmission is perByte times the step's largest payload.
type stubFabric struct {
	setup     float64
	perByte   float64
	budget    int
	budgetErr error
	checkErr  error
	costCalls int
}

func (f *stubFabric) Name() string                       { return "stub" }
func (f *stubFabric) CheckSchedule(*core.Schedule) error { return f.checkErr }
func (f *stubFabric) CircuitBudget(bool) (int, error)    { return f.budget, f.budgetErr }
func (f *stubFabric) GroupCost(bytes float64) StepCost {
	ser := bytes * f.perByte
	return StepCost{Setup: f.setup, Serialization: ser, Total: f.setup + ser, MaxBytes: bytes}
}

func (f *stubFabric) StepCost(st core.Step, elems int) StepCost {
	f.costCalls++
	var maxBytes float64
	for _, t := range st.Transfers {
		if b := float64(t.Chunk.Bytes(elems)); b > maxBytes {
			maxBytes = b
		}
	}
	return f.GroupCost(maxBytes)
}

func whole() tensor.Chunk { return tensor.Chunk{Index: 0, Of: 1} }

// step builds a one-transfer step src->dst on wavelength w, CW.
func step(src, dst, w int) core.Step {
	return core.Step{Transfers: []core.Transfer{
		{Src: src, Dst: dst, Chunk: whole(), Dir: topo.CW, Wavelength: w},
	}}
}

func sched(n int, steps ...core.Step) *core.Schedule {
	return &core.Schedule{Algorithm: "test", Ring: topo.NewRing(n), Steps: steps}
}

func TestOverlapHidesSetupUnderDisjointPreviousStep(t *testing.T) {
	// Steps 0->1 and 2->3 share (CW, λ0) but their ring arcs are
	// disjoint, so step 2's setup can retune under step 1's transmission.
	f := &stubFabric{setup: 1, perByte: 0.1}
	s := sched(8, step(0, 1, 0), step(2, 3, 0))
	dBytes := 400.0 // transmission 40 >> setup 1
	base, err := Engine{Fabric: f}.RunSchedule(s, dBytes)
	if err != nil {
		t.Fatal(err)
	}
	over, err := Engine{Fabric: f, Opts: Options{Overlap: true}}.RunSchedule(s, dBytes)
	if err != nil {
		t.Fatal(err)
	}
	if over.OverlapSaved != f.setup {
		t.Errorf("OverlapSaved = %g, want full setup %g", over.OverlapSaved, f.setup)
	}
	if got, want := base.Time-over.Time, over.OverlapSaved; got != want {
		t.Errorf("time drop %g != OverlapSaved %g", got, want)
	}
	if over.PerStep[0].Overlapped != 0 {
		t.Error("first step can never overlap: there is no previous transmission")
	}
	if over.PerStep[1].Overlapped != f.setup {
		t.Errorf("step 1 overlapped %g, want %g", over.PerStep[1].Overlapped, f.setup)
	}
	// OverheadTime still reports the full setup cost; only Time shrinks.
	if over.OverheadTime != base.OverheadTime {
		t.Errorf("OverheadTime changed under overlap: %g != %g", over.OverheadTime, base.OverheadTime)
	}
}

func TestOverlapClampsToPreviousTransmission(t *testing.T) {
	// Transmission 0.4 < setup 1: only 0.4 of the setup can hide.
	f := &stubFabric{setup: 1, perByte: 0.001}
	s := sched(8, step(0, 1, 0), step(2, 3, 0))
	over, err := Engine{Fabric: f, Opts: Options{Overlap: true}}.RunSchedule(s, 400)
	if err != nil {
		t.Fatal(err)
	}
	// The engine recovers the previous transmission as Total − Setup,
	// so the expectation mirrors that expression.
	wantHidden := (f.setup + 400*0.001) - f.setup
	if over.OverlapSaved != wantHidden {
		t.Errorf("OverlapSaved = %g, want clamp to previous transmission %g", over.OverlapSaved, wantHidden)
	}
}

func TestOverlapRejectedOnConflictingSteps(t *testing.T) {
	// Arcs [0,4) and [2,6) overlap on the same (CW, λ0) resources: the
	// rwa validator must reject the boundary and the engine must fall
	// back to sequential setup.
	f := &stubFabric{setup: 1, perByte: 0.1}
	s := sched(8, step(0, 4, 0), step(2, 6, 0))
	over, err := Engine{Fabric: f, Opts: Options{Overlap: true}}.RunSchedule(s, 400)
	if err != nil {
		t.Fatal(err)
	}
	if over.OverlapSaved != 0 {
		t.Errorf("conflicting circuits overlapped: saved %g", over.OverlapSaved)
	}
	// Same arcs on different wavelengths are disjoint again.
	s2 := sched(8, step(0, 4, 0), step(2, 6, 1))
	over2, err := Engine{Fabric: f, Opts: Options{Overlap: true}}.RunSchedule(s2, 400)
	if err != nil {
		t.Fatal(err)
	}
	if over2.OverlapSaved != f.setup {
		t.Errorf("distinct-wavelength circuits should overlap, saved %g", over2.OverlapSaved)
	}
}

func TestOverlapNoopWhenSetupFree(t *testing.T) {
	f := &stubFabric{setup: 0, perByte: 0.1}
	s := sched(8, step(0, 1, 0), step(2, 3, 0))
	over, err := Engine{Fabric: f, Opts: Options{Overlap: true}}.RunSchedule(s, 400)
	if err != nil {
		t.Fatal(err)
	}
	if over.OverlapSaved != 0 {
		t.Errorf("setup-free fabric saved %g", over.OverlapSaved)
	}
}

func TestProfileRunRejectsOverlap(t *testing.T) {
	f := &stubFabric{setup: 1, perByte: 1}
	pr := core.Profile{Algorithm: "p", Groups: []core.ProfileGroup{{Steps: 2, FracOfD: 1}}}
	if _, err := (Engine{Fabric: f, Opts: Options{Overlap: true}}).RunProfile(pr, 100); err == nil {
		t.Fatal("profile run accepted overlap mode")
	}
	res, err := Engine{Fabric: f}.RunProfile(pr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (1 + 100.0); res.Time != want {
		t.Errorf("profile time %g, want %g", res.Time, want)
	}
}

func TestEngineSurfacesFabricErrors(t *testing.T) {
	boom := errors.New("boom")
	s := sched(8, step(0, 1, 0))
	if _, err := (Engine{Fabric: &stubFabric{checkErr: boom}}).RunSchedule(s, 100); !errors.Is(err, boom) {
		t.Errorf("CheckSchedule error lost: %v", err)
	}
	if _, err := (Engine{Fabric: &stubFabric{budgetErr: boom}}).RunSchedule(s, 100); !errors.Is(err, boom) {
		t.Errorf("CircuitBudget error lost: %v", err)
	}
	pr := core.Profile{Groups: []core.ProfileGroup{{Steps: 1, FracOfD: 1}}}
	if _, err := (Engine{Fabric: &stubFabric{budgetErr: boom}}).RunProfile(pr, 100); !errors.Is(err, boom) {
		t.Errorf("profile CircuitBudget error lost: %v", err)
	}
}

func TestValidateWavelengthsEnforcesBudget(t *testing.T) {
	f := &stubFabric{setup: 1, perByte: 1, budget: 1}
	s := sched(8, step(0, 1, 3)) // wavelength 3 beyond budget 1
	if _, err := (Engine{Fabric: f, Opts: Options{ValidateWavelengths: true}}).RunSchedule(s, 100); err == nil {
		t.Fatal("over-budget wavelength accepted")
	}
	if _, err := (Engine{Fabric: f}).RunSchedule(s, 100); err != nil {
		t.Fatalf("validation off should not reject: %v", err)
	}
}

func TestRunBucketsSumsProfiles(t *testing.T) {
	f := &stubFabric{setup: 1, perByte: 1}
	pr := core.Profile{Algorithm: "p", Groups: []core.ProfileGroup{{Steps: 3, FracOfD: 0.5}}}
	res, err := Engine{Fabric: f}.RunBuckets(pr, []float64{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	one, _ := Engine{Fabric: f}.RunProfile(pr, 100)
	two, _ := Engine{Fabric: f}.RunProfile(pr, 200)
	if res.Time != one.Time+two.Time || res.Steps != one.Steps+two.Steps {
		t.Errorf("buckets %+v != %+v + %+v", res, one, two)
	}
}

// TestRunBucketsCarriesEveryField walks the Result struct by reflection
// so a future additive field cannot silently be dropped from the bucket
// sum the way OverlapSaved once was: every numeric field of the bucket
// total must equal the sum over per-bucket results, every string field
// must match, and PerStep must stay nil (the documented omission — the
// breakdown would not identify which bucket a step belongs to).
func TestRunBucketsCarriesEveryField(t *testing.T) {
	f := &stubFabric{setup: 1, perByte: 1}
	pr := core.Profile{Algorithm: "p", Groups: []core.ProfileGroup{{Steps: 3, FracOfD: 0.5}, {Steps: 1, FracOfD: 1}}}
	buckets := []float64{100, 200, 400}
	total, err := Engine{Fabric: f}.RunBuckets(pr, buckets)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]Result, len(buckets))
	for i, b := range buckets {
		if parts[i], err = (Engine{Fabric: f}).RunProfile(pr, b); err != nil {
			t.Fatal(err)
		}
	}
	tv := reflect.ValueOf(total)
	rt := tv.Type()
	for fi := 0; fi < rt.NumField(); fi++ {
		name := rt.Field(fi).Name
		switch rt.Field(fi).Type.Kind() {
		case reflect.Float64:
			want := 0.0
			for _, p := range parts {
				want += reflect.ValueOf(p).Field(fi).Float()
			}
			if got := tv.Field(fi).Float(); got != want {
				t.Errorf("field %s: bucket total %g != per-bucket sum %g", name, got, want)
			}
		case reflect.Int:
			want := int64(0)
			for _, p := range parts {
				want += reflect.ValueOf(p).Field(fi).Int()
			}
			if got := tv.Field(fi).Int(); got != want {
				t.Errorf("field %s: bucket total %d != per-bucket sum %d", name, got, want)
			}
		case reflect.String:
			for _, p := range parts {
				if got, want := tv.Field(fi).String(), reflect.ValueOf(p).Field(fi).String(); got != want {
					t.Errorf("field %s: bucket total %q != per-bucket %q", name, got, want)
				}
			}
		case reflect.Slice:
			if name != "PerStep" {
				t.Errorf("unexpected slice field %s: decide how RunBuckets handles it", name)
			} else if !tv.Field(fi).IsNil() {
				t.Error("PerStep must stay nil in bucket totals (documented omission)")
			}
		default:
			t.Errorf("field %s has kind %s: extend this test", name, rt.Field(fi).Type.Kind())
		}
	}
}

// manyBoundarySchedule builds a 32-step schedule whose consecutive steps
// occupy disjoint one-segment arcs, so overlap mode probes (and accepts)
// every one of its 31 boundaries.
func manyBoundarySchedule() *core.Schedule {
	steps := make([]core.Step, 32)
	for i := range steps {
		steps[i] = step(2*i, 2*i+1, 0)
	}
	return sched(64, steps...)
}

// TestOverlapProbeReusesAllocations pins the allocation profile of the
// overlap path: one occupancy index (plus its request buffers) serves
// all boundaries of a run, where the old disjointSteps built a fresh
// rwa.NewIndex — roughly ten allocations — per boundary.
func TestOverlapProbeReusesAllocations(t *testing.T) {
	s := manyBoundarySchedule()
	f := &stubFabric{setup: 1, perByte: 0.1}
	eng := Engine{Fabric: f, Opts: Options{Overlap: true}}
	run := func() {
		if _, err := eng.RunSchedule(s, 400); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up outside the measurement
	allocs := testing.AllocsPerRun(10, run)
	// ~16 today: the PerStep growth doublings, one probe + index, and the
	// three pooled request buffers. The pre-fix engine cost ~10 per
	// boundary (~310 for this schedule); 25 leaves headroom for runtime
	// jitter while still failing hard on any per-boundary regression.
	if allocs > 25 {
		t.Errorf("overlap run allocates %.0f times for 31 boundaries, want <= 25 (one shared probe index)", allocs)
	}
}

// TestPrecomputedBoundariesMatchProbe pins the overlap probe's own
// verdicts, which are the only boundary decisions the engine takes.
func TestPrecomputedBoundariesMatchProbe(t *testing.T) {
	// Boundary 0 (steps 0-1) is rwa-disjoint; boundary 1 (steps 1-2)
	// clashes on (CW, λ0) over overlapping arcs.
	s := sched(8, step(0, 1, 0), step(2, 3, 0), step(1, 4, 0))
	f := &stubFabric{setup: 1, perByte: 0.1}
	probed, err := Engine{Fabric: f, Opts: Options{Overlap: true}}.RunSchedule(s, 400)
	if err != nil {
		t.Fatal(err)
	}
	if probed.PerStep[1].Overlapped != f.setup || probed.PerStep[2].Overlapped != 0 {
		t.Errorf("probe verdicts: want boundary 0 hidden and boundary 1 not, got %+v", probed.PerStep)
	}
	// Without overlap mode no boundary hides anything.
	off, err := Engine{Fabric: f}.RunSchedule(s, 400)
	if err != nil {
		t.Fatal(err)
	}
	if off.OverlapSaved != 0 {
		t.Errorf("non-overlap run hid %g s of setup", off.OverlapSaved)
	}
}

func TestRunScheduleRejectsGarbagePayloadSizes(t *testing.T) {
	f := &stubFabric{setup: 1, perByte: 1}
	s := sched(8, step(0, 1, 0))
	for _, d := range []float64{math.NaN(), math.Inf(1), -4} {
		if _, err := (Engine{Fabric: f}).RunSchedule(s, d); err == nil {
			t.Errorf("RunSchedule accepted payload size %g", d)
		}
		if _, err := (Engine{Fabric: f}).RunScheduleFaulted(s, d, FaultOptions{}); err == nil {
			t.Errorf("RunScheduleFaulted accepted payload size %g", d)
		}
	}
}

// A Fold reused across Reset and Restart calls, as the planner reuses
// it, must reproduce the engine's result on every sequence, charging
// StepCost once per step, and with the caller's PerStep buffer recycled
// the steady state allocates nothing (the probe is pooled).
func TestFoldReuseAcrossResets(t *testing.T) {
	s := manyBoundarySchedule()
	const d = 400
	elems, err := core.ElemsOf(d)
	if err != nil {
		t.Fatal(err)
	}
	f := &stubFabric{setup: 1, perByte: 0.1}
	eng := Engine{Fabric: f, Opts: Options{Overlap: true}}
	want, err := eng.RunSchedule(s, d)
	if err != nil {
		t.Fatal(err)
	}
	fd := Fold{Engine: eng}
	var res Result
	fold := func() {
		res = Result{Fabric: want.Fabric, Algorithm: want.Algorithm, PerStep: res.PerStep[:0]}
		for k := range s.Steps {
			fd.Step(&res, &s.Steps[k], elems)
		}
	}
	run := func() {
		fd.Reset(s.Ring)
		fold()
	}
	for i := 0; i < 2; i++ {
		f.costCalls = 0
		run()
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("run %d: fold %+v != engine %+v", i, res, want)
		}
		if f.costCalls != len(s.Steps) {
			t.Errorf("run %d: %d StepCost calls for %d steps", i, f.costCalls, len(s.Steps))
		}
	}
	f.costCalls = 0
	fd.Restart()
	fold()
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("after Restart: fold %+v != engine %+v", res, want)
	}
	if f.costCalls != len(s.Steps) {
		t.Errorf("after Restart: %d StepCost calls for %d steps", f.costCalls, len(s.Steps))
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("reused fold allocates %.0f times per run, want 0", allocs)
	}
}
