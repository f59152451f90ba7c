package optical

import (
	"reflect"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/fabric"
)

// jitterSchedules is the ring/BT/RD/WRHT corpus the jittered-fabric
// tests run over.
func jitterSchedules(t *testing.T) []*core.Schedule {
	t.Helper()
	var scheds []*core.Schedule
	for _, n := range []int{4, 15, 64, 100} {
		s, err := core.BuildWRHT(core.Config{N: n, Wavelengths: 8})
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, s, collective.BuildRing(n), collective.BuildBT(n))
		if n&(n-1) == 0 {
			rd, err := collective.BuildRD(n)
			if err != nil {
				t.Fatal(err)
			}
			scheds = append(scheds, rd)
		}
	}
	return scheds
}

func runOn(t *testing.T, f fabric.Fabric, s *core.Schedule, d float64) fabric.Result {
	t.Helper()
	r, err := fabric.Engine{Fabric: f}.RunSchedule(s, d)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The identity delay must reproduce the unperturbed ring bit for bit,
// per-step breakdown included.
func TestJitteredIdentityMatchesRing(t *testing.T) {
	p := DefaultParams()
	ring, err := p.Fabric()
	if err != nil {
		t.Fatal(err)
	}
	jit, err := p.JitteredFabric(func(nominal float64) float64 { return nominal })
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range jitterSchedules(t) {
		for _, d := range []float64{0, 72, 1e6, 123456789} {
			want := runOn(t, ring, s, d)
			got := runOn(t, jit, s, d)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s N=%d d=%g: jittered %+v != ring %+v", s.Algorithm, s.Ring.N, d, got, want)
			}
		}
	}
}

// Under a perturbing delay the jittered fabric still reports one step
// per schedule step, each of positive duration, summing to the total.
func TestJitteredPerStepReports(t *testing.T) {
	p := DefaultParams()
	s, err := core.BuildWRHT(core.Config{N: 15, Wavelengths: 2})
	if err != nil {
		t.Fatal(err)
	}
	jit, err := p.JitteredFabric(func(nominal float64) float64 { return 1.5 * nominal })
	if err != nil {
		t.Fatal(err)
	}
	res := runOn(t, jit, s, 1e6)
	if len(res.PerStep) != 3 {
		t.Fatalf("per-step reports = %d", len(res.PerStep))
	}
	var sum float64
	for _, r := range res.PerStep {
		if r.Duration() <= 0 {
			t.Fatalf("non-positive step duration: %+v", r)
		}
		sum += r.Duration()
	}
	if diff := sum - res.Time; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("step durations sum %.12f != total %.12f", sum, res.Time)
	}
}

// Slowing any single transfer can only delay the collective, and
// slowing a critical circuit delays it by exactly the extra time.
func TestJitteredSlowTransferNeverFaster(t *testing.T) {
	p := DefaultParams()
	ring, err := p.Fabric()
	if err != nil {
		t.Fatal(err)
	}
	const extra = 10e-3
	slowAt := func(i int) TransferDelay {
		call := 0
		return func(nominal float64) float64 {
			call++
			if call-1 == i {
				return nominal + extra
			}
			return nominal
		}
	}
	const d = 8e6
	for _, s := range jitterSchedules(t) {
		base := runOn(t, ring, s, d)
		for _, i := range []int{0, 1, 7, 40} {
			jit, err := p.JitteredFabric(slowAt(i))
			if err != nil {
				t.Fatal(err)
			}
			if got := runOn(t, jit, s, d); got.Time < base.Time {
				t.Errorf("%s N=%d: slowing transfer %d lowered the time %.12f → %.12f", s.Algorithm, s.Ring.N, i, base.Time, got.Time)
			}
		}
	}
	s, err := core.BuildWRHT(core.Config{N: 64, Wavelengths: 8})
	if err != nil {
		t.Fatal(err)
	}
	jit, err := p.JitteredFabric(slowAt(0))
	if err != nil {
		t.Fatal(err)
	}
	got := runOn(t, jit, s, d).Time - runOn(t, ring, s, d).Time
	if diff := got - extra; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("straggler extended total by %.9f, want %.9f", got, extra)
	}
}

// A negative perturbed duration is clamped to zero: every step then
// costs exactly the reconfiguration delay.
func TestJitteredNegativeDelayClamped(t *testing.T) {
	p := DefaultParams()
	jit, err := p.JitteredFabric(func(float64) float64 { return -5 })
	if err != nil {
		t.Fatal(err)
	}
	r := runOn(t, jit, collective.BuildRing(4), 1e5)
	if r.Steps != 6 {
		t.Fatalf("steps = %d, want 6", r.Steps)
	}
	for i, sr := range r.PerStep {
		if sr.Cost.Total != p.ReconfigDelay {
			t.Errorf("step %d costs %g, want the reconfiguration delay %g", i, sr.Cost.Total, p.ReconfigDelay)
		}
	}
}
