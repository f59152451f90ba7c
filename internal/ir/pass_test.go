package ir

import (
	"testing"

	"wrht/internal/core"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// tstep builds a one-transfer CW step.
func tstep(src, dst int, c tensor.Chunk, w int) core.Step {
	return core.Step{Transfers: []core.Transfer{
		{Src: src, Dst: dst, Chunk: c, Op: tensor.OpSum, Dir: topo.CW, Wavelength: w},
	}}
}

func lowerSteps(t *testing.T, n int, steps ...core.Step) *Program {
	t.Helper()
	p, err := Lower(&core.Schedule{Algorithm: "t", Ring: topo.NewRing(n), Steps: steps}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSplitManufacturesDisjointBoundary(t *testing.T) {
	s := &core.Schedule{Algorithm: "t", Ring: topo.NewRing(8), Steps: []core.Step{
		tstep(0, 4, tensor.Whole, 0),
	}}
	p, err := Lower(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	sp := &Split{SetupSeconds: 25e-6, BytesPerSecond: 5e9, PayloadBytes: 100e6}
	changed, err := sp.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || len(p.Steps) != 2 {
		t.Fatalf("split changed=%v steps=%d, want true/2", changed, len(p.Steps))
	}
	if got := p.DisjointBoundaries(); got != 1 {
		t.Errorf("internal boundary disjoint count %d, want 1", got)
	}
	// Halves: same route, wavelengths shifted by W=1, chunks partition
	// the original elements exactly at any vector length.
	a, b := p.Steps[0].Transfers[0], p.Steps[1].Transfers[0]
	if a.Wavelength != 0 || b.Wavelength != 1 {
		t.Errorf("wavelengths %d/%d, want 0/1", a.Wavelength, b.Wavelength)
	}
	for _, n := range []int{7, 8, 100, 101} {
		alo, ahi := a.Chunk.Range(n)
		blo, bhi := b.Chunk.Range(n)
		if alo != 0 || ahi != blo || bhi != n {
			t.Errorf("n=%d: halves [%d,%d)+[%d,%d) do not partition [0,%d)", n, alo, ahi, blo, bhi, n)
		}
	}
	if err := p.check(); err != nil {
		t.Errorf("split output invalid: %v", err)
	}
}

func TestSplitRespectsGates(t *testing.T) {
	s := &core.Schedule{Algorithm: "t", Ring: topo.NewRing(8), Steps: []core.Step{
		tstep(0, 4, tensor.Whole, 1),
	}}
	// Budget gate: the step uses wavelength count 2 (λ1), doubling needs
	// 4 > budget 3.
	p, err := Lower(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp := &Split{SetupSeconds: 25e-6, BytesPerSecond: 5e9, PayloadBytes: 100e6}
	if changed, _ := sp.Apply(p); changed {
		t.Error("split ignored the wavelength budget")
	}
	// Profitability gate: a payload whose half-transmission undercuts
	// the setup delay must not be split (it would stretch the schedule).
	p2, err := Lower(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	tiny := &Split{SetupSeconds: 25e-6, BytesPerSecond: 5e9, PayloadBytes: 1e3}
	if changed, _ := tiny.Apply(p2); changed {
		t.Error("split ignored the profitability gate")
	}
	// No cap: every step that passes the gates is split.
	p3 := lowerSteps(t, 8, tstep(0, 4, tensor.Whole, 0), tstep(1, 5, tensor.Whole, 0))
	if _, err := sp.Apply(p3); err != nil {
		t.Fatal(err)
	}
	if len(p3.Steps) != 4 {
		t.Errorf("two splittable steps became %d steps, want 4", len(p3.Steps))
	}
}

// passEventRecorder captures pipeline observer events.
type passEventRecorder struct{ events []PassEvent }

func (r *passEventRecorder) PassApplied(ev PassEvent) { r.events = append(r.events, ev) }

// nopPass is a pass that never changes the program.
type nopPass struct{}

func (nopPass) Name() string                 { return "nop" }
func (nopPass) Apply(*Program) (bool, error) { return false, nil }

func TestPipelineObserverSeesEveryPass(t *testing.T) {
	p := lowerSteps(t, 8,
		tstep(0, 2, tensor.Whole, 0),
		tstep(1, 3, tensor.Whole, 0),
		tstep(4, 6, tensor.Whole, 0),
		tstep(5, 7, tensor.Whole, 0),
	)
	rec := &passEventRecorder{}
	if err := (Pipeline{Passes: append(testPasses(), nopPass{}), Observer: rec}).Run(p); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != 2 {
		t.Fatalf("observer saw %d events, want 2", len(rec.events))
	}
	se := rec.events[0]
	if se.Pass != "split" || !se.Changed || se.StepsAfter <= se.StepsBefore || se.DisjointAfter <= se.DisjointBefore {
		t.Errorf("split event %+v, want changed with more steps and disjoint boundaries", se)
	}
	ne := rec.events[1]
	if ne.Pass != "nop" || ne.Changed || ne.StepsAfter != se.StepsAfter || ne.DisjointBefore != ne.DisjointAfter {
		t.Errorf("nop event %+v, want an unchanged program", ne)
	}
	for _, ev := range rec.events {
		if ev.Seconds < 0 {
			t.Errorf("pass %s has negative duration %g", ev.Pass, ev.Seconds)
		}
	}
}

// conflictingPass deliberately breaks the program to prove the pipeline
// re-validates after every mutating pass.
type conflictingPass struct{}

func (conflictingPass) Name() string { return "sabotage" }
func (conflictingPass) Apply(p *Program) (bool, error) {
	for i := range p.Steps[0].Transfers {
		p.Steps[0].Transfers[i].Wavelength = 1 << 20 // far beyond any budget
	}
	return true, nil
}

func TestPipelineRejectsInvalidPassOutput(t *testing.T) {
	s, err := core.BuildWRHT(core.Config{N: 16, Wavelengths: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Lower(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := (Pipeline{Passes: []Pass{conflictingPass{}}}).Run(p); err == nil {
		t.Error("pipeline accepted an over-budget pass output")
	}
}

// TestPassesManufactureOverlapOnWRHT is the pass framework's figure of
// merit at the IR level: on the golden configs the natural WRHT
// schedule has 0 (N=1024) and 1 (N=4096) overlap-eligible boundaries,
// and the pass pipeline must strictly improve both (the engine-level counterpart is
// asserted in internal/exp and in CI).
func TestPassesManufactureOverlapOnWRHT(t *testing.T) {
	for _, tc := range []struct {
		n, baseline, want int
	}{
		{1024, 0, 1}, // split the all-to-all exchange
		{4096, 1, 3}, // split the level-2 gather and broadcast
	} {
		s, err := core.BuildWRHT(core.Config{N: tc.n, Wavelengths: 64})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Lower(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.DisjointBoundaries(); got != tc.baseline {
			t.Errorf("N=%d: natural schedule has %d disjoint boundaries, want %d", tc.n, got, tc.baseline)
		}
		if err := (Pipeline{Passes: testPasses()}).Run(p); err != nil {
			t.Fatal(err)
		}
		if got := p.DisjointBoundaries(); got < tc.want {
			t.Errorf("N=%d: passes yield %d disjoint boundaries, want >= %d", tc.n, got, tc.want)
		} else if got <= tc.baseline {
			t.Errorf("N=%d: passes did not improve on the %d-boundary baseline", tc.n, tc.baseline)
		}
	}
}
