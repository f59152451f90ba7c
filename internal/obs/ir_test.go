package obs

import (
	"testing"

	"wrht/internal/ir"
)

func TestIRObserverCountersAndSpans(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer()
	now := 0.0
	tr.Clock = func() float64 { now++; return now }
	o := NewIRObserver(tr, reg)
	o.PassApplied(ir.PassEvent{
		Pass: "split", Changed: true,
		StepsBefore: 3, StepsAfter: 5,
		DisjointBefore: 1, DisjointAfter: 3,
		Seconds: 0.25,
	})
	o.PassApplied(ir.PassEvent{Pass: "split", StepsBefore: 5, StepsAfter: 5, DisjointBefore: 3, DisjointAfter: 3})
	s := reg.Snapshot()
	for name, want := range map[string]int64{
		"ir.pass.split.runs":              2,
		"ir.pass.split.changed":           1,
		"ir.pass.split.boundaries_gained": 2,
		"ir.pass.split.steps_added":       2,
	} {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if tr.Events() != 2 {
		t.Errorf("tracer recorded %d spans, want 2", tr.Events())
	}
}

func TestIRObserverIsNilSafe(t *testing.T) {
	// No sinks at all: must not panic.
	NewIRObserver(nil, nil).PassApplied(ir.PassEvent{Pass: "split"})
	// A tracer without a wall clock must stay span-free: pass timing is
	// wall-clock diagnostics, not simulated time, and must never leak
	// into byte-stable simulated-timeline traces.
	tr := NewTracer()
	NewIRObserver(tr, nil).PassApplied(ir.PassEvent{Pass: "split", Seconds: 1})
	if tr.Events() != 0 {
		t.Errorf("clockless tracer recorded %d events, want 0", tr.Events())
	}
}
