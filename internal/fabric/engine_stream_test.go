package fabric

import (
	"reflect"
	"strings"
	"testing"

	"wrht/internal/core"
	"wrht/internal/rwa"
)

// recorder captures step events by value (deep-copying the step, since
// streamed events alias a reused producer buffer).
type recorder struct {
	events []StepEvent
}

func (r *recorder) StepExecuted(ev StepEvent) {
	st := core.Step{Phase: ev.Step.Phase, Transfers: append([]core.Transfer(nil), ev.Step.Transfers...)}
	ev.Step = &st
	r.events = append(r.events, ev)
}
func (r *recorder) GroupExecuted(GroupEvent) {}

// streamParityCorpus returns named schedules spanning the interesting
// step shapes: WRHT with and without the final all-to-all, RandomFit
// wavelengths, and a handcrafted sequence whose boundaries alternate
// between overlap-disjoint and conflicting.
func streamParityCorpus(t *testing.T) map[string]*core.Schedule {
	t.Helper()
	wrht := func(cfg core.Config) *core.Schedule {
		s, err := core.BuildWRHT(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]*core.Schedule{
		"wrht":        wrht(core.Config{N: 15, Wavelengths: 2}),
		"wrht-random": wrht(core.Config{N: 40, Wavelengths: 4, Strategy: rwa.RandomFit, Seed: 3}),
		"wrht-noa2a":  wrht(core.Config{N: 27, Wavelengths: 4, DisableAllToAll: true}),
		"mixed": sched(8,
			step(0, 1, 0), step(0, 1, 0), // same circuit: conflicting boundary
			step(2, 3, 0), // disjoint boundary
			step(4, 5, 1), // disjoint boundary
			core.Step{},   // empty step
			step(6, 7, 0),
		),
	}
}

// TestRunStreamMatchesRunSchedule pins the streamed execution path
// bit-identical to the materialized one — same Result (times, splits,
// per-step breakdown) and same observer event sequence — across the
// option matrix: overlap off/on, validation on/off.
func TestRunStreamMatchesRunSchedule(t *testing.T) {
	for name, s := range streamParityCorpus(t) {
		type optCase struct {
			name string
			opts Options
		}
		cases := []optCase{
			{"plain", Options{}},
			{"validate", Options{ValidateWavelengths: true}},
			{"overlap-probe", Options{Overlap: true}},
			{"overlap-validate", Options{Overlap: true, ValidateWavelengths: true}},
		}
		for _, oc := range cases {
			f := &stubFabric{setup: 2e-6, perByte: 1e-9, budget: 8}
			recSched := &recorder{}
			opts := oc.opts
			opts.Observer = recSched
			want, err := Engine{Fabric: f, Opts: opts}.RunSchedule(s, 4096)
			if err != nil {
				t.Fatalf("%s/%s: RunSchedule: %v", name, oc.name, err)
			}
			recStream := &recorder{}
			opts.Observer = recStream
			got, err := Engine{Fabric: f, Opts: opts}.RunStream(s.Source(), 4096)
			if err != nil {
				t.Fatalf("%s/%s: RunStream: %v", name, oc.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: streamed result differs:\n got %+v\nwant %+v", name, oc.name, got, want)
			}
			if !reflect.DeepEqual(recStream.events, recSched.events) {
				t.Errorf("%s/%s: observer event sequences differ", name, oc.name)
			}
		}
	}
}

// TestRunStreamValidationError pins the streamed validator's error on a
// conflicting schedule identical to the materialized pre-validation.
func TestRunStreamValidationError(t *testing.T) {
	// Two same-wavelength transfers over overlapping CW arcs.
	bad := sched(8,
		step(0, 1, 0),
		core.Step{Transfers: []core.Transfer{
			step(0, 3, 1).Transfers[0],
			step(1, 4, 1).Transfers[0],
		}},
	)
	f := &stubFabric{setup: 1, perByte: 1, budget: 4}
	opts := Options{ValidateWavelengths: true}
	_, wantErr := Engine{Fabric: f, Opts: opts}.RunSchedule(bad, 1024)
	_, gotErr := Engine{Fabric: f, Opts: opts}.RunStream(bad.Source(), 1024)
	if wantErr == nil || gotErr == nil {
		t.Fatalf("conflicting schedule accepted: sched=%v stream=%v", wantErr, gotErr)
	}
	if gotErr.Error() != wantErr.Error() {
		t.Fatalf("streamed error %q != materialized %q", gotErr, wantErr)
	}
	if !strings.Contains(gotErr.Error(), "step 1") {
		t.Fatalf("error does not name the offending step: %v", gotErr)
	}
}
