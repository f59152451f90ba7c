package ir

import (
	"reflect"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// builders enumerates the schedule kinds the differential tests fuzz
// over. Each returns the schedule and the wavelength budget it was
// built for (0 = uncapped), or an error when the (n, w) point is not
// constructible for that kind (skipped).
var builders = map[string]func(n, w int) (*core.Schedule, int, error){
	"wrht": func(n, w int) (*core.Schedule, int, error) {
		s, err := core.BuildWRHT(core.Config{N: n, Wavelengths: w})
		return s, w, err
	},
	"ring": func(n, w int) (*core.Schedule, int, error) {
		return collective.BuildRing(n), 0, nil
	},
	"bt": func(n, w int) (*core.Schedule, int, error) {
		return collective.BuildBT(n), 0, nil
	},
	"rd": func(n, w int) (*core.Schedule, int, error) {
		s, err := collective.BuildRD(n)
		return s, 0, err
	},
	"hring": func(n, w int) (*core.Schedule, int, error) {
		s, err := collective.BuildHRing(n, 4, w)
		return s, w, err
	},
	"reduce": func(n, w int) (*core.Schedule, int, error) {
		s, err := collective.BuildReduce(n, w, 0)
		return s, w, err
	},
}

// testPasses is the full pipeline with a profitable split gate (25 µs
// setup, 40 Gb/s line rate, 100 MB payload — the paper's defaults).
func testPasses() []Pass {
	return []Pass{&Split{SetupSeconds: 25e-6, BytesPerSecond: 5e9, PayloadBytes: 100e6}}
}

// TestRoundTripIsExact is the differential property test: for every
// kind × N × w, lower → (no passes) → raise must reproduce the original
// schedule exactly, so the passes-off engine path is bit-identical by
// construction.
func TestRoundTripIsExact(t *testing.T) {
	for name, build := range builders {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 16, 17, 32} {
			for _, w := range []int{1, 2, 4, 8} {
				s, budget, err := build(n, w)
				if err != nil {
					continue // point not constructible for this kind
				}
				p, err := Lower(s, budget)
				if err != nil {
					t.Fatalf("%s n=%d w=%d: lower: %v", name, n, w, err)
				}
				r := p.Raise()
				if !reflect.DeepEqual(s, r) {
					t.Errorf("%s n=%d w=%d: round trip diverged\n in: %+v\nout: %+v", name, n, w, s, r)
				}
			}
		}
	}
}

// TestPipelineOutputStaysValid asserts every pass pipeline output still
// satisfies Schedule.Validate under the budget it was lowered with, and
// that the program's disjoint-boundary count agrees with a fresh lower
// of the raised schedule.
func TestPipelineOutputStaysValid(t *testing.T) {
	for name, build := range builders {
		for _, n := range []int{2, 4, 5, 8, 16, 32} {
			for _, w := range []int{2, 4, 8} {
				s, budget, err := build(n, w)
				if err != nil {
					continue
				}
				p, err := Lower(s, budget)
				if err != nil {
					t.Fatalf("%s n=%d w=%d: lower: %v", name, n, w, err)
				}
				if err := (Pipeline{Passes: testPasses()}).Run(p); err != nil {
					t.Fatalf("%s n=%d w=%d: pipeline: %v", name, n, w, err)
				}
				out := p.Raise()
				if err := out.Validate(budget); err != nil {
					t.Errorf("%s n=%d w=%d: pass output invalid: %v", name, n, w, err)
				}
				// The program's arcs must describe the output, not a stale
				// intermediate state: re-lowering the raised schedule finds
				// the same disjoint boundaries.
				fresh, err := Lower(out, budget)
				if err != nil {
					t.Fatalf("%s n=%d w=%d: re-lower: %v", name, n, w, err)
				}
				if got, want := p.DisjointBoundaries(), fresh.DisjointBoundaries(); got != want {
					t.Errorf("%s n=%d w=%d: DisjointBoundaries() %d != fresh re-lower %d", name, n, w, got, want)
				}
			}
		}
	}
}

func TestLowerRejectsInvalidSchedules(t *testing.T) {
	// Two same-direction circuits share λ0 on overlapping arcs.
	conflicted := &core.Schedule{Algorithm: "bad", Ring: topo.NewRing(8), Steps: []core.Step{
		{Transfers: []core.Transfer{
			{Src: 0, Dst: 4, Chunk: tensor.Whole, Dir: topo.CW, Wavelength: 0},
			{Src: 2, Dst: 6, Chunk: tensor.Whole, Dir: topo.CW, Wavelength: 0},
		}},
	}}
	if _, err := Lower(conflicted, 0); err == nil {
		t.Error("wavelength-conflicted schedule accepted by Lower")
	}
	bad := &core.Schedule{Algorithm: "bad", Ring: topo.NewRing(8), Steps: []core.Step{
		{Transfers: []core.Transfer{{Src: 0, Dst: 99, Chunk: tensor.Whole}}},
	}}
	if _, err := Lower(bad, 0); err == nil {
		t.Error("out-of-range node accepted by Lower")
	}
}
