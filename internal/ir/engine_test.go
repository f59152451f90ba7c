package ir

import (
	"reflect"
	"testing"

	"wrht/internal/core"
	"wrht/internal/fabric"
	"wrht/internal/optical"
)

// TestPassesOffEngineTimingIsBitIdentical: with all passes disabled,
// running the round-tripped schedule must reproduce the flat engine
// path bit for bit on the golden configs, per-step breakdown included.
func TestPassesOffEngineTimingIsBitIdentical(t *testing.T) {
	f, err := optical.DefaultParams().Fabric()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ n, w int }{
		{64, 8}, {64, 64}, {256, 64}, {1024, 64},
	} {
		s, err := core.BuildWRHT(core.Config{N: tc.n, Wavelengths: tc.w})
		if err != nil {
			t.Fatal(err)
		}
		for _, overlap := range []bool{false, true} {
			flat, err := fabric.Engine{Fabric: f, Opts: fabric.Options{Overlap: overlap}}.RunSchedule(s, 100e6)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Lower(s, tc.w)
			if err != nil {
				t.Fatal(err)
			}
			if err := (Pipeline{}).Run(p); err != nil {
				t.Fatal(err)
			}
			ir, err := fabric.Engine{Fabric: f, Opts: fabric.Options{Overlap: overlap}}.RunSchedule(p.Raise(), 100e6)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(flat, ir) {
				t.Errorf("N=%d w=%d overlap=%v: IR path diverged from flat engine\nflat: %+v\nir:   %+v",
					tc.n, tc.w, overlap, flat, ir)
			}
		}
	}
}
