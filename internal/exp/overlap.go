package exp

import (
	"fmt"

	"wrht/internal/core"
	"wrht/internal/fabric"
	"wrht/internal/ir"
	"wrht/internal/metrics"
	"wrht/internal/obs"
	"wrht/internal/optical"
)

// OverlapPasses returns the default overlap-maximizing pass pipeline
// for a fabric with p's timing parameters and a dBytes per-node
// payload: wavelength-shifted step splitting gated on the paper's
// hiding condition (half a step's serialization must cover the 25 µs
// MRR retune).
func OverlapPasses(p optical.Params, dBytes float64) []ir.Pass {
	return []ir.Pass{&ir.Split{
		SetupSeconds:   p.ReconfigDelay,
		BytesPerSecond: p.BandwidthBps / 8,
		PayloadBytes:   dBytes,
	}}
}

// ParsePasses resolves a pass-selection spec (the -passes flag and the
// sweep request's "passes" field): "all", "split" or empty select the
// default pipeline (nil, so OverlapSweep uses OverlapPasses), and
// "none" the identity pipeline (an empty non-nil slice — a round-trip
// control).
func ParsePasses(spec string) ([]ir.Pass, error) {
	switch spec {
	case "", "all", "split":
		return nil, nil
	case "none":
		return []ir.Pass{}, nil
	}
	return nil, fmt.Errorf("unknown IR pass %q (want split, all or none)", spec)
}

// OverlapPoint is one row of the overlap sweep: the natural schedule
// versus the same schedule rewritten by the IR passes, both timed by
// the engine in overlap mode.
type OverlapPoint struct {
	N, W int
	// Steps and Hidden count schedule steps and step boundaries whose
	// setup was (at least partly) hidden under the previous step's
	// transmission.
	BaselineSteps, PassSteps   int
	BaselineHidden, PassHidden int
	// Saved is the engine's OverlapSaved (seconds of setup removed from
	// the critical path); Time the total communication time.
	BaselineSaved, PassSaved float64
	BaselineTime, PassTime   float64
}

// OverlapSweepResult bundles the rendered table with the raw points.
type OverlapSweepResult struct {
	Table  *metrics.Table
	Points []OverlapPoint
}

// OverlapSweep times WRHT at w wavelengths for every ring size in ns,
// in overlap mode, twice per point: once as built (the baseline) and
// once after running the IR pass pipeline. Both runs leave every
// boundary decision to the engine's own probe. A nil passes slice
// selects OverlapPasses for
// o.Optical; an empty non-nil slice runs the identity pipeline (useful
// as a round-trip control). Options.Trace/Metrics receive per-pass
// spans and counters through obs.IRObserver.
func OverlapSweep(o Options, ns []int, w int, dBytes float64, passes []ir.Pass) (OverlapSweepResult, error) {
	return newEngine(o, "overlap").overlapSweep(ns, w, dBytes, passes)
}

func (e *engine) overlapSweep(ns []int, w int, dBytes float64, passes []ir.Pass) (OverlapSweepResult, error) {
	if e.optFabErr != nil {
		return OverlapSweepResult{}, e.optFabErr
	}
	if passes == nil {
		passes = OverlapPasses(e.opts.Optical, dBytes)
	}
	irObs := obs.NewIRObserver(e.opts.Trace, e.opts.Metrics)
	points, err := sweep(e, len(ns), func(i int) (OverlapPoint, error) {
		n := ns[i]
		s, err := core.BuildWRHT(core.Config{N: n, Wavelengths: w})
		if err != nil {
			return OverlapPoint{}, fmt.Errorf("overlap sweep (N=%d, w=%d): %w", n, w, err)
		}
		base, err := fabric.Engine{Fabric: e.optFab, Opts: fabric.Options{Overlap: true}}.RunSchedule(s, dBytes)
		if err != nil {
			return OverlapPoint{}, fmt.Errorf("overlap baseline (N=%d): %w", n, err)
		}
		p, err := ir.Lower(s, w)
		if err != nil {
			return OverlapPoint{}, fmt.Errorf("overlap lower (N=%d): %w", n, err)
		}
		if err := (ir.Pipeline{Passes: passes, Observer: irObs}).Run(p); err != nil {
			return OverlapPoint{}, fmt.Errorf("overlap passes (N=%d): %w", n, err)
		}
		passed, err := fabric.Engine{Fabric: e.optFab, Opts: fabric.Options{Overlap: true}}.RunSchedule(p.Raise(), dBytes)
		if err != nil {
			return OverlapPoint{}, fmt.Errorf("overlap pass run (N=%d): %w", n, err)
		}
		return OverlapPoint{
			N: n, W: w,
			BaselineSteps: base.Steps, PassSteps: passed.Steps,
			BaselineHidden: hiddenCount(base), PassHidden: hiddenCount(passed),
			BaselineSaved: base.OverlapSaved, PassSaved: passed.OverlapSaved,
			BaselineTime: base.Time, PassTime: passed.Time,
		}, nil
	})
	if err != nil {
		return OverlapSweepResult{}, err
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("IR overlap sweep: WRHT, w=%d, %.0f MB payload (baseline -> passes)",
			w, dBytes/1e6),
		Headers: []string{"N", "steps", "hidden reconfigs", "setup hidden (us)", "time (ms)"},
	}
	for _, pt := range points {
		t.AddRow(fmt.Sprint(pt.N),
			fmt.Sprintf("%d -> %d", pt.BaselineSteps, pt.PassSteps),
			fmt.Sprintf("%d -> %d", pt.BaselineHidden, pt.PassHidden),
			fmt.Sprintf("%.1f -> %.1f", pt.BaselineSaved*1e6, pt.PassSaved*1e6),
			fmt.Sprintf("%.3f -> %.3f", pt.BaselineTime*1e3, pt.PassTime*1e3))
	}
	return OverlapSweepResult{Table: t, Points: points}, nil
}

// hiddenCount counts the steps whose circuit setup was hidden (at
// least partly) under the previous step's transmission.
func hiddenCount(r fabric.Result) int {
	n := 0
	for _, sr := range r.PerStep {
		if sr.Overlapped > 0 {
			n++
		}
	}
	return n
}
