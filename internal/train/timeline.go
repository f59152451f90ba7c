package train

import (
	"fmt"
	"math"

	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/fabric"
	"wrht/internal/obs"
	"wrht/internal/optical"
	"wrht/internal/workload"
)

// Timeline simulates the wall-clock structure of synchronous
// data-parallel training: per iteration every worker computes for
// ComputeSecPerIter (the paper's profiled GPU time), then the cluster
// performs one all-reduce whose duration comes from the optical (or any
// Eq-6-style) model. The communication step is the synchronisation
// barrier — the structure behind the paper's claim that all-reduce
// takes 50–90% of iteration time at scale [35].
type Timeline struct {
	Workers    int
	Iterations int
	// ComputeSec is the per-iteration compute time per worker.
	ComputeSec float64
	// CommSec is the per-iteration all-reduce time.
	CommSec float64
	// Skew adds worker-index-proportional compute jitter (stragglers):
	// worker i computes ComputeSec·(1 + Skew·i/(Workers−1)).
	Skew float64
	// Trace, when non-nil, receives the simulated compute/all-reduce
	// timeline: one "worker <i>" track per traced worker plus an
	// "all-reduce" track, grouped under the TraceProcess process. The
	// simulation runs on one goroutine, so emission order — and the
	// trace file — is deterministic.
	Trace *obs.Tracer
	// TraceProcess names the Perfetto process ("<model> N=64"); it lets
	// several workloads coexist in one trace file.
	TraceProcess string
	// TraceWorkers caps how many per-worker compute tracks are emitted
	// (0 means the default of 8; the barrier structure is visible from a
	// few workers, and thousand-track traces drown the viewer).
	TraceWorkers int
}

// Result summarises a timeline simulation.
type TimelineResult struct {
	TotalSec     float64
	ComputeSec   float64 // critical-path compute time
	CommSec      float64
	CommFraction float64 // share of total spent in all-reduce
}

// Run simulates the timeline and returns the totals. Each iteration
// is a barrier: every worker starts computing at the same instant, the
// all-reduce starts when the slowest finishes, and the next iteration
// starts when the all-reduce ends. A negative compute or comm time
// panics: it would run the clock backwards.
func (tl Timeline) Run() TimelineResult {
	if tl.Workers < 1 || tl.Iterations < 0 {
		panic(fmt.Sprintf("train: timeline workers=%d iterations=%d invalid", tl.Workers, tl.Iterations))
	}
	var res TimelineResult
	tracedWorkers := tl.TraceWorkers
	if tracedWorkers <= 0 {
		tracedWorkers = 8
	}
	slowest := tl.ComputeSec
	if tl.Workers > 1 {
		slowest = tl.ComputeSec * (1 + tl.Skew)
	}
	now := 0.0
	for it := 0; it < tl.Iterations; it++ {
		// The barrier is now + max_w c_w, which equals max_w (now + c_w)
		// because rounded float addition is monotone.
		barrier := 0.0
		for wkr := 0; wkr < tl.Workers; wkr++ {
			c := tl.ComputeSec
			if tl.Workers > 1 {
				c *= 1 + tl.Skew*float64(wkr)/float64(tl.Workers-1)
			}
			if tl.Trace != nil && wkr < tracedWorkers {
				tl.Trace.Span(obs.Track{Process: tl.TraceProcess, Name: fmt.Sprintf("worker %d", wkr)},
					"compute", now, c, obs.Args{"iteration": it})
			}
			if c < 0 {
				panic(fmt.Sprintf("train: negative compute time %g", c))
			}
			barrier = math.Max(barrier, c)
		}
		now += barrier
		res.ComputeSec += slowest
		if tl.CommSec < 0 {
			panic(fmt.Sprintf("train: negative comm time %g", tl.CommSec))
		}
		if tl.Trace != nil {
			tl.Trace.Span(obs.Track{Process: tl.TraceProcess, Name: "all-reduce"},
				"all-reduce", now, tl.CommSec, obs.Args{"iteration": it})
		}
		now += tl.CommSec
		res.CommSec += tl.CommSec
	}
	res.TotalSec = now
	if res.TotalSec > 0 {
		res.CommFraction = res.CommSec / res.TotalSec
	}
	return res
}

// EpochTimeline builds a Timeline for one training epoch of a workload
// on n nodes, with the all-reduce time supplied by the optical model
// for the given collective profile.
func EpochTimeline(w workload.Workload, n, datasetSize int, comm float64) Timeline {
	return Timeline{
		Workers:    n,
		Iterations: w.IterationsPerEpoch(datasetSize, n),
		ComputeSec: w.ComputeSecPerIter,
		CommSec:    comm,
	}
}

// CommTimeForProfile is a convenience for building the per-iteration
// all-reduce duration of a model's gradient on the optical system.
func CommTimeForProfile(p optical.Params, pr core.Profile, m dnn.Model) (float64, error) {
	f, err := p.Fabric()
	if err != nil {
		return 0, err
	}
	res, err := fabric.Engine{Fabric: f}.RunProfile(pr, float64(m.GradBytes()))
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}
