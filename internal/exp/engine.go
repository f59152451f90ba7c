package exp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/electrical"
	"wrht/internal/fabric"
	"wrht/internal/obs"
)

// engine executes one sweep: it owns the bounded worker pool, the
// per-sweep profile cache and the optical fabric backend. Every exported
// figure entry point builds a fresh engine, so memoized profiles never
// outlive a sweep and one figure's output cannot depend on what ran
// before it.
type engine struct {
	opts Options
	// name identifies the sweep ("fig4", "crossfabric", ...); it labels
	// the per-point latency histogram and the pprof goroutine labels.
	name     string
	workers  int
	profiles *collective.ProfileCache
	// optFab is the optical backend shared by every sweep point (it is
	// stateless); optFabErr defers parameter-validation failures to the
	// first timing call so newEngine stays infallible.
	optFab    fabric.Fabric
	optFabErr error
	// prof aggregates wall-clock spans into Options.Metrics (nil when
	// metrics are disabled); the histogram handles below are cached at
	// construction so the per-point Observe path takes no registry lock.
	prof       *obs.Profiler
	pointHist  *obs.Histogram
	optRunHist *obs.Histogram
	elRunHist  *obs.Histogram
	// pubHits/pubMisses/pubBuilds are the cache values already published
	// to Options.Metrics (see publishCacheMetrics).
	pubHits, pubMisses, pubBuilds int64
}

func newEngine(o Options, name string) *engine {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &engine{opts: o, name: name, workers: w, profiles: collective.NewProfileCache()}
	e.optFab, e.optFabErr = o.Optical.Fabric()
	e.prof = obs.NewProfiler(o.Metrics)
	e.pointHist = e.prof.Hist("exp.sweep.point.seconds", "sweep", name)
	e.optRunHist = e.prof.Hist("fabric.run.seconds", "fabric", "optical")
	e.elRunHist = e.prof.Hist("fabric.run.seconds", "fabric", "electrical")
	// Worker busy time is wall clock too; flag it for determinism checks.
	o.Metrics.MarkVolatile("exp.sweep.busy_seconds")
	return e
}

// sweep evaluates fn(i) for every i in [0, n) on e's worker pool and
// returns the values in index order, so figures assembled from the
// result are byte-identical to a sequential run. Point functions must
// be pure (they may share e's caches, which synchronise internally).
// On failure the lowest-index error is returned — again independent
// of goroutine scheduling.
//
// With Options.Metrics set, the sweep counts points and accumulates
// per-worker busy time (wall clock; metrics are not byte-stability
// constrained). With Options.Trace carrying a Clock, each point also
// emits a progress span on its worker's track — a diagnostic timeline
// of pool utilisation, separate from the simulated-time traces.
func sweep[T any](e *engine, n int, fn func(i int) (T, error)) ([]T, error) {
	points := e.opts.Metrics.Counter("exp.sweep.points")
	busy := e.opts.Metrics.Gauge("exp.sweep.busy_seconds")
	ctx := e.opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	tr := e.opts.Trace
	if tr != nil && tr.Clock == nil {
		tr = nil // sweep spans are wall-clock-only; without a clock, skip
	}
	run := func(worker, i int) (T, error) {
		// Cancellation is checked at point boundaries: a canceled sweep
		// stops starting new points (in-flight ones finish) and returns
		// the context's error at the lowest unstarted index.
		if err := ctx.Err(); err != nil {
			var zero T
			return zero, err
		}
		var start float64
		if tr != nil {
			start = tr.Clock()
		}
		w0 := time.Now()
		v, err := fn(i)
		sec := time.Since(w0).Seconds()
		busy.Add(sec)
		e.pointHist.Observe(sec)
		points.Inc()
		if tr != nil {
			tr.Span(obs.Track{Process: "sweep", Name: fmt.Sprintf("worker %d", worker)},
				fmt.Sprintf("point %d", i), start, tr.Clock()-start, nil)
		}
		return v, err
	}
	// Sweep workers carry pprof labels so a CPU profile captured during a
	// run (wrhtsim -promaddr + go tool pprof) attributes samples to the
	// sweep and worker that burned them.
	labeled := func(worker int, body func()) {
		pprof.Do(context.Background(),
			pprof.Labels("sweep", e.name, "worker", strconv.Itoa(worker)),
			func(context.Context) { body() })
	}
	vals := make([]T, n)
	errs := make([]error, n)
	workers := min(e.workers, n)
	switch {
	case workers <= 1:
		labeled(0, func() {
			for i := 0; i < n; i++ {
				vals[i], errs[i] = run(0, i)
			}
		})
	case e.opts.Pool != nil:
		// Shared-pool path: points fan out onto the process-wide pool
		// (one compute bound across all concurrent sweeps) instead of
		// per-sweep goroutines. Identical output either way.
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			if err := e.opts.Pool.Submit(ctx, func(w int) {
				defer wg.Done()
				labeled(w, func() { vals[i], errs[i] = run(w, i) })
			}); err != nil {
				errs[i] = err
				wg.Done()
			}
		}
		wg.Wait()
	default:
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			w := w
			go func() {
				defer wg.Done()
				labeled(w, func() {
					for i := range idx {
						vals[i], errs[i] = run(w, i)
					}
				})
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	e.publishCacheMetrics()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: sweep point %d: %w", i, err)
		}
	}
	return vals, nil
}

// publishCacheMetrics adds the profile cache's activity since the last
// publication to the registry. Called from the sweep coordinator (never
// concurrently for one engine), so plain delta fields suffice.
func (e *engine) publishCacheMetrics() {
	m := e.opts.Metrics
	if m == nil {
		return
	}
	h, mi, b := e.profiles.Hits(), e.profiles.Misses(), e.profiles.Builds()
	m.Counter("collective.profile_cache.hits").Add(h - e.pubHits)
	m.Counter("collective.profile_cache.misses").Add(mi - e.pubMisses)
	m.Counter("collective.profile_cache.builds").Add(b - e.pubBuilds)
	e.pubHits, e.pubMisses, e.pubBuilds = h, mi, b
}

// wrht returns the memoized WRHT profile for n nodes, w wavelengths and
// an optional explicit group size m (0 = Lemma-1 optimum).
func (e *engine) wrht(n, w, m int) (core.Profile, error) {
	pr, err := e.profiles.WRHT(core.Config{N: n, Wavelengths: w, GroupSize: m})
	if err != nil {
		return core.Profile{}, fmt.Errorf("wrht profile (N=%d, w=%d, m=%d): %w", n, w, m, err)
	}
	return pr, nil
}

func (e *engine) ring(n int) core.Profile        { return e.profiles.Ring(n) }
func (e *engine) hring(n, m, w int) core.Profile { return e.profiles.HRing(n, m, w) }
func (e *engine) bt(n int) core.Profile          { return e.profiles.BT(n) }

// opticalTime times one collective profile for one model on the
// optical system through the shared fabric engine.
func (e *engine) opticalTime(pr core.Profile, m dnn.Model) (float64, error) {
	res, err := e.opticalBuckets(pr, e.opts.payloads(m))
	if err != nil {
		return 0, fmt.Errorf("optical timing (%s, %s): %w", pr.Algorithm, m.Name, err)
	}
	return res.Time, nil
}

// opticalBuckets runs a profile over per-bucket payloads on the optical
// fabric. Fabric backends are stateless, so one instance serves all
// sweep workers.
func (e *engine) opticalBuckets(pr core.Profile, buckets []float64) (fabric.Result, error) {
	if e.optFabErr != nil {
		return fabric.Result{}, e.optFabErr
	}
	start := e.prof.Start()
	res, err := fabric.Engine{Fabric: e.optFab}.RunBuckets(pr, buckets)
	e.prof.End(e.optRunHist, start)
	return res, err
}

// electricalTime times one collective for one model on the fat-tree,
// draining a fresh stream from steps for every payload. The backend is
// safe for concurrent use: the engine keeps all mutable state local to
// a run, and each step solve borrows pooled scratch from the network.
func (e *engine) electricalTime(nw *electrical.Network, steps func() core.StepSource, m dnn.Model) (float64, error) {
	eng := fabric.Engine{Fabric: nw.Fabric()}
	var total float64
	for _, d := range e.opts.payloads(m) {
		src := steps()
		start := e.prof.Start()
		res, err := eng.RunStream(src, d)
		e.prof.End(e.elRunHist, start)
		if err != nil {
			return 0, fmt.Errorf("electrical timing (%s, %s): %w", src.Algorithm(), m.Name, err)
		}
		total += res.Time
	}
	return total, nil
}

// baselineModel finds the paper's normalization workload by name, so
// reordering dnn.Workloads() cannot silently change every normalized
// figure.
func baselineModel(models []dnn.Model, name string) (dnn.Model, error) {
	for _, m := range models {
		if m.Name == name {
			return m, nil
		}
	}
	return dnn.Model{}, fmt.Errorf("exp: baseline workload %q not in dnn.Workloads()", name)
}
