package main

import (
	"fmt"
	"io"
	"sort"
)

// layered holds one traced replay: its spans, the per-layer metrics
// derived from them, the traced counterparts of end-to-end numbers and
// the workload's measured property shares.
type layered struct {
	tr                *Tracer
	attempted, failed int
	problems          []string
	// metrics holds per-layer values by name; names a workload never
	// reaches stay absent and report 0.
	metrics map[string]float64
	// tracedE2E maps an end-to-end metric name to the value the traced
	// replay measured for it.
	tracedE2E map[string]float64
	// props are the workload's measured property shares.
	props map[string]float64
	// extra holds layer rows measured by difference rather than by a
	// span of their own (the daemon's overhead).
	extra []layerRow
}

func newLayered() *layered {
	return &layered{tr: newTracer(), metrics: map[string]float64{}, tracedE2E: map[string]float64{}, props: map[string]float64{}}
}

func (l *layered) fail(format string, args ...any) {
	l.failed++
	if len(l.problems) < 5 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// daemonMetrics adds the per-endpoint numbers the untraced run's client
// spans and /metrics scrape give.
func (l *layered) daemonMetrics(u *e2e) {
	for ep, lat := range u.byEndpoint {
		l.metrics["daemon."+ep+"_p50_ms"] = median(lat) * 1e3
		l.metrics["daemon."+ep+"_count"] = float64(len(lat))
	}
	if u.apiRequests > 0 {
		l.metrics["daemon.coalesce_hit_ratio"] = u.coalesceHits / u.apiRequests
		l.props["coalesce_hit_share"] = u.coalesceHits / u.apiRequests
	}
}

func (l *layered) result(u *e2e) Result {
	return Result{
		Correct:   u.failed == 0 && l.failed == 0,
		Attempted: u.attempted + l.attempted,
		Failed:    u.failed + l.failed,
		Metrics:   withUnits(perLayer, l.metrics),
	}
}

func (l *layered) print(w io.Writer, cfg config, u *e2e) {
	fmt.Fprintf(w, "traced replay of %s seed=%d: %d operations, %d failed\n", cfg.workload, cfg.seed, l.attempted, l.failed)
	for _, p := range l.problems {
		fmt.Fprintf(w, "  failure: %s\n", p)
	}
	l.tr.printLayers(w, l.extra...)
	uv := u.values()
	fmt.Fprintf(w, "  %-16s %12s %12s\n", "end-to-end", "untraced", "traced")
	for _, d := range endToEnd {
		if v, ok := l.tracedE2E[d.Name]; ok {
			fmt.Fprintf(w, "  %-16s %12.4f %12.4f %s\n", d.Name, uv[d.Name], v, d.Unit)
		}
	}
	fmt.Fprintf(w, "  %-36s %12s %-6s %s\n", "per-layer metric", "value", "unit", "should move; no change predicted on")
	for _, d := range perLayer {
		v, ok := l.metrics[d.Name]
		if !ok {
			continue // not reached by this workload
		}
		fmt.Fprintf(w, "  %-36s %12.4f %-6s %s; %s\n", d.Name, v, d.Unit, d.Moves, d.NoChange)
	}
	names := make([]string, 0, len(l.props))
	for k := range l.props {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  property %-28s %.4f\n", k, l.props[k])
	}
}
