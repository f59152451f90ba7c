package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// e2e holds one untraced measurement: what a user of the binaries saw.
type e2e struct {
	attempted, failed int
	// problems describes the first failures, for the report.
	problems []string
	// setup holds each start-up time (s); unit each unit of fixed work's
	// wall time (s: a full reproduction, or a batch of requests); lat
	// each operation's latency (s).
	setup, unit, lat []float64
	// cpu holds the children's user+sys CPU seconds per operation and
	// rss their peak resident sets (MB), one sample per child; window
	// is the measured wall time (s).
	cpu, rss []float64
	window   float64
	// byEndpoint holds the serving latencies (s) per endpoint; mix the
	// request count per traffic class; coalesceHits and apiRequests the
	// daemon's own counters scraped from /metrics.
	byEndpoint                map[string][]float64
	mix                       map[string]int
	coalesceHits, apiRequests float64
}

// fail records one failed operation.
func (u *e2e) fail(format string, args ...any) {
	u.failed++
	if len(u.problems) < 5 {
		u.problems = append(u.problems, fmt.Sprintf(format, args...))
	}
}

// values computes the end-to-end metrics by name.
func (u *e2e) values() map[string]float64 {
	ops := float64(len(u.lat))
	return map[string]float64{
		"setup_s":        median(u.setup),
		"wall_s":         median(u.unit),
		"cpu_ms_per_op":  median(u.cpu) * 1e3,
		"peak_rss_mb":    median(u.rss),
		"throughput_rps": ops / u.window,
		"latency_p50_ms": median(u.lat) * 1e3,
		"latency_p99_ms": percentile(u.lat, 99) * 1e3,
	}
}

func (u *e2e) result() Result {
	return Result{Correct: u.failed == 0, Attempted: u.attempted, Failed: u.failed, Metrics: withUnits(endToEnd, u.values())}
}

// withUnits pairs each catalogued metric's value with its unit; a
// metric without a value reports 0.
func withUnits(defs []MetricDef, vals map[string]float64) map[string]Metric {
	m := make(map[string]Metric, len(defs))
	for _, d := range defs {
		m[d.Name] = Metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return m
}

func (u *e2e) print(w io.Writer, cfg config) {
	fmt.Fprintf(w, "perfbench %s seed=%d: %d attempted, %d failed, fail_ratio %.4f\n",
		cfg.workload, cfg.seed, u.attempted, u.failed, float64(u.failed)/float64(max(u.attempted, 1)))
	for _, p := range u.problems {
		fmt.Fprintf(w, "  failure: %s\n", p)
	}
	vals := u.values()
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-16s %12.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	p99 := percentile(u.lat, 99)
	fmt.Fprintf(w, "  latency samples: %d (%d beyond p99); setup samples: %d; fixed-work units: %d\n",
		len(u.lat), beyond(u.lat, p99), len(u.setup), len(u.unit))
	if len(u.byEndpoint) > 0 {
		eps := make([]string, 0, len(u.byEndpoint))
		for ep := range u.byEndpoint {
			eps = append(eps, ep)
		}
		sort.Strings(eps)
		for _, ep := range eps {
			l := u.byEndpoint[ep]
			fmt.Fprintf(w, "  /v1/%-9s n=%-5d p50 %8.3f ms  p99 %8.3f ms\n", ep, len(l), median(l)*1e3, percentile(l, 99)*1e3)
		}
		classes := make([]string, 0, len(u.mix))
		sent := 0
		for c, n := range u.mix {
			classes = append(classes, c)
			sent += n
		}
		sort.Strings(classes)
		var parts []string
		for _, c := range classes {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", c, 100*float64(u.mix[c])/float64(sent)))
		}
		fmt.Fprintf(w, "  mix: %s\n", strings.Join(parts, ", "))
		fmt.Fprintf(w, "  coalesce hits %g of %g daemon requests\n", u.coalesceHits, u.apiRequests)
	}
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
