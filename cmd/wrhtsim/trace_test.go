package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wrht/internal/obs"
)

// traceRun drives run() the way CI does, capturing the trace and
// metrics files for one crossfabric invocation.
func traceRun(t *testing.T, dir, tag string) (trace, metrics []byte) {
	t.Helper()
	tracePath := filepath.Join(dir, "trace-"+tag+".json")
	metricsPath := filepath.Join(dir, "metrics-"+tag+".prom")
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	code := run(runConfig{
		cmd:         "crossfabric",
		granularity: "fused",
		workers:     1,
		n:           64,
		w:           64,
		payloadMB:   10,
		tracePath:   tracePath,
		metricsPath: metricsPath,
	})
	os.Stdout = old
	null.Close()
	if code != 0 {
		t.Fatalf("run exited %d", code)
	}
	trace, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err = os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	return trace, metrics
}

// TestCrossFabricTraceValidates is the CI gate for `wrhtsim -trace`: the
// N=64 w=64 crossfabric run must emit Perfetto-loadable JSON containing
// every span phase the fabric observer defines, and be byte-identical
// across runs (the trace is a pure function of the simulated timeline).
func TestCrossFabricTraceValidates(t *testing.T) {
	dir := t.TempDir()
	raw, rawMetrics := traceRun(t, dir, "a")

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	spans := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name] = true
		}
	}
	for _, want := range []string{
		"reduce", "broadcast",
		"reconfig", "reconfig (overlap-hidden)",
		"serialization", "oeo", "router-delay",
	} {
		if !spans[want] {
			t.Errorf("trace missing %q span", want)
		}
	}

	if err := obs.ValidateExposition(rawMetrics); err != nil {
		t.Fatalf("-metrics exposition does not lint: %v", err)
	}
	counters := exposedSamples(rawMetrics)
	if counters["fabric_steps"] == 0 || counters["fabric_circuits_reserved"] == 0 {
		t.Errorf("fabric counters empty: %v", counters)
	}
	if counters["fabric_overlap_boundaries_hidden"] == 0 {
		t.Errorf("no overlap-hidden boundaries at w=64: %v", counters)
	}

	again, _ := traceRun(t, dir, "b")
	if !bytes.Equal(raw, again) {
		t.Fatal("crossfabric trace differs between identical runs")
	}
}

// exposedSamples maps each unlabeled sample line of a Prometheus text
// exposition ("name value") to its value.
func exposedSamples(b []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}
