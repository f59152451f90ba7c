package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"wrht"
	"wrht/internal/api"
	"wrht/internal/core"
	"wrht/internal/daemon"
	"wrht/internal/electrical"
	"wrht/internal/exp"
	"wrht/internal/ir"
	"wrht/internal/obs"
	"wrht/internal/optical"
	"wrht/internal/rwa"
)

// heavyClasses are the traffic classes that set latency_p99_ms.
var heavyClasses = map[string]bool{"plan": true, "build-stream": true, "sim-ring": true, "sweep-crossfabric": true}

// replayer holds the in-process state one traced serving replay shares
// across requests.
type replayer struct {
	l       *layered
	o       exp.Options
	handler http.Handler
	// elSteps counts the simulated steps of the traced electrical runs.
	elSteps int
}

// traced replays the same request sequence in-process, one request at
// a time and in order. Each request is decomposed into spans around the
// layer calls its executor makes, then run through the executor itself,
// api.Encode, and the daemon's handler on a recorder; the handler's
// bytes must equal the encoded executor response.
func (s *serve) traced(seconds float64, u *e2e) (*layered, error) {
	l := newLayered()
	l.daemonMetrics(u)
	srv := daemon.New(daemon.Config{})
	defer srv.Close()
	rp := &replayer{l: l, o: exp.Defaults(), handler: srv.Handler()}
	rp.o.Metrics = obs.NewRegistry()
	start := time.Now()
	for i := 0; i == 0 || since(start) < seconds; i++ {
		l.attempted++
		if err := rp.replay(i, s.request(i)); err != nil {
			l.fail("request %d: %v", i, err)
		}
	}
	rp.summarize()
	return l, nil
}

// replay traces one request as operation op. Its root span "op.<class>"
// holds the layer calls and api.Encode; a second root "check.<class>"
// holds the executor (build and simulate; sweeps and plans ran theirs
// as their layer call) and the daemon handler, whose bytes must equal
// the encoded executor response.
func (rp *replayer) replay(op int, rq Request) error {
	tr := rp.l.tr
	req, err := decode(rq.Endpoint, rq.Body)
	if err != nil {
		return err
	}
	var want bytes.Buffer
	root := tr.begin("op."+rq.Class, op, -1)
	resp, err := rp.layerCalls(op, root, req)
	if err == nil {
		err = tr.span("api.encode", op, root, func() error { return api.Encode(&want, resp) })
	}
	tr.end(root)
	if err != nil {
		return fmt.Errorf("%s: %w", rq.Body, err)
	}
	check := tr.begin("check."+rq.Class, op, -1)
	defer tr.end(check)
	switch req.(type) {
	case api.BuildRequest, api.SimulateRequest:
		var got any
		if err := tr.span("wrht.serve", op, check, func() (err error) {
			got, err = execute(rp.o, req)
			return err
		}); err != nil {
			return err
		}
		var b bytes.Buffer
		if err := api.Encode(&b, got); err != nil || !bytes.Equal(b.Bytes(), want.Bytes()) {
			return fmt.Errorf("executor response differs from the one the layer calls assembled (%v)", err)
		}
	}
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest(http.MethodPost, "/v1/"+rq.Endpoint, bytes.NewReader(rq.Body))
	tr.span("daemon.serve", op, check, func() error { rp.handler.ServeHTTP(rec, hreq); return nil })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("daemon handler status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		return fmt.Errorf("daemon handler response differs from the encoded executor response")
	}
	return nil
}

// layerCalls makes, under spans, the public layer calls the request's
// executor is built from — construction, RWA validation, engine runs,
// the electrical network, the streamed build and the IR passes — and
// assembles the response from their results. Sweep and plan requests
// run their executor (api.RunSweep, api.RunPlan) as their layer call.
func (rp *replayer) layerCalls(op, root int, req any) (any, error) {
	tr := rp.l.tr
	switch r := req.(type) {
	case api.BuildRequest:
		if r.Stream {
			var resp *api.BuildResponse
			err := tr.span("core.stream_build", op, root, func() (err error) {
				resp, err = streamBuild(r)
				return err
			})
			return resp, err
		}
		s, err := rp.build(op, root, r)
		if err != nil {
			return nil, err
		}
		resp := &api.BuildResponse{Version: api.Version, Kind: r.Kind, Algorithm: s.Algorithm, N: r.N, Steps: s.NumSteps()}
		for _, st := range s.Steps {
			resp.Transfers += len(st.Transfers)
		}
		if r.Wavelengths > 0 {
			resp.Wavelengths, resp.Validated = r.Wavelengths, true
			err = tr.span("rwa.validate", op, root, func() error { return s.Validate(r.Wavelengths) })
		}
		return resp, err
	case api.SimulateRequest:
		s, err := rp.build(op, root, r.Build)
		if err != nil {
			return nil, err
		}
		var res wrht.SimResult
		if r.Backend == string(wrht.Optical) {
			if err := tr.span("rwa.validate", op, root, func() error {
				return s.Validate(optical.DefaultParams().Wavelengths)
			}); err != nil {
				return nil, err
			}
			opts := []wrht.SimOption{wrht.WithoutValidation()}
			if r.Overlap {
				opts = append(opts, wrht.WithOverlap())
			}
			err = tr.span("fabric.optical_run", op, root, func() (err error) {
				res, err = wrht.Simulate(wrht.Optical, s, r.PayloadBytes, opts...)
				return err
			})
		} else {
			if err := tr.span("electrical.network", op, root, func() error {
				_, err := electrical.NewNetwork(s.Ring.N, electrical.DefaultParams())
				return err
			}); err != nil {
				return nil, err
			}
			err = tr.span("fabric.electrical_run", op, root, func() (err error) {
				res, err = wrht.Simulate(wrht.ElectricalFatTree, s, r.PayloadBytes)
				return err
			})
			rp.elSteps += res.Steps
		}
		return &api.SimulateResponse{Version: api.Version, Backend: r.Backend, PayloadBytes: r.PayloadBytes, Result: api.SimResultFrom(res)}, err
	case api.SweepRequest:
		if r.Sweep == "overlap" {
			for _, n := range r.Ns {
				s, err := core.BuildWRHT(core.Config{N: n, Wavelengths: r.Wavelengths})
				if err != nil {
					return nil, err
				}
				if err := tr.span("ir.passes", op, root, func() error {
					p, err := ir.Lower(s, r.Wavelengths)
					if err != nil {
						return err
					}
					return ir.Pipeline{Passes: exp.OverlapPasses(rp.o.Optical, r.PayloadMB*1e6)}.Run(p)
				}); err != nil {
					return nil, err
				}
			}
		}
		var resp any
		err := tr.span("exp.sweep."+r.Sweep, op, root, func() (err error) {
			resp, err = execute(rp.o, r)
			return err
		})
		return resp, err
	case api.PlanRequest:
		var resp any
		err := tr.span("plan.plan", op, root, func() (err error) {
			resp, err = execute(rp.o, r)
			return err
		})
		return resp, err
	}
	return nil, fmt.Errorf("no layer calls for %T", req)
}

// build constructs a request's schedule under a core.build span (WRHT
// family) or a collective.build span (the baselines).
func (rp *replayer) build(op, root int, b api.BuildRequest) (s *wrht.Schedule, err error) {
	name := "collective.build"
	if b.Kind == "wrht" || b.Kind == "torus" {
		name = "core.build"
	}
	var opts []wrht.BuildOption
	if b.Wavelengths != 0 {
		opts = append(opts, wrht.WithWavelengths(b.Wavelengths))
	}
	if b.GroupSize != 0 {
		opts = append(opts, wrht.WithGroupSize(b.GroupSize))
	}
	if b.Rows != 0 || b.Cols != 0 {
		opts = append(opts, wrht.WithDims(b.Rows, b.Cols))
	}
	err = rp.l.tr.span(name, op, root, func() (err error) {
		s, err = wrht.Build(wrht.Kind(b.Kind), b.N, opts...)
		return err
	})
	return s, err
}

// streamBuild is the streamed construction path: the WRHT step stream
// validated step by step, never materialized.
func streamBuild(r api.BuildRequest) (*api.BuildResponse, error) {
	src, err := core.StreamWRHT(core.Config{N: r.N, Wavelengths: r.Wavelengths, GroupSize: r.GroupSize})
	if err != nil {
		return nil, err
	}
	ring := src.Ring()
	v := core.NewStepValidator(ring, rwa.NewIndex(ring), r.Wavelengths)
	resp := &api.BuildResponse{Version: api.Version, Kind: r.Kind, Algorithm: src.Algorithm(), N: ring.N,
		Wavelengths: r.Wavelengths, Validated: true, Streamed: true}
	for {
		st, ok := src.Next()
		if !ok {
			return resp, nil
		}
		if err := v.Step(st); err != nil {
			return nil, err
		}
		resp.Steps++
		resp.Transfers += len(st.Transfers)
	}
}

// summarize derives the per-layer metrics and property shares from the
// replay's spans.
func (rp *replayer) summarize() {
	l, tr := rp.l, rp.l.tr
	set := func(name string, v float64, ok bool) {
		if ok {
			l.metrics[name] = v
		}
	}
	has := func(name string) bool { return len(tr.named(name)) > 0 }
	for name, span := range map[string]string{
		"core.build_ms":            "core.build",
		"collective.build_ms":      "collective.build",
		"rwa.validate_ms":          "rwa.validate",
		"core.stream_build_ms":     "core.stream_build",
		"fabric.optical_run_ms":    "fabric.optical_run",
		"fabric.electrical_run_ms": "fabric.electrical_run",
		"electrical.network_ms":    "electrical.network",
		"ir.passes_ms":             "ir.passes",
		"plan.plan_ms":             "plan.plan",
		"exp.sweep.crossfabric_ms": "exp.sweep.crossfabric",
		"exp.sweep.overlap_ms":     "exp.sweep.overlap",
		"exp.sweep.faults_ms":      "exp.sweep.faults",
	} {
		set(name, tr.medianMs(span), has(span))
	}
	for name, span := range map[string]string{
		"core.build_allocs":         "core.build",
		"rwa.validate_allocs":       "rwa.validate",
		"fabric.optical_run_allocs": "fabric.optical_run",
	} {
		set(name, tr.medianAllocs(span), has(span))
	}
	set("api.encode_us", tr.medianMs("api.encode")*1e3, true)

	// The daemon's own cost per request: its handler minus the executor
	// the handler calls, for the same request.
	exec := map[int]Span{}
	var sweeps, overhead, overheadAllocs []float64
	for _, sp := range tr.spans {
		if sp.Name == "wrht.serve" || sp.Name == "plan.plan" || strings.HasPrefix(sp.Name, "exp.sweep.") {
			exec[sp.Op] = sp
		}
		if strings.HasPrefix(sp.Name, "exp.sweep.") {
			sweeps = append(sweeps, sp.seconds()*1e3)
		}
	}
	daemonRow := layerRow{layer: "daemon"}
	for _, sp := range tr.named("daemon.serve") {
		if e, ok := exec[sp.Op]; ok {
			overhead = append(overhead, (sp.seconds()-e.seconds())*1e6)
			overheadAllocs = append(overheadAllocs, float64(sp.Allocs)-float64(e.Allocs))
			daemonRow.self += sp.seconds() - e.seconds()
			daemonRow.count++
			daemonRow.allocs += sp.Allocs - min(sp.Allocs, e.Allocs)
		}
	}
	l.extra = append(l.extra, daemonRow)
	set("exp.sweep_ms", median(sweeps), len(sweeps) > 0)
	set("daemon.overhead_us", median(overhead), true)
	set("daemon.overhead_allocs", median(overheadAllocs), true)

	snap := rp.o.Metrics.Snapshot()
	hits := float64(snap.Counters["collective.profile_cache.hits"])
	misses := float64(snap.Counters["collective.profile_cache.misses"])
	set("collective.profile_cache_hit_ratio", hits/(hits+misses), hits+misses > 0)
	sweepElectrical := snap.Histograms[obs.Labeled("fabric.run.seconds", "fabric", "electrical")].Sum
	elRun := tr.total("fabric.electrical_run")
	set("fabric.electrical_run_s", elRun+sweepElectrical, elRun+sweepElectrical > 0)
	set("electrical.us_per_step", elRun/float64(rp.elSteps)*1e6, rp.elSteps > 0)

	// Property shares, as shares of the daemon handler's in-process time
	// (each request's full cost, measured once).
	class := map[int]string{}
	for _, sp := range tr.spans {
		if c, ok := strings.CutPrefix(sp.Name, "op."); ok {
			class[sp.Op] = c
		}
	}
	var served, heavy, stream float64
	for _, sp := range tr.named("daemon.serve") {
		served += sp.seconds()
		if heavyClasses[class[sp.Op]] {
			heavy += sp.seconds()
		}
		if class[sp.Op] == "build-stream" {
			stream += sp.seconds()
		}
	}
	l.props["heavy_class_share"] = heavy / served
	l.props["stream_build_share"] = stream / served
	l.props["electrical_share"] = (elRun + tr.total("electrical.network") + sweepElectrical) / served
	l.tracedE2E["latency_p50_ms"] = tr.medianMs("daemon.serve")
	l.tracedE2E["throughput_rps"] = float64(l.attempted) / served
}
