package wrht

import (
	"bytes"
	"encoding/json"

	"wrht/internal/api"
	"wrht/internal/core"
	"wrht/internal/fault"
	"wrht/internal/obs"
	"wrht/internal/rwa"
)

// This file maps the versioned API requests (internal/api) onto the
// facade's strict functional options. ServeBuild and ServeSimulate are
// the executors behind both `wrhtsim build -json` and wrhtd's
// /v1/build and /v1/simulate endpoints: one code path, one schema,
// byte-identical output (see the parity test in cmd/wrhtsim).

// ServeBuild answers one api.BuildRequest. Every non-zero request
// field becomes the corresponding Build functional option, so a field
// the chosen kind does not consume fails with a typed
// unconsumed_option error exactly where a direct Build call would
// return its strict-option error.
func ServeBuild(req api.BuildRequest) (*api.BuildResponse, *api.Error) {
	req = req.Normalize()
	if req.N < 1 {
		return nil, api.Errorf(api.CodeBadRequest, "build: n must be at least 1, got %d", req.N)
	}
	kind := Kind(req.Kind)
	if _, ok := buildAccepts[kind]; !ok {
		return nil, api.Errorf(api.CodeUnknownKind, "unknown collective kind %q", req.Kind)
	}
	if req.Stream {
		return streamBuild(req)
	}
	opts, aerr := buildOptions(req)
	if aerr != nil {
		return nil, aerr
	}
	s, err := Build(kind, req.N, opts...)
	if err != nil {
		return nil, api.Errorf(api.CodeBuildFailed, "%v", err)
	}
	resp := &api.BuildResponse{
		Version:   api.Version,
		Kind:      req.Kind,
		Algorithm: s.Algorithm,
		N:         req.N,
		Steps:     s.NumSteps(),
	}
	for _, st := range s.Steps {
		resp.Transfers += len(st.Transfers)
	}
	if req.Wavelengths > 0 {
		if err := s.Validate(req.Wavelengths); err != nil {
			return nil, api.Errorf(api.CodeBuildFailed, "schedule validation: %v", err)
		}
		resp.Wavelengths = req.Wavelengths
		resp.Validated = true
	}
	return resp, nil
}

// streamBuild is the stream-and-consume construction path: the
// schedule is validated step by step as it streams (peak memory
// O(max step) + O(index)) and never materialized.
func streamBuild(req api.BuildRequest) (*api.BuildResponse, *api.Error) {
	if req.Kind != string(KindWRHT) {
		return nil, api.Errorf(api.CodeBadRequest, "build: stream mode supports only kind %q, got %q", KindWRHT, req.Kind)
	}
	if req.Faults != nil || req.Rows != 0 || req.Cols != 0 || len(req.Participants) > 0 || req.Root != nil {
		return nil, api.Errorf(api.CodeBadRequest, "build: stream mode takes only n, wavelengths, group_size, max_group_size and no_all_to_all")
	}
	src, err := core.StreamWRHT(core.Config{
		N:               req.N,
		Wavelengths:     req.Wavelengths,
		GroupSize:       req.GroupSize,
		MaxGroupSize:    req.MaxGroupSize,
		DisableAllToAll: req.NoAllToAll,
	})
	if err != nil {
		return nil, api.Errorf(api.CodeBuildFailed, "%v", err)
	}
	ring := src.Ring()
	v := core.NewStepValidator(ring, rwa.NewIndex(ring), req.Wavelengths)
	steps, transfers := 0, 0
	for {
		st, ok := src.Next()
		if !ok {
			break
		}
		if err := v.Step(st); err != nil {
			return nil, api.Errorf(api.CodeBuildFailed, "%v", err)
		}
		steps++
		transfers += len(st.Transfers)
	}
	return &api.BuildResponse{
		Version:     api.Version,
		Kind:        req.Kind,
		Algorithm:   src.Algorithm(),
		N:           ring.N,
		Wavelengths: req.Wavelengths,
		Steps:       steps,
		Transfers:   transfers,
		Validated:   true,
		Streamed:    true,
	}, nil
}

// buildOptions maps the request's set fields onto Build options,
// pre-classifying the strict-option check so the error carries a
// typed code instead of Build's plain error.
func buildOptions(req api.BuildRequest) ([]BuildOption, *api.Error) {
	kind := Kind(req.Kind)
	var names []string
	var opts []BuildOption
	add := func(name string, o BuildOption) {
		names = append(names, name)
		opts = append(opts, o)
	}
	if req.Wavelengths != 0 {
		add("WithWavelengths", WithWavelengths(req.Wavelengths))
	}
	if req.GroupSize != 0 {
		add("WithGroupSize", WithGroupSize(req.GroupSize))
	}
	if req.MaxGroupSize != 0 {
		add("WithMaxGroupSize", WithMaxGroupSize(req.MaxGroupSize))
	}
	if req.Rows < 0 || req.Cols < 0 {
		return nil, api.Errorf(api.CodeBadRequest, "build: rows and cols must not be negative, got %dx%d", req.Rows, req.Cols)
	}
	if req.Rows != 0 || req.Cols != 0 {
		add("WithDims", WithDims(req.Rows, req.Cols))
	}
	if len(req.Participants) > 0 {
		add("WithParticipants", WithParticipants(req.Participants...))
	}
	if req.Root != nil {
		add("WithRoot", WithRoot(*req.Root))
	}
	if req.NoAllToAll {
		add("WithoutAllToAll", WithoutAllToAll())
	}
	if req.Faults != nil {
		mask, aerr := sampleRequestFaults(req)
		if aerr != nil {
			return nil, aerr
		}
		add("WithFaults", WithFaults(mask))
	}
	accepted := buildAccepts[kind]
	for _, name := range names {
		found := false
		for _, a := range accepted {
			if a == name {
				found = true
				break
			}
		}
		if !found {
			return nil, api.Errorf(api.CodeUnconsumedOption, "option %s is not consumed by kind %q", name, kind)
		}
	}
	return opts, nil
}

// sampleRequestFaults draws the request's fault mask; dead
// wavelengths sample from the request's wavelength budget. Negative
// counts and a negative MRR loss are rejected before fault.Spec sees
// them.
func sampleRequestFaults(req api.BuildRequest) (*FaultMask, *api.Error) {
	fs := req.Faults
	for _, c := range []struct {
		name string
		n    int
	}{
		{"nodes", fs.Nodes}, {"transceivers", fs.Transceivers}, {"wavelengths", fs.Wavelengths},
		{"segments", fs.Segments}, {"mrrs", fs.MRRs},
	} {
		if c.n < 0 {
			return nil, api.Errorf(api.CodeBadRequest, "faults: %s must not be negative, got %d", c.name, c.n)
		}
	}
	if !(fs.MRRLossDB >= 0) {
		return nil, api.Errorf(api.CodeBadRequest, "faults: mrr_loss_db must not be negative, got %g", fs.MRRLossDB)
	}
	if fs.Wavelengths > 0 && req.Wavelengths < 1 {
		return nil, api.Errorf(api.CodeBadRequest,
			"faults: sampling %d dead wavelengths needs the request's wavelength budget (set wavelengths)", fs.Wavelengths)
	}
	sp := fault.Spec{
		Seed:             fs.Seed,
		Nodes:            fs.Nodes,
		Transceivers:     fs.Transceivers,
		Wavelengths:      fs.Wavelengths,
		Segments:         fs.Segments,
		MRRs:             fs.MRRs,
		WavelengthBudget: req.Wavelengths,
		MRRLossDB:        fs.MRRLossDB,
	}
	return sp.Sample(req.N), nil
}

// ServeSimulate answers one api.SimulateRequest: build the embedded
// schedule, then time it on the named backend with the request's
// options mapped onto Simulate's functional options.
func ServeSimulate(req api.SimulateRequest) (*api.SimulateResponse, *api.Error) {
	req = req.Normalize()
	if req.PayloadBytes <= 0 {
		return nil, api.Errorf(api.CodeBadRequest, "simulate: payload_bytes must be positive, got %g", req.PayloadBytes)
	}
	if req.Hosts < 0 {
		return nil, api.Errorf(api.CodeBadRequest, "simulate: hosts must not be negative, got %d", req.Hosts)
	}
	backend := Backend(req.Backend)
	switch backend {
	case Optical, ElectricalFatTree:
	default:
		return nil, api.Errorf(api.CodeUnknownBackend, "unknown backend %q (want %q or %q)", req.Backend, Optical, ElectricalFatTree)
	}
	if req.Overlap && backend == ElectricalFatTree {
		return nil, api.Errorf(api.CodeBadRequest, "overlap mode is an optical-circuit optimization; the electrical backend does not take it")
	}
	if req.Build.Stream {
		return nil, api.Errorf(api.CodeBadRequest, "simulate: build.stream is a build-endpoint mode; simulation needs a materialized schedule")
	}
	kind := Kind(req.Build.Kind)
	if _, ok := buildAccepts[kind]; !ok {
		return nil, api.Errorf(api.CodeUnknownKind, "unknown collective kind %q", req.Build.Kind)
	}
	if req.Build.N < 1 {
		return nil, api.Errorf(api.CodeBadRequest, "simulate: build.n must be at least 1, got %d", req.Build.N)
	}
	opts, aerr := buildOptions(req.Build)
	if aerr != nil {
		return nil, aerr
	}
	s, err := Build(kind, req.Build.N, opts...)
	if err != nil {
		return nil, api.Errorf(api.CodeBuildFailed, "%v", err)
	}
	var simOpts []SimOption
	if req.Overlap {
		simOpts = append(simOpts, WithOverlap())
	}
	if req.Hosts > 0 {
		simOpts = append(simOpts, WithHosts(req.Hosts))
	}
	if req.NoValidate {
		simOpts = append(simOpts, WithoutValidation())
	}
	var tr *obs.Tracer
	if req.Trace {
		tr = obs.NewTracer()
		simOpts = append(simOpts, WithObserver(obs.NewFabricObserver(tr, nil, req.Backend+"/"+s.Algorithm)))
	}
	res, err := Simulate(backend, s, req.PayloadBytes, simOpts...)
	if err != nil {
		return nil, api.Errorf(api.CodeSimulateFailed, "%v", err)
	}
	resp := &api.SimulateResponse{
		Version:      api.Version,
		Backend:      req.Backend,
		PayloadBytes: req.PayloadBytes,
		Result:       api.SimResultFrom(res),
	}
	if tr != nil {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return nil, api.Errorf(api.CodeInternal, "encoding trace: %v", err)
		}
		resp.Trace = json.RawMessage(buf.Bytes())
	}
	return resp, nil
}
