package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"wrht"
	"wrht/internal/api"
	"wrht/internal/exp"
)

// decode parses a request body the way the daemon does: strictly, into
// the endpoint's request type.
func decode(endpoint string, body []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var v any
	var err error
	switch endpoint {
	case "build":
		var r api.BuildRequest
		err, v = dec.Decode(&r), r
	case "simulate":
		var r api.SimulateRequest
		err, v = dec.Decode(&r), r
	case "sweep":
		var r api.SweepRequest
		err, v = dec.Decode(&r), r
	case "plan":
		var r api.PlanRequest
		err, v = dec.Decode(&r), r
	default:
		return nil, fmt.Errorf("unknown endpoint %q", endpoint)
	}
	if err != nil {
		return nil, fmt.Errorf("decoding %s request: %w", endpoint, err)
	}
	return v, nil
}

// execute runs the in-process executor behind an endpoint — the same
// function wrhtd calls for the request — and returns its response.
func execute(o exp.Options, req any) (any, error) {
	var resp any
	var aerr *api.Error
	switch r := req.(type) {
	case api.BuildRequest:
		resp, aerr = wrht.ServeBuild(r)
	case api.SimulateRequest:
		resp, aerr = wrht.ServeSimulate(r)
	case api.SweepRequest:
		resp, _, aerr = api.RunSweep(o, r)
	case api.PlanRequest:
		resp, _, aerr = api.RunPlan(o, r)
	default:
		return nil, fmt.Errorf("no executor for %T", req)
	}
	if aerr != nil {
		return nil, aerr
	}
	return resp, nil
}

// expected returns the bytes wrhtd must answer a request with: the
// in-process executor's response through api.Encode.
func expected(o exp.Options, rq Request) ([]byte, error) {
	req, err := decode(rq.Endpoint, rq.Body)
	if err != nil {
		return nil, err
	}
	resp, err := execute(o, req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", rq.Endpoint, rq.Body, err)
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, resp); err != nil {
		return nil, fmt.Errorf("encoding %s response: %w", rq.Endpoint, err)
	}
	return buf.Bytes(), nil
}
