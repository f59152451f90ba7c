package wrht_test

import (
	"encoding/json"
	"strings"
	"testing"

	"wrht"
	"wrht/internal/api"
)

// The API layer must surface Build's strict-option failures as typed
// errors: same failure site, same message text, plus a code a client
// can dispatch on.
func TestServeBuildErrorPaths(t *testing.T) {
	root := 0
	cases := []struct {
		name    string
		req     api.BuildRequest
		code    string
		message string // substring the message must carry
	}{
		{
			name: "zero n",
			req:  api.BuildRequest{Kind: "wrht"},
			code: api.CodeBadRequest, message: "n must be at least 1",
		},
		{
			name: "unknown kind",
			req:  api.BuildRequest{Kind: "quantum", N: 8},
			code: api.CodeUnknownKind, message: `unknown collective kind "quantum"`,
		},
		{
			name: "wavelengths unconsumed by ring",
			req:  api.BuildRequest{Kind: "ring", N: 8, Wavelengths: 4},
			code: api.CodeUnconsumedOption, message: `option WithWavelengths is not consumed by kind "ring"`,
		},
		{
			name: "dims unconsumed by wrht",
			req:  api.BuildRequest{Kind: "wrht", N: 16, Wavelengths: 4, Rows: 4, Cols: 4},
			code: api.CodeUnconsumedOption, message: `option WithDims is not consumed by kind "wrht"`,
		},
		{
			name: "root unconsumed by reduce-scatter",
			req:  api.BuildRequest{Kind: "reduce-scatter", N: 8, Root: &root},
			code: api.CodeUnconsumedOption, message: `option WithRoot is not consumed by kind "reduce-scatter"`,
		},
		{
			name: "dead wavelengths without a budget",
			req:  api.BuildRequest{Kind: "wrht", N: 16, Faults: &api.FaultSpec{Seed: 1, Wavelengths: 2}},
			code: api.CodeBadRequest, message: "wavelength budget",
		},
		{
			name: "stream rejects non-wrht",
			req:  api.BuildRequest{Kind: "ring", N: 8, Stream: true},
			code: api.CodeBadRequest, message: "stream mode supports only kind",
		},
		{
			name: "stream rejects faults",
			req:  api.BuildRequest{Kind: "wrht", N: 16, Wavelengths: 4, Stream: true, Faults: &api.FaultSpec{Nodes: 1}},
			code: api.CodeBadRequest, message: "stream mode takes only",
		},
		{
			name: "construction failure",
			req:  api.BuildRequest{Kind: "torus", N: 7, Rows: 2, Cols: 5},
			code: api.CodeBuildFailed,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, aerr := wrht.ServeBuild(tc.req)
			if aerr == nil {
				t.Fatalf("no error; response %+v", resp)
			}
			if aerr.Code != tc.code {
				t.Errorf("code = %q, want %q (message %q)", aerr.Code, tc.code, aerr.Message)
			}
			if tc.message != "" && !strings.Contains(aerr.Message, tc.message) {
				t.Errorf("message %q does not contain %q", aerr.Message, tc.message)
			}
		})
	}
}

// Bodies that once panicked inside the facade (and so killed the
// daemon's request goroutine) must come back as typed bad_request
// errors from both executors.
func TestServeRejectsNegativeDimsAndFaults(t *testing.T) {
	cases := []struct {
		name, body, message string
	}{
		{"negative torus dims", `{"kind":"torus","n":16,"wavelengths":4,"rows":-4,"cols":-4}`, "rows and cols"},
		{"negative mrr loss", `{"kind":"wrht","n":16,"wavelengths":4,"faults":{"mrrs":3,"mrr_loss_db":-4}}`, "mrr_loss_db"},
		{"negative segments", `{"kind":"wrht","n":16,"wavelengths":4,"faults":{"segments":-4}}`, "segments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req api.BuildRequest
			dec := json.NewDecoder(strings.NewReader(tc.body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("decode: %v", err)
			}
			check := func(surface string, call func() *api.Error) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s panicked: %v", surface, p)
					}
				}()
				aerr := call()
				if aerr == nil {
					t.Fatalf("%s accepted the body", surface)
				}
				if aerr.Code != api.CodeBadRequest || aerr.HTTPStatus() != 400 {
					t.Errorf("%s: code %q (HTTP %d), want bad_request (400); message %q", surface, aerr.Code, aerr.HTTPStatus(), aerr.Message)
				}
				if !strings.Contains(aerr.Message, tc.message) {
					t.Errorf("%s: message %q does not name %q", surface, aerr.Message, tc.message)
				}
			}
			check("ServeBuild", func() *api.Error {
				_, aerr := wrht.ServeBuild(req)
				return aerr
			})
			check("ServeSimulate", func() *api.Error {
				_, aerr := wrht.ServeSimulate(api.SimulateRequest{Backend: "optical", PayloadBytes: 1, Build: req})
				return aerr
			})
		})
	}
}

// A typed unconsumed_option error must carry the same message Build's
// plain strict-option error does (minus the package prefix): one
// failure, one text, two surfaces.
func TestServeBuildMatchesBuildErrorText(t *testing.T) {
	_, err := wrht.Build(wrht.KindRing, 8, wrht.WithWavelengths(4))
	if err == nil {
		t.Fatal("direct Build accepted an unconsumed option")
	}
	_, aerr := wrht.ServeBuild(api.BuildRequest{Kind: "ring", N: 8, Wavelengths: 4})
	if aerr == nil {
		t.Fatal("ServeBuild accepted an unconsumed option")
	}
	if want := strings.TrimPrefix(err.Error(), "wrht: "); aerr.Message != want {
		t.Errorf("API message %q != Build message %q", aerr.Message, want)
	}
}

func TestServeSimulateErrorPaths(t *testing.T) {
	okBuild := api.BuildRequest{Kind: "ring", N: 8}
	cases := []struct {
		name    string
		req     api.SimulateRequest
		code    string
		message string
	}{
		{
			name: "zero payload",
			req:  api.SimulateRequest{Backend: "optical", Build: okBuild},
			code: api.CodeBadRequest, message: "payload_bytes must be positive",
		},
		{
			name: "negative payload",
			req:  api.SimulateRequest{Backend: "optical", Build: okBuild, PayloadBytes: -5},
			code: api.CodeBadRequest, message: "payload_bytes must be positive",
		},
		{
			name: "unknown backend",
			req:  api.SimulateRequest{Backend: "carrier-pigeon", Build: okBuild, PayloadBytes: 1},
			code: api.CodeUnknownBackend, message: `unknown backend "carrier-pigeon"`,
		},
		{
			name: "overlap on electrical",
			req:  api.SimulateRequest{Backend: "electrical", Build: okBuild, PayloadBytes: 1, Overlap: true},
			code: api.CodeBadRequest, message: "electrical backend does not take it",
		},
		{
			name: "stream build",
			req: api.SimulateRequest{Backend: "optical", PayloadBytes: 1,
				Build: api.BuildRequest{Kind: "wrht", N: 16, Wavelengths: 4, Stream: true}},
			code: api.CodeBadRequest, message: "materialized schedule",
		},
		{
			name: "unknown embedded kind",
			req: api.SimulateRequest{Backend: "optical", PayloadBytes: 1,
				Build: api.BuildRequest{Kind: "quantum", N: 8}},
			code: api.CodeUnknownKind,
		},
		{
			name: "unconsumed embedded option",
			req: api.SimulateRequest{Backend: "optical", PayloadBytes: 1,
				Build: api.BuildRequest{Kind: "ring", N: 8, GroupSize: 4}},
			code: api.CodeUnconsumedOption, message: "WithGroupSize",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, aerr := wrht.ServeSimulate(tc.req)
			if aerr == nil {
				t.Fatalf("no error; response %+v", resp)
			}
			if aerr.Code != tc.code {
				t.Errorf("code = %q, want %q (message %q)", aerr.Code, tc.code, aerr.Message)
			}
			if tc.message != "" && !strings.Contains(aerr.Message, tc.message) {
				t.Errorf("message %q does not contain %q", aerr.Message, tc.message)
			}
		})
	}
}

// The happy path: a traced simulate returns a non-empty inline trace
// and the same result an untraced run produces.
func TestServeSimulateTraceInline(t *testing.T) {
	req := api.SimulateRequest{
		Backend: "optical", PayloadBytes: 1 << 20,
		Build: api.BuildRequest{Kind: "wrht", N: 32, Wavelengths: 8},
	}
	plain, aerr := wrht.ServeSimulate(req)
	if aerr != nil {
		t.Fatalf("ServeSimulate: %v", aerr)
	}
	req.Trace = true
	traced, aerr := wrht.ServeSimulate(req)
	if aerr != nil {
		t.Fatalf("ServeSimulate with trace: %v", aerr)
	}
	if len(traced.Trace) == 0 {
		t.Fatal("trace requested but response carries none")
	}
	if traced.Result.Time != plain.Result.Time || traced.Result.Steps != plain.Result.Steps {
		t.Errorf("tracing changed the result: %+v vs %+v", traced.Result, plain.Result)
	}
}
