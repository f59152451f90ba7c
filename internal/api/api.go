// Package api defines the versioned request/response schema shared by
// the wrhtd daemon and the wrhtsim/trainsim CLIs. Every JSON payload a
// CLI emits with -json and every body wrhtd serves marshals through the
// types here, so the two surfaces cannot drift: the daemon parity test
// (cmd/wrhtsim) asserts byte identity and the round-trip test in this
// package asserts encode → decode → deep-equal for every type.
//
// The schema is deliberately free of wall-clock fields (no time.Time,
// no durations measured off the host clock): responses are pure
// functions of the request, which is what makes both the byte-parity
// guarantee and the daemon's request coalescing sound. Volatile
// observability lives in the obs registry, never in API responses.
package api

import (
	"encoding/json"
	"fmt"
	"io"

	"wrht/internal/core"
)

// Version is the API generation every response carries and every
// daemon route is prefixed with ("/v1/...").
const Version = "v1"

// Error codes. They partition the failure space coarsely enough for a
// client to dispatch on without parsing messages.
const (
	// CodeBadRequest covers malformed or self-contradictory requests
	// (bad JSON, missing required fields, negative payloads).
	CodeBadRequest = "bad_request"
	// CodeUnknownKind is a collective kind Build does not know.
	CodeUnknownKind = "unknown_kind"
	// CodeUnknownBackend is a simulation backend Simulate does not know.
	CodeUnknownBackend = "unknown_backend"
	// CodeUnconsumedOption is a build option the chosen kind does not
	// consume (the facade's strict functional-option check).
	CodeUnconsumedOption = "unconsumed_option"
	// CodeBuildFailed is a schedule construction or validation failure
	// for a structurally valid request.
	CodeBuildFailed = "build_failed"
	// CodeSimulateFailed is an engine or sweep failure.
	CodeSimulateFailed = "simulate_failed"
	// CodeCheckFailed reports a requested gate (overlap/plan -check)
	// that did not hold.
	CodeCheckFailed = "check_failed"
	// CodeCanceled is a request abandoned mid-flight (client gone or
	// daemon draining).
	CodeCanceled = "canceled"
	// CodeMethodNotAllowed is a non-POST hit on an API endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeInternal is everything else.
	CodeInternal = "internal"
)

// Error is the typed error every API surface returns. It implements
// error so executors can thread it through plain error returns.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

// Errorf builds an Error with a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// HTTPStatus maps the code to the status line wrhtd serves it under.
func (e *Error) HTTPStatus() int {
	switch e.Code {
	case CodeBadRequest, CodeUnknownKind, CodeUnknownBackend, CodeUnconsumedOption:
		return 400
	case CodeMethodNotAllowed:
		return 405
	case CodeBuildFailed, CodeSimulateFailed, CodeCheckFailed:
		return 422
	case CodeCanceled:
		return 503
	}
	return 500
}

// ErrorEnvelope is the body of every non-2xx daemon response:
// {"error": {"code": ..., "message": ...}}.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}

// Encode writes v as two-space-indented JSON with a trailing newline —
// the one serialization both the CLIs and the daemon use, so equal
// values produce equal bytes.
func Encode(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// FaultSpec mirrors fault.Spec: how many faults of each class to
// sample, deterministically from the seed. The wavelength population
// dead wavelengths are drawn from is the request's wavelength budget.
type FaultSpec struct {
	Seed         int64   `json:"seed,omitempty"`
	Nodes        int     `json:"nodes,omitempty"`
	Transceivers int     `json:"transceivers,omitempty"`
	Wavelengths  int     `json:"wavelengths,omitempty"`
	Segments     int     `json:"segments,omitempty"`
	MRRs         int     `json:"mrrs,omitempty"`
	MRRLossDB    float64 `json:"mrr_loss_db,omitempty"`
}

// BuildRequest asks for one schedule construction (wrht.Build through
// the facade's strict functional options). A zero field means "option
// not given": the facade maps each non-zero field onto its functional
// option and rejects any the kind does not consume, exactly as a
// direct Build call would.
type BuildRequest struct {
	// Kind is the collective ("wrht", "ring", "torus", ...); empty
	// defaults to "wrht".
	Kind string `json:"kind,omitempty"`
	// N is the ring size (required, ≥ 1).
	N            int        `json:"n"`
	Wavelengths  int        `json:"wavelengths,omitempty"`
	GroupSize    int        `json:"group_size,omitempty"`
	MaxGroupSize int        `json:"max_group_size,omitempty"`
	Rows         int        `json:"rows,omitempty"`
	Cols         int        `json:"cols,omitempty"`
	Participants []int      `json:"participants,omitempty"`
	Root         *int       `json:"root,omitempty"`
	NoAllToAll   bool       `json:"no_all_to_all,omitempty"`
	Faults       *FaultSpec `json:"faults,omitempty"`
	// Stream consumes the schedule as a step stream instead of
	// materializing it (WRHT only; the at-scale build path).
	Stream bool `json:"stream,omitempty"`
}

// Normalize returns the request with defaults resolved: the kind
// defaulted to "wrht" and, for WRHT builds with a wavelength budget,
// the group size resolved through core.Config.Canonical — so two
// requests that build identical schedules share one canonical form
// (and hence one singleflight key).
func (r BuildRequest) Normalize() BuildRequest {
	if r.Kind == "" {
		r.Kind = "wrht"
	}
	if r.Kind == "wrht" && r.Wavelengths > 0 {
		cfg := core.Config{
			N:            r.N,
			Wavelengths:  r.Wavelengths,
			GroupSize:    r.GroupSize,
			MaxGroupSize: r.MaxGroupSize,
		}.Canonical()
		r.GroupSize = cfg.GroupSize
	}
	return r
}

// Key returns the coalescing key: the canonical JSON of the normalized
// request. Requests with equal keys are interchangeable — they build
// byte-identical responses.
func (r BuildRequest) Key() string { return jsonKey(r.Normalize()) }

// SimulateRequest times one collective on one backend: the schedule
// described by Build, run at PayloadBytes per node.
type SimulateRequest struct {
	// Backend is "optical" or "electrical".
	Backend string       `json:"backend"`
	Build   BuildRequest `json:"build"`
	// PayloadBytes is the per-node gradient size in bytes (required,
	// > 0).
	PayloadBytes float64 `json:"payload_bytes"`
	// Overlap enables the reconfiguration–communication overlap mode
	// (optical only).
	Overlap bool `json:"overlap,omitempty"`
	// Hosts sets the electrical fat-tree host count, ≥ 0 (0 selects
	// the schedule's ring size).
	Hosts int `json:"hosts,omitempty"`
	// NoValidate skips the optical pre-run schedule validation.
	NoValidate bool `json:"no_validate,omitempty"`
	// Trace returns the simulated-time Perfetto timeline of the run
	// inline in the response.
	Trace bool `json:"trace,omitempty"`
}

// Normalize resolves the embedded build request's defaults.
func (r SimulateRequest) Normalize() SimulateRequest {
	r.Build = r.Build.Normalize()
	return r
}

// Key returns the coalescing key for the normalized request.
func (r SimulateRequest) Key() string { return jsonKey(r.Normalize()) }

// SweepRequest runs one of the exp package's named sweeps:
// "crossfabric" (N is the ring size), "overlap" or "faults" (Ns lists
// ring sizes; empty selects each sweep's paper default).
type SweepRequest struct {
	Sweep string `json:"sweep"`
	// N is the crossfabric ring size.
	N int `json:"n,omitempty"`
	// Ns lists the overlap/faults ring sizes, each ≥ 1; empty selects
	// the sweep's paper defaults ({1024, 4096} and {64, 1024, 4096}).
	Ns          []int   `json:"ns,omitempty"`
	Wavelengths int     `json:"wavelengths"`
	PayloadMB   float64 `json:"payload_mb"`
	// Passes selects the overlap IR pipeline: "all" or "split" (the
	// same one-pass pipeline; empty selects it too) or "none".
	Passes string `json:"passes,omitempty"`
	// Dead lists the faults sweep's dead-wavelength counts (empty
	// selects {0, 1, 2, 4, 8}); Seed seeds the fault sampling (0
	// selects the default seed 1, matching the CLI).
	Dead []int `json:"dead,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Check applies the sweep's CI gate (overlap: passes strictly beat
	// the baseline hidden count) and fails with check_failed otherwise.
	Check bool `json:"check,omitempty"`
}

// Normalize resolves the sweep defaults shared by CLI and daemon.
func (r SweepRequest) Normalize() SweepRequest {
	if r.Passes == "" {
		r.Passes = "all"
	}
	if r.Sweep == "faults" && r.Seed == 0 {
		r.Seed = 1
	}
	return r
}

// Key returns the coalescing key for the normalized request.
func (r SweepRequest) Key() string { return jsonKey(r.Normalize()) }

// PlanRequest sweeps the all-to-all planner over the (r, w, a) grid
// plus one electrical row per r, and measures the planner rescue on
// the named fallback configurations.
type PlanRequest struct {
	// Rs are the representative counts, each ≥ 1, and AMicros the
	// reconfiguration delays in µs, each ≥ 0; both required and
	// non-empty.
	Rs          []int     `json:"rs"`
	Wavelengths int       `json:"wavelengths"`
	AMicros     []float64 `json:"a_micros"`
	PayloadMB   float64   `json:"payload_mb"`
	// NoRescue skips the rescue table (grid sweep only).
	NoRescue bool `json:"no_rescue,omitempty"`
	// Check applies the planner CI gate (predicted argmin == simulated
	// argmin everywhere, rescue speedups > 1).
	Check bool `json:"check,omitempty"`
}

// Key returns the coalescing key for the request.
func (r PlanRequest) Key() string { return jsonKey(r) }

// jsonKey marshals a normalized request compactly. Marshaling a
// struct of scalars and slices cannot fail, so errors degrade to a
// (correct, never-shared) unique key rather than propagating.
func jsonKey(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("unkeyable:%p", &v)
	}
	return string(b)
}
