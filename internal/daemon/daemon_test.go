package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wrht/internal/api"
)

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, b
}

func decodeErrorEnvelope(t *testing.T, b []byte) *api.Error {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("decoding error envelope from %q: %v", b, err)
	}
	if env.Error == nil {
		t.Fatalf("no error in envelope %q", b)
	}
	return env.Error
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func TestBuildEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, b := postJSON(t, ts.URL+"/v1/build", `{"kind":"wrht","n":64,"wavelengths":8}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, b)
	}
	var resp api.BuildResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if resp.Version != api.Version {
		t.Errorf("version = %q, want %q", resp.Version, api.Version)
	}
	if !resp.Validated {
		t.Error("response not validated despite wavelengths > 0")
	}
	if resp.Steps <= 0 || resp.Transfers <= 0 {
		t.Errorf("empty schedule: %d steps, %d transfers", resp.Steps, resp.Transfers)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, b := postJSON(t, ts.URL+"/v1/simulate",
		`{"backend":"optical","payload_bytes":1048576,"build":{"kind":"wrht","n":32,"wavelengths":8}}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, b)
	}
	var resp api.SimulateResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if resp.Result.Time <= 0 {
		t.Errorf("non-positive simulated time %g", resp.Result.Time)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, b := postJSON(t, ts.URL+"/v1/sweep",
		`{"sweep":"faults","ns":[16],"wavelengths":4,"payload_mb":1,"dead":[0,1]}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, b)
	}
	var resp api.SweepResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(resp.Faults) != 2 {
		t.Fatalf("got %d fault points, want 2", len(resp.Faults))
	}
}

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, b := postJSON(t, ts.URL+"/v1/plan",
		`{"rs":[4],"wavelengths":8,"a_micros":[25],"payload_mb":1,"no_rescue":true}`)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, b)
	}
	var resp api.PlanResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(resp.Points) == 0 {
		t.Fatal("no plan points")
	}
	if len(resp.Rescue) != 0 {
		t.Fatal("rescue rows present despite no_rescue")
	}
}

// Every error leaves the daemon as the typed envelope with the right
// code and HTTP status.
func TestErrorEnvelopes(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"bad json", "/v1/build", `{"kind":`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown field", "/v1/build", `{"kind":"wrht","n":8,"bogus":1}`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown kind", "/v1/build", `{"kind":"quantum","n":8}`, http.StatusBadRequest, api.CodeUnknownKind},
		{"unconsumed option", "/v1/build", `{"kind":"ring","n":8,"wavelengths":4}`, http.StatusBadRequest, api.CodeUnconsumedOption},
		{"unknown backend", "/v1/simulate", `{"backend":"carrier-pigeon","payload_bytes":1,"build":{"kind":"ring","n":8}}`, http.StatusBadRequest, api.CodeUnknownBackend},
		{"negative payload", "/v1/simulate", `{"backend":"optical","payload_bytes":-1,"build":{"kind":"ring","n":8}}`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown sweep", "/v1/sweep", `{"sweep":"warp","wavelengths":4,"payload_mb":1}`, http.StatusBadRequest, api.CodeBadRequest},
		{"empty plan grid", "/v1/plan", `{"rs":[],"wavelengths":8,"a_micros":[25],"payload_mb":1}`, http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, b := postJSON(t, ts.URL+tc.path, tc.body)
			if code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", code, tc.status, b)
			}
			if e := decodeErrorEnvelope(t, b); e.Code != tc.code {
				t.Errorf("code = %q, want %q (message %q)", e.Code, tc.code, e.Message)
			}
		})
	}
}

// TestMalformedGridsAreBadRequests: grid entries that used to panic on
// a sweep worker goroutine, killing the daemon, are typed 400s, and the
// daemon then answers requests at the bounds (N = 1, a = 0).
func TestMalformedGridsAreBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct{ path, body string }{
		{"/v1/sweep", `{"sweep":"faults","ns":[0],"wavelengths":2,"payload_mb":1}`},
		{"/v1/plan", `{"rs":[0],"wavelengths":8,"a_micros":[25],"payload_mb":1}`},
		{"/v1/plan", `{"rs":[-2],"wavelengths":8,"a_micros":[25],"payload_mb":1}`},
		{"/v1/plan", `{"rs":[4],"wavelengths":8,"a_micros":[-25],"payload_mb":1}`},
		{"/v1/simulate", `{"backend":"electrical","build":{"kind":"ring","n":8},"payload_bytes":1024,"hosts":-1}`},
		{"/v1/sweep", `{"sweep":"overlap","ns":[64],"wavelengths":8,"payload_mb":1,"passes":"reorder"}`},
	} {
		code, b := postJSON(t, ts.URL+tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s %s: status = %d, want 400 (body %s)", tc.path, tc.body, code, b)
		}
		if e := decodeErrorEnvelope(t, b); e.Code != api.CodeBadRequest {
			t.Errorf("%s %s: code = %q, want %q", tc.path, tc.body, e.Code, api.CodeBadRequest)
		}
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/sweep", `{"sweep":"faults","ns":[1],"wavelengths":2,"payload_mb":1}`},
		{"/v1/plan", `{"rs":[4],"wavelengths":8,"a_micros":[0],"payload_mb":1,"no_rescue":true}`},
		{"/v1/simulate", `{"backend":"electrical","build":{"kind":"ring","n":8},"payload_bytes":1024,"hosts":0}`},
		{"/v1/sweep", `{"sweep":"overlap","ns":[64],"wavelengths":8,"payload_mb":1,"passes":"split"}`},
	} {
		if code, b := postJSON(t, ts.URL+tc.path, tc.body); code != http.StatusOK {
			t.Errorf("%s %s: status = %d, want 200 (body %s)", tc.path, tc.body, code, b)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/build")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if e := decodeErrorEnvelope(t, b); e.Code != api.CodeMethodNotAllowed {
		t.Errorf("code = %q, want %q", e.Code, api.CodeMethodNotAllowed)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/build", `{"kind":"wrht","n":16,"wavelengths":4}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	text := string(b)
	for _, want := range []string{"api_requests", `endpoint="build"`, "api_request_seconds"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// After Close the daemon's base context is canceled: any request that
// still reaches a handler fails fast with the canceled code rather
// than computing for a caller the daemon is abandoning.
func TestClosedServerReturnsCanceled(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	code, b := postJSON(t, ts.URL+"/v1/build", `{"kind":"wrht","n":16,"wavelengths":4}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", code, b)
	}
	if e := decodeErrorEnvelope(t, b); e.Code != api.CodeCanceled {
		t.Errorf("code = %q, want %q", e.Code, api.CodeCanceled)
	}
}

// Duplicate concurrent requests coalesce: the hit counter moves and
// all callers get the same bytes.
func TestCoalescingObserved(t *testing.T) {
	s, ts := newTestServer(t)
	const callers = 8
	// A sweep heavy enough (~hundreds of ms) that concurrent callers
	// reliably land inside the in-flight window.
	body := `{"sweep":"crossfabric","n":512,"wavelengths":64,"payload_mb":100}`
	results := make(chan []byte, callers)
	for i := 0; i < callers; i++ {
		go func() {
			code, b := postJSON(t, ts.URL+"/v1/sweep", body)
			if code != http.StatusOK {
				t.Errorf("status = %d, body %s", code, b)
			}
			results <- b
		}()
	}
	first := <-results
	for i := 1; i < callers; i++ {
		if got := <-results; string(got) != string(first) {
			t.Fatalf("coalesced callers saw different bytes:\n%s\nvs\n%s", first, got)
		}
	}
	// With 8 identical concurrent requests at least some must have
	// joined an in-flight execution.
	var hits int64
	for name, v := range s.Registry().Snapshot().Counters {
		if strings.HasPrefix(name, "api.coalesce.hits") {
			hits += v
		}
	}
	if hits == 0 {
		t.Error("no coalescing hits recorded for 8 identical concurrent sweeps")
	}
}
