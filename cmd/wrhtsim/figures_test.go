package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"wrht/internal/api"
)

// figuresRun drives one invocation with -json and returns the written
// file, decoded strictly into the api figure schema, and its bytes.
func figuresRun(t *testing.T, cfg runConfig) (api.FiguresResponse, []byte) {
	t.Helper()
	cfg.jsonOut = filepath.Join(t.TempDir(), "figures.json")
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	code := run(cfg)
	os.Stdout = old
	null.Close()
	if code != 0 {
		t.Fatalf("%s -json exited %d", cfg.cmd, code)
	}
	raw, err := os.ReadFile(cfg.jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var out api.FiguresResponse
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("%s -json does not decode as api.FiguresResponse: %v", cfg.cmd, err)
	}
	return out, raw
}

// TestFiguresJSON: fig4 -json writes the figure's raw series in the
// versioned api schema, as a pure function of the run (byte-identical
// across runs and worker counts); all -json writes the figures too,
// not the plan points.
func TestFiguresJSON(t *testing.T) {
	fig4 := runConfig{cmd: "fig4", granularity: "fused", workers: 1}
	out, a := figuresRun(t, fig4)
	if out.Version != api.Version {
		t.Errorf("version = %q, want %q", out.Version, api.Version)
	}
	if len(out.Figures) != 1 || out.Figures[0].Name != "fig4" {
		t.Fatalf("fig4 -json wrote %d figures, want one named fig4", len(out.Figures))
	}
	f := out.Figures[0]
	if len(f.XTicks) == 0 || len(f.Series) == 0 {
		t.Fatalf("fig4 has %d x ticks and %d series", len(f.XTicks), len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Y) != len(f.XTicks) {
			t.Errorf("series %q has %d points for %d x ticks", s.Name, len(s.Y), len(f.XTicks))
		}
	}
	if _, b := figuresRun(t, fig4); !bytes.Equal(a, b) {
		t.Error("two fig4 -json runs wrote different bytes")
	}
	fig4.workers = 8
	if _, b := figuresRun(t, fig4); !bytes.Equal(a, b) {
		t.Error("fig4 -json differs between -workers 1 and -workers 8")
	}

	all, _ := figuresRun(t, runConfig{
		cmd: "all", granularity: "fused", n: 64, w: 8, payloadMB: 100,
		passes: "all", planR: "8,16,32", planA: "25",
	})
	if len(all.Figures) < 4 || all.Figures[0].Name != "fig4" {
		t.Fatalf("all -json wrote %d figures, want fig4 first and fig5–7 after it", len(all.Figures))
	}
}
