package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer's public function. Spans of one
// operation share Op; Parent is the index of the enclosing span, or -1.
type Span struct {
	Name       string
	Op, Parent int
	Start, End time.Duration // since the tracer's base time
	// Allocs is the heap allocation count between the span's
	// boundaries, read outside the timed interval.
	Allocs uint64
}

func (s Span) seconds() float64 { return (s.End - s.Start).Seconds() }

// layer is the span name's layer: the text before its first dot.
func (s Span) layer() string { l, _, _ := strings.Cut(s.Name, "."); return l }

// Tracer keeps spans in memory until the run ends, when writeFile
// saves them.
type Tracer struct {
	base  time.Time
	spans []Span
	ms    runtime.MemStats
}

func newTracer() *Tracer { return &Tracer{base: time.Now()} }

// mallocs reads the process's cumulative allocation count.
func (t *Tracer) mallocs() uint64 {
	runtime.ReadMemStats(&t.ms)
	return t.ms.Mallocs
}

// begin opens a span named name under parent (-1 for an operation's
// root) and returns its index for end. The allocation count is read
// before the clock starts.
func (t *Tracer) begin(name string, op, parent int) int {
	a0 := t.mallocs()
	t.spans = append(t.spans, Span{Name: name, Op: op, Parent: parent, Allocs: a0, Start: time.Since(t.base)})
	return len(t.spans) - 1
}

// end closes span i, reading the allocation count after the clock stops.
func (t *Tracer) end(i int) {
	t.spans[i].End = time.Since(t.base)
	t.spans[i].Allocs = t.mallocs() - t.spans[i].Allocs
}

// span runs fn as a child span of parent.
func (t *Tracer) span(name string, op, parent int, fn func() error) error {
	i := t.begin(name, op, parent)
	err := fn()
	t.end(i)
	return err
}

// named returns the spans called name.
func (t *Tracer) named(name string) []Span {
	var out []Span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// medianMs is the median duration of the spans called name, in ms.
func (t *Tracer) medianMs(name string) float64 {
	var xs []float64
	for _, s := range t.named(name) {
		xs = append(xs, s.seconds()*1e3)
	}
	return median(xs)
}

// medianAllocs is the median allocation count of the spans called name.
func (t *Tracer) medianAllocs(name string) float64 {
	var xs []float64
	for _, s := range t.named(name) {
		xs = append(xs, float64(s.Allocs))
	}
	return median(xs)
}

// total is the summed duration (s) of the spans whose name has prefix.
func (t *Tracer) total(prefix string) float64 {
	var sum float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			sum += s.seconds()
		}
	}
	return sum
}

// layerRow is one line of the per-layer report.
type layerRow struct {
	layer  string
	self   float64 // seconds
	count  int
	allocs uint64
	share  float64 // of all operation time
}

// layers aggregates self time (a span minus its children), span count
// and allocations per layer over the operations' "op." trees, plus any
// rows derived elsewhere (extra), with each layer's share of the total.
// Root spans contribute their self time — the tracing and bookkeeping
// between layer calls — under layer "op".
func (t *Tracer) layers(extra ...layerRow) []layerRow {
	child := make([]time.Duration, len(t.spans))
	inOp := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.Parent < 0 {
			inOp[i] = strings.HasPrefix(s.Name, "op.")
		} else {
			inOp[i] = inOp[s.Parent]
			child[s.Parent] += s.End - s.Start
		}
	}
	var total float64
	rows := map[string]*layerRow{}
	for i, s := range t.spans {
		if !inOp[i] {
			continue
		}
		r := rows[s.layer()]
		if r == nil {
			r = &layerRow{layer: s.layer()}
			rows[s.layer()] = r
		}
		self := (s.End - s.Start - child[i]).Seconds()
		r.self += self
		total += self
		r.count++
		if s.Parent >= 0 {
			r.allocs += s.Allocs
		}
	}
	out := extra
	for _, r := range out {
		total += r.self
	}
	for _, r := range rows {
		out = append(out, *r)
	}
	for i := range out {
		out[i].share = out[i].self / total
	}
	sort.Slice(out, func(a, b int) bool { return out[a].self > out[b].self })
	return out
}

// printLayers writes the per-layer table.
func (t *Tracer) printLayers(w io.Writer, extra ...layerRow) {
	fmt.Fprintf(w, "  %-12s %12s %8s %14s %8s\n", "layer", "self (s)", "count", "allocs", "share")
	for _, r := range t.layers(extra...) {
		fmt.Fprintf(w, "  %-12s %12.4f %8d %14d %7.1f%%\n", r.layer, r.self, r.count, r.allocs, 100*r.share)
	}
}

// writeFile saves the spans as a Chrome Trace Event document (load it
// at https://ui.perfetto.dev): one complete event per span, in
// microseconds since the tracer started, with the operation, parent
// and allocation count as arguments.
func (t *Tracer) writeFile(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	doc := struct {
		TraceEvents []event `json:"traceEvents"`
	}{TraceEvents: make([]event, 0, len(t.spans))}
	for _, s := range t.spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"op": s.Op, "parent": s.Parent, "allocs": s.Allocs},
		})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
