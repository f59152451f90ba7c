// Command perfbench is the repository benchmark. It runs one workload
// against the shipped wrhtsim and wrhtd binaries from outside, checks
// every output, and prints the end-to-end metrics; with -trace 1 it
// also replays the same work in-process with spans around each layer's
// public calls and prints the per-layer metrics instead.
//
// Run it through run.sh from the repository root, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload serve-optical --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's machine-readable verdict, printed as the
// last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// config is one invocation's resolved flags.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out is the build output directory: it holds the wrhtsim and wrhtd
	// binaries and receives the traced run's spans.
	out string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: repro, serve-optical or serve-fattree")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds the traced in-process replay and reports per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "build output directory: holds wrhtsim and wrhtd, receives the traced run's spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload measures one workload. Without tracing the whole time
// goes to the untraced measurement; with tracing, the untraced
// measurement and the traced in-process replay get half of it each.
func runWorkload(cfg config, report io.Writer) (Result, error) {
	var w interface {
		measure(seconds float64) (*e2e, error)
		traced(seconds float64, untraced *e2e) (*layered, error)
	}
	switch cfg.workload {
	case "repro":
		w = &repro{cfg: cfg}
	case "serve-optical", "serve-fattree":
		s, err := newServe(cfg)
		if err != nil {
			return Result{}, err
		}
		w = s
	case "":
		return Result{}, errors.New("-workload is required")
	default:
		return Result{}, fmt.Errorf("unknown workload %q (want repro, serve-optical or serve-fattree)", cfg.workload)
	}
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	u, err := w.measure(budget)
	if err != nil {
		return Result{}, err
	}
	u.print(report, cfg)
	if !cfg.trace {
		return u.result(), nil
	}
	l, err := w.traced(budget, u)
	if err != nil {
		return Result{}, err
	}
	l.print(report, cfg, u)
	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := l.tr.writeFile(path); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(report, "  spans written to %s\n", path)
	return l.result(u), nil
}
