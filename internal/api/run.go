package api

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"wrht/internal/exp"
	"wrht/internal/metrics"
)

// AsError coerces any error into a typed API error: typed errors pass
// through, context cancellation becomes CodeCanceled, and everything
// else (engine and sweep failures) becomes CodeSimulateFailed.
func AsError(err error) *Error {
	var ae *Error
	if errors.As(err, &ae) {
		return ae
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Errorf(CodeCanceled, "%v", err)
	}
	return Errorf(CodeSimulateFailed, "%v", err)
}

// RunSweep executes one named sweep for both surfaces: cmd/wrhtsim
// renders the returned tables and serializes the response with -json;
// wrhtd serves the response body. Because both call this one executor
// and encode with Encode, their JSON is byte-identical.
//
// On a check failure the response and tables are still returned
// alongside the CodeCheckFailed error, so the CLI can print the swept
// tables before reporting the gate violation (the daemon serves only
// the error).
func RunSweep(o exp.Options, req SweepRequest) (*SweepResponse, []*metrics.Table, *Error) {
	req = req.Normalize()
	if req.PayloadMB <= 0 {
		return nil, nil, Errorf(CodeBadRequest, "sweep %q: payload_mb must be positive, got %g", req.Sweep, req.PayloadMB)
	}
	if req.Wavelengths < 1 {
		return nil, nil, Errorf(CodeBadRequest, "sweep %q: wavelengths must be at least 1, got %d", req.Sweep, req.Wavelengths)
	}
	for _, n := range req.Ns {
		if n < 1 {
			return nil, nil, Errorf(CodeBadRequest, "sweep %q: every ns entry must be at least 1, got %d", req.Sweep, n)
		}
	}
	d := req.PayloadMB * 1e6
	resp := &SweepResponse{Version: Version, Sweep: req.Sweep}
	switch req.Sweep {
	case "crossfabric":
		if req.N < 1 {
			return nil, nil, Errorf(CodeBadRequest, "crossfabric sweep: n must be at least 1, got %d", req.N)
		}
		r, err := exp.CrossFabric(o, req.N, req.Wavelengths, d)
		if err != nil {
			return nil, nil, AsError(err)
		}
		cf := &CrossFabricResult{N: req.N, Wavelengths: req.Wavelengths, PayloadBytes: d}
		names := make([]string, 0, len(r.Runs))
		for name := range r.Runs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			algo, mode, _ := strings.Cut(name, "/")
			cf.Cells = append(cf.Cells, CrossFabricCell{
				Algorithm: algo, Mode: mode, Result: SimResultFrom(r.Runs[name]),
			})
		}
		resp.CrossFabric = cf
		return resp, []*metrics.Table{r.Table}, nil

	case "overlap":
		ns := req.Ns
		if len(ns) == 0 {
			ns = []int{1024, 4096} // the golden pair the CLI defaults to
		}
		passes, err := exp.ParsePasses(req.Passes)
		if err != nil {
			return nil, nil, Errorf(CodeBadRequest, "%v", err)
		}
		r, err := exp.OverlapSweep(o, ns, req.Wavelengths, d, passes)
		if err != nil {
			return nil, nil, AsError(err)
		}
		for _, pt := range r.Points {
			resp.Overlap = append(resp.Overlap, OverlapPointFrom(pt))
		}
		tables := []*metrics.Table{r.Table}
		if req.Check {
			for _, pt := range r.Points {
				if pt.PassHidden <= pt.BaselineHidden {
					return resp, tables, Errorf(CodeCheckFailed,
						"overlap check: N=%d w=%d: pass hidden-reconfig count %d not strictly above baseline %d",
						pt.N, pt.W, pt.PassHidden, pt.BaselineHidden)
				}
			}
		}
		return resp, tables, nil

	case "faults":
		r, err := exp.Degradation(o, req.Ns, req.Wavelengths, d, req.Dead, req.Seed)
		if err != nil {
			return nil, nil, AsError(err)
		}
		for _, pt := range r.Points {
			resp.Faults = append(resp.Faults, FaultsPointFrom(pt))
		}
		return resp, []*metrics.Table{r.Table}, nil
	}
	return nil, nil, Errorf(CodeBadRequest, "unknown sweep %q (want crossfabric, overlap or faults)", req.Sweep)
}

// RunPlan executes the all-to-all planner sweep plus (unless
// suppressed) the rescue measurement, with the same shared-executor
// contract as RunSweep: tables for the CLI, response for both.
func RunPlan(o exp.Options, req PlanRequest) (*PlanResponse, []*metrics.Table, *Error) {
	if len(req.Rs) == 0 {
		return nil, nil, Errorf(CodeBadRequest, "plan: rs must be non-empty")
	}
	if len(req.AMicros) == 0 {
		return nil, nil, Errorf(CodeBadRequest, "plan: a_micros must be non-empty")
	}
	if req.Wavelengths < 1 {
		return nil, nil, Errorf(CodeBadRequest, "plan: wavelengths must be at least 1, got %d", req.Wavelengths)
	}
	if req.PayloadMB <= 0 {
		return nil, nil, Errorf(CodeBadRequest, "plan: payload_mb must be positive, got %g", req.PayloadMB)
	}
	for _, r := range req.Rs {
		if r < 1 {
			return nil, nil, Errorf(CodeBadRequest, "plan: every rs entry must be at least 1, got %d", r)
		}
	}
	for _, a := range req.AMicros {
		if a < 0 || math.IsNaN(a) {
			return nil, nil, Errorf(CodeBadRequest, "plan: every a_micros entry must be non-negative, got %g", a)
		}
	}
	d := req.PayloadMB * 1e6
	r, err := exp.PlanSweep(o, req.Rs, []int{req.Wavelengths}, req.AMicros, d)
	if err != nil {
		return nil, nil, AsError(err)
	}
	resp := &PlanResponse{Version: Version}
	for _, pt := range r.Points {
		resp.Points = append(resp.Points, PlanPointFrom(pt))
	}
	tables := []*metrics.Table{r.Table}
	var rescue []exp.RescuePoint
	if !req.NoRescue {
		rescue, err = exp.RescueSweep(o, []int{256, 1024}, []int{8, 16}, d)
		if err != nil {
			return nil, nil, AsError(err)
		}
		for _, pt := range rescue {
			resp.Rescue = append(resp.Rescue, RescuePointFrom(pt))
		}
		tables = append(tables, rescueTable(rescue))
	}
	if req.Check {
		for _, pt := range r.Points {
			if err := pt.Check(); err != nil {
				return resp, tables, Errorf(CodeCheckFailed,
					"plan check (%s, r=%d, w=%d, a=%gus): %v", pt.Fabric, pt.R, pt.W, pt.AMicro, err)
			}
		}
		for _, pt := range rescue {
			if pt.Speedup <= 1 {
				return resp, tables, Errorf(CodeCheckFailed,
					"plan check: rescue (N=%d, w=%d) speedup %.3f not above 1", pt.N, pt.W, pt.Speedup)
			}
		}
	}
	return resp, tables, nil
}

// rescueTable renders the planner-rescue measurement the way the plan
// subcommand has always printed it.
func rescueTable(rescue []exp.RescuePoint) *metrics.Table {
	rt := &metrics.Table{
		Title:   "Planner rescue of fallback configurations (full WRHT, optical, overlap on)",
		Headers: []string{"N", "w", "final r", "req", "steps", "fallback (ms)", "planned (ms)", "speedup"},
	}
	for _, pt := range rescue {
		rt.AddRow(fmt.Sprint(pt.N), fmt.Sprint(pt.W), fmt.Sprint(pt.FinalR), fmt.Sprint(pt.Requirement),
			fmt.Sprintf("%d -> %d", pt.FallbackSteps, pt.PlannedSteps),
			fmt.Sprintf("%.3f", pt.FallbackTime*1e3), fmt.Sprintf("%.3f", pt.PlannedTime*1e3),
			fmt.Sprintf("%.2fx", pt.Speedup))
	}
	return rt
}
