// Package plan chooses how to execute the final all-to-all phase of a
// WRHT schedule. core.PhasePlans enumerates the feasible shapes — the
// one-shot exchange, k-round reconfigured gather trees, and hybrid
// splits that carry the short-arc traffic one-shot and spill the rest
// into an extra round — and this package prices every candidate on the
// actual fabric and picks the argmin for the payload at hand.
//
// Pricing runs each candidate's steps through fabric.Fold, the same
// step-cost accumulation fabric.Engine executes: each step is charged
// Fabric.StepCost, and in overlap mode a step whose circuits are
// rwa-disjoint from its predecessor's hides min(setup, previous
// transmission). A plan's Predicted time is therefore the engine's
// simulated time for the same steps by construction, which the
// cross-check gate (wrhtsim plan -check, exp.PlanSweep) asserts over
// the (r, w, a) grid.
//
// A Planner reuses its PhaseBuilders, rwa probe, fold and candidate
// slice across calls, so the steady state of repeated planning
// allocates nothing (pinned by TestPlannerSteadyStateAllocs).
package plan

import (
	"fmt"
	"time"

	"wrht/internal/core"
	"wrht/internal/fabric"
	"wrht/internal/rwa"
	"wrht/internal/topo"
)

// Candidate is one priced execution plan for the phase.
type Candidate struct {
	Plan core.PhasePlan
	// Steps is the plan's emitted step count.
	Steps int
	// Predicted is the plan's execution time in seconds under the
	// planner's fabric and overlap mode, accumulated by fabric.Fold as
	// fabric.Engine does.
	Predicted float64
}

// Decision is the outcome of one Plan call. Candidates and Schedule
// alias the planner's pooled buffers: they are valid until the next
// Plan call, and callers that retain them must copy (Materialize does).
type Decision struct {
	// R is the representative count, W the wavelength budget the
	// candidates were enumerated under (0 = uncapped).
	R, W int
	// DBytes is the per-node payload the candidates were priced for.
	DBytes float64
	// Fabric names the pricing backend.
	Fabric string
	// Overlap records whether boundary overlap was priced in.
	Overlap bool
	// Candidates are the feasible plans in enumeration order; Chosen
	// indexes the strict argmin of Predicted (first wins ties).
	Candidates []Candidate
	Chosen     int
	// Seconds is the wall-clock time Plan spent enumerating and pricing
	// this decision — profiling data only, never part of the simulated
	// outcome.
	Seconds float64
	// Schedule is the chosen plan's steps, ready to substitute for the
	// all-to-all phase span.
	Schedule []core.Step
}

// Best returns the chosen candidate.
func (d Decision) Best() Candidate { return d.Candidates[d.Chosen] }

// Materialize copies the chosen schedule out of the planner's pooled
// buffers into a standalone core.Schedule.
func (d Decision) Materialize(ring topo.Ring) *core.Schedule {
	s := &core.Schedule{Algorithm: "a2a-plan", Ring: ring}
	s.Steps = make([]core.Step, len(d.Schedule))
	for i, st := range d.Schedule {
		s.Steps[i] = core.Step{Phase: st.Phase, Transfers: append([]core.Transfer(nil), st.Transfers...)}
	}
	return s
}

// Observer receives every decision (internal/obs implements it over the
// metrics registry and tracer). Nil observers are skipped.
type Observer interface {
	Decided(Decision)
}

// Planner prices phase plans on a fabric and picks the cheapest.
// The zero value is not usable: Fabric must be set. A Planner is
// single-goroutine state (its buffers are reused across calls).
type Planner struct {
	// Fabric prices the candidate steps (its StepCost is the ground
	// truth the engine will charge).
	Fabric fabric.Fabric
	// Budget is the per-direction wavelength budget candidates must
	// respect; 0 means uncapped (packet-switched fabrics). It must
	// match the budget the surrounding schedule validates against.
	Budget int
	// Overlap prices the engine's reconfiguration–communication
	// overlap: rwa-disjoint consecutive rounds hide min(setup, previous
	// transmission), which is what makes staggered plans win.
	Overlap bool
	// Observer, when non-nil, receives every Decision.
	Observer Observer

	builder core.PhaseBuilder
	chosen  core.PhaseBuilder
	fold    fabric.Fold
	res     fabric.Result
	cands   []Candidate
	plans   []core.PhasePlan
	plansR  int
	plansW  int
}

// Plan enumerates, validates and prices every feasible plan for an
// all-to-all phase among the representatives (strictly ascending ring
// positions) carrying dBytes per node, and returns the argmin. The
// returned Decision aliases pooled buffers valid until the next call.
func (pl *Planner) Plan(ring topo.Ring, reps []int, dBytes float64) (Decision, error) {
	if pl.Fabric == nil {
		return Decision{}, fmt.Errorf("plan: planner has no fabric")
	}
	t0 := time.Now()
	r := len(reps)
	elems, err := core.ElemsOf(dBytes)
	if err != nil {
		return Decision{}, fmt.Errorf("plan: %w", err)
	}
	pl.fold.Engine = fabric.Engine{Fabric: pl.Fabric, Opts: fabric.Options{Overlap: pl.Overlap}}
	pl.fold.Reset(ring)
	if pl.plans == nil || pl.plansR != r || pl.plansW != pl.Budget {
		pl.plans = core.PhasePlans(r, pl.Budget)
		pl.plansR, pl.plansW = r, pl.Budget
	}
	if len(pl.plans) == 0 {
		return Decision{}, fmt.Errorf("plan: no feasible plan for r=%d under budget %d", r, pl.Budget)
	}
	pl.cands = pl.cands[:0]
	best := -1
	for _, p := range pl.plans {
		steps, err := pl.builder.Build(ring, reps, p)
		if err != nil {
			return Decision{}, fmt.Errorf("plan: build %s: %w", p, err)
		}
		if err := pl.validateRounds(ring, steps); err != nil {
			return Decision{}, fmt.Errorf("plan: candidate %s: %w", p, err)
		}
		t := pl.price(steps, elems)
		pl.cands = append(pl.cands, Candidate{Plan: p, Steps: len(steps), Predicted: t})
		if best < 0 || t < pl.cands[best].Predicted {
			best = len(pl.cands) - 1
		}
	}
	steps, err := pl.chosen.Build(ring, reps, pl.cands[best].Plan)
	if err != nil {
		return Decision{}, fmt.Errorf("plan: rebuild chosen %s: %w", pl.cands[best].Plan, err)
	}
	d := Decision{
		R: r, W: pl.Budget, DBytes: dBytes,
		Fabric: pl.Fabric.Name(), Overlap: pl.Overlap,
		Candidates: pl.cands, Chosen: best, Schedule: steps,
		Seconds: time.Since(t0).Seconds(),
	}
	if pl.Observer != nil {
		pl.Observer.Decided(d)
	}
	return d, nil
}

// validateRounds checks every round of a candidate against the
// wavelength budget through the pooled probe (a planner bug that
// over-subscribes a round must fail here, not in the engine). Uncapped
// planners skip it: without circuit semantics there is nothing to
// check.
func (pl *Planner) validateRounds(ring topo.Ring, steps []core.Step) error {
	if pl.Budget <= 0 {
		return nil
	}
	pb := pl.fold.Probe()
	for k := range steps {
		st := &steps[k]
		pb.Begin(len(st.Transfers))
		for _, t := range st.Transfers {
			pb.Add(rwa.Request{Src: t.Src, Dst: t.Dst, Dir: t.Dir}, ring.ArcOf(t.Src, t.Dst, t.Dir), t.Wavelength)
		}
		pb.Index().Stats = nil
		if err := pb.Validate(pl.Budget); err != nil {
			return fmt.Errorf("round %d: %w", k, err)
		}
	}
	return nil
}

// price times the steps through the engine's own step-cost fold, so
// the candidate's Predicted is the time fabric.Engine will simulate.
// Each candidate is a fresh step sequence (Restart) within the Plan
// call's run (Reset), sharing the fold's pooled probe.
func (pl *Planner) price(steps []core.Step, elems int) float64 {
	pl.fold.Restart()
	pl.res = fabric.Result{PerStep: pl.res.PerStep[:0]}
	for k := range steps {
		pl.fold.Step(&pl.res, &steps[k], elems)
	}
	return pl.res.Time
}

// Cost is the analytic closed form of a plan's execution time without
// overlap: every round pays the reconfiguration overhead a plus its
// busiest circuit's wire time, and a plan's total wire payload is
// SerWeight·d (each round's busiest circuit carries d/stripe). It
// ignores the sub-microsecond O/E/O term and the ≤ 4-byte stripe
// rounding, so it tracks the fabric-priced Predicted to within a part
// in ~10⁶ on the optical ring — close enough that the two agree on the
// argmin across the swept grid (asserted by TestCostArgminConsistent).
func Cost(p core.PhasePlan, dBytes, aSec, bandwidthBps float64) float64 {
	return float64(p.NumSteps())*aSec + p.SerWeight()*dBytes*8/bandwidthBps
}
