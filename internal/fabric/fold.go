package fabric

import (
	"math"

	"wrht/internal/core"
	"wrht/internal/rwa"
	"wrht/internal/topo"
)

// Fold is the one step-cost accumulation behind every timed schedule:
// Engine runs, fault-restart runs and the all-to-all planner's pricing
// all charge their steps through it, so a planner's predicted time
// equals the engine's simulated time by construction. Per step it
//
//   - charges Fabric.StepCost, once per step (there is no memo: the
//     fat-tree's dense solver is cheaper than keying a step);
//   - in overlap mode, hides min(setup, previous transmission) when a
//     pooled rwa probe finds the step's circuits disjoint from its
//     predecessor's. This probe is the only place the repo decides
//     whether a step boundary can hold its circuits while the next
//     step's are set up;
//   - fires Options.Observer.StepExecuted;
//   - adds the step into a Result.
//
// The embedded Engine supplies the fabric and the timing options
// (Overlap, Observer, RWAStats); validation options are the callers'
// concern. Reset starts each run, before its first Step. A Fold is
// single-goroutine state whose buffers are reused across Reset calls.
type Fold struct {
	Engine

	probe        *rwa.Probe
	ring         topo.Ring
	prev         core.Step
	prevTransmit float64
	k            int // steps since the last Reset or Restart
}

// Reset starts a new run on ring: the next step has no predecessor to
// hide its setup under. The overlap probe is kept while the ring stays
// the same.
func (f *Fold) Reset(ring topo.Ring) {
	if f.ring != ring {
		f.probe = nil
		f.ring = ring
	}
	f.Restart()
}

// Restart begins a new step sequence within the run: the next step has
// no predecessor, while the probe carries over. A fault-restarted
// schedule and each of a planner's candidates are such sequences.
func (f *Fold) Restart() {
	f.prevTransmit = 0
	f.k = 0
}

// Step charges st, carrying an elems-element per-node vector, into res.
// The observer sees the step under index res.Steps, the count of steps
// folded into res so far.
func (f *Fold) Step(res *Result, st *core.Step, elems int) {
	c := f.Fabric.StepCost(*st, elems)
	var hidden float64
	if f.Opts.Overlap && f.k > 0 && c.Setup > 0 && f.prevTransmit > 0 &&
		stepsDisjoint(f.Probe(), f.ring, f.prev, *st, f.Opts.RWAStats) {
		hidden = math.Min(c.Setup, f.prevTransmit)
	}
	if f.Opts.Observer != nil {
		f.Opts.Observer.StepExecuted(StepEvent{
			Index: res.Steps, Start: res.Time, Step: st,
			Cost: c, Hidden: hidden, Elems: elems,
		})
	}
	res.Time += c.Total - hidden
	res.TransferTime += c.Serialization + c.OEO
	res.OverheadTime += c.Setup
	res.RouterTime += c.RouterDelay
	res.OverlapSaved += hidden
	res.PerStep = append(res.PerStep, StepReport{Phase: st.Phase, Cost: c, Overlapped: hidden})
	res.Steps++
	f.prevTransmit = c.Transmission()
	if f.Opts.Overlap {
		// Only the probe needs the previous step, so only then is it
		// copied; a streamed run's live set stays at two steps.
		f.prev.Phase = st.Phase
		f.prev.Transfers = append(f.prev.Transfers[:0], st.Transfers...)
	}
	f.k++
}

// Probe returns the fold's pooled rwa probe over the ring of the last
// Reset, building it on first use. Callers that check steps' circuits
// before folding them (the planner's per-round budget validation) share
// it instead of pooling a second one.
func (f *Fold) Probe() *rwa.Probe {
	if f.probe == nil {
		f.probe = rwa.NewProbe(f.ring)
	}
	return f.probe
}
