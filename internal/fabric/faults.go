package fabric

import (
	"fmt"

	"wrht/internal/core"
	"wrht/internal/fault"
)

// DefaultMaxReschedules bounds how many times a faulted run rebuilds
// its schedule before giving up.
const DefaultMaxReschedules = 3

// FaultOptions configures a fault-aware run (RunScheduleFaulted).
type FaultOptions struct {
	// Mask is the fault state at the start of the run; nil means
	// healthy. The run clones it, so injected events never leak into
	// the caller's mask.
	Mask *fault.Mask
	// Injector delivers faults mid-run, keyed by the global count of
	// executed steps (which keeps advancing across reschedule
	// restarts, so an injection can never fire twice).
	Injector *fault.Injector
	// MaxReschedules bounds the retry-with-reschedule loop; zero means
	// DefaultMaxReschedules. Exceeding it is a hard error: the run
	// cannot make progress against the fault load.
	MaxReschedules int
	// Rebuild produces a fresh schedule for the accumulated fault
	// state after a fault invalidates the current one (typically a
	// core.BuildWRHTMasked closure). A nil Rebuild makes any fault hit
	// a hard error.
	Rebuild func(*fault.Mask) (*core.Schedule, error)
	// Observer, when non-nil, is notified of every reschedule on top
	// of the regular step events.
	Observer FaultObserver
}

// FaultObserver extends the step-level Observer with reschedule
// notifications. internal/obs implements it on FabricObserver.
type FaultObserver interface {
	// FaultRescheduled fires when a fault hit invalidates the current
	// schedule, before the rebuilt schedule restarts.
	FaultRescheduled(ev FaultEvent)
}

// FaultEvent describes one reschedule decision.
type FaultEvent struct {
	// Time is the simulated time at which the fault was detected.
	Time float64
	// Step is the global executed-step count at detection.
	Step int
	// Reschedule is the 1-based reschedule ordinal.
	Reschedule int
	// Reason is the fault that broke the schedule.
	Reason error
}

// FaultResult is a Result plus the fault bookkeeping of the run.
type FaultResult struct {
	Result
	// Reschedules is how many times the schedule was rebuilt mid-run.
	Reschedules int
	// FaultsApplied is how many injected fault events fired.
	FaultsApplied int
}

// RunScheduleFaulted executes a schedule under fault injection. Before
// each step, injector events due at the global executed-step count are
// applied to the (cloned) mask; if any transfer of the upcoming step
// then hits a fault, the run asks Rebuild for a degraded schedule,
// validates it, and restarts it from its first step — time already
// spent is kept, modelling a fail-restart collective. With a nil mask
// and injector the run is bit-identical to RunSchedule (asserted by
// TestFaultedZeroFaultIdentity).
//
// Overlap mode is rejected: hiding circuit setup under a transmission
// that a fault may abort would let a failed step contribute negative
// time.
func (e Engine) RunScheduleFaulted(s *core.Schedule, dBytes float64, fo FaultOptions) (FaultResult, error) {
	if e.Opts.Overlap {
		return FaultResult{}, fmt.Errorf("fabric: overlap mode is incompatible with fault injection")
	}
	f := e.Fabric
	budget, err := f.CircuitBudget(e.Opts.UseFiberMultiplicity)
	if err != nil {
		return FaultResult{}, err
	}
	check := func(ns *core.Schedule) error {
		if err := f.CheckSchedule(ns); err != nil {
			return err
		}
		if e.Opts.ValidateWavelengths {
			if err := ns.Validate(budget); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(s); err != nil {
		return FaultResult{}, err
	}
	var mask *fault.Mask
	if fo.Mask != nil {
		mask = fo.Mask.Clone()
	} else {
		mask = fault.NewMask(s.Ring.N)
	}
	maxRes := fo.MaxReschedules
	if maxRes == 0 {
		maxRes = DefaultMaxReschedules
	}
	elems, err := core.ElemsOf(dBytes)
	if err != nil {
		return FaultResult{}, fmt.Errorf("fabric: %w", err)
	}
	res := FaultResult{Result: Result{Fabric: f.Name(), Algorithm: s.Algorithm}}
	fd := Fold{Engine: e}
	fd.Reset(s.Ring)
	next := 0
	for {
		restarted := false
		for k := 0; k < len(s.Steps); k++ {
			// res.Steps is the global executed-step count: the
			// injector's clock and the observer's step index.
			g := res.Steps
			for next < fo.Injector.Len() && fo.Injector.At(next).Step <= g {
				mask.Apply(fo.Injector.At(next).Fault)
				res.FaultsApplied++
				next++
			}
			if reason := faultedStep(s, k, mask); reason != nil {
				res.Reschedules++
				if fo.Observer != nil {
					fo.Observer.FaultRescheduled(FaultEvent{
						Time: res.Time, Step: g, Reschedule: res.Reschedules, Reason: reason,
					})
				}
				if res.Reschedules > maxRes {
					return FaultResult{}, fmt.Errorf("fabric: reschedule budget (%d) exhausted at step %d: %w", maxRes, g, reason)
				}
				if fo.Rebuild == nil {
					return FaultResult{}, fmt.Errorf("fabric: fault at step %d and no Rebuild configured: %w", g, reason)
				}
				ns, err := fo.Rebuild(mask.Clone())
				if err != nil {
					return FaultResult{}, fmt.Errorf("fabric: no feasible degraded schedule after fault at step %d: %w", g, err)
				}
				if err := check(ns); err != nil {
					return FaultResult{}, fmt.Errorf("fabric: rebuilt schedule rejected: %w", err)
				}
				s = ns
				res.Algorithm = s.Algorithm
				fd.Restart()
				restarted = true
				break
			}
			fd.Step(&res.Result, &s.Steps[k], elems)
		}
		if !restarted {
			return res, nil
		}
	}
}

// faultedStep returns the first fault any transfer of step k hits under
// the mask, or nil if the step can run.
func faultedStep(s *core.Schedule, k int, m *fault.Mask) error {
	for _, tr := range s.Steps[k].Transfers {
		if err := m.TransferErr(s.Ring, tr.Src, tr.Dst, tr.Dir, tr.Wavelength); err != nil {
			return fmt.Errorf("step %d transfer %v: %w", k, tr, err)
		}
	}
	return nil
}
