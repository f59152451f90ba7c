package wrht

import (
	"fmt"

	"wrht/internal/electrical"
	"wrht/internal/fabric"
	"wrht/internal/optical"
)

// Backend names a simulation fabric for Simulate.
type Backend string

const (
	// Optical is the TeraRack-style WDM ring (Eq 6, Table 2).
	Optical Backend = "optical"
	// ElectricalFatTree is the two-level fat-tree flow-level model
	// (Table 2).
	ElectricalFatTree Backend = "electrical"
)

// SimResult is the common outcome of a simulation on any backend: the
// total time plus the fabric breakdown (transfer vs circuit-setup vs
// router components, and the per-step reports for schedule runs). It is
// internal/fabric's Result type.
type SimResult = fabric.Result

// simSpec accumulates the functional options of one Simulate call.
type simSpec struct {
	optical    OpticalParams
	electrical ElectricalParams
	hosts      int
	noValidate bool
	overlap    bool
	observer   SimObserver
}

// SimOption configures Simulate.
type SimOption func(*simSpec)

// WithOpticalParams overrides the Table-2 optical configuration.
func WithOpticalParams(p OpticalParams) SimOption {
	return func(ss *simSpec) { ss.optical = p }
}

// WithElectricalParams overrides the Table-2 electrical configuration.
func WithElectricalParams(p ElectricalParams) SimOption {
	return func(ss *simSpec) { ss.electrical = p }
}

// WithHosts sets the electrical fat-tree's host count. Schedule runs
// default it to the schedule's ring size; profile runs require it
// (profiles carry no node count).
func WithHosts(n int) SimOption {
	return func(ss *simSpec) { ss.hosts = n }
}

// WithoutValidation skips the optical backend's pre-run schedule
// validation (structural sanity plus wavelength conflict-freedom
// against the ring budget). Validation never changes timing — only
// whether an invalid schedule errors instead of being priced. The
// electrical backend never validates: packet switching imposes no
// wavelength-conflict constraint.
func WithoutValidation() SimOption {
	return func(ss *simSpec) { ss.noValidate = true }
}

// WithOverlap enables the SWOT-style reconfiguration overlap mode:
// step k+1's circuit setup hides under step k's transmission when the
// two steps' circuits are rwa-disjoint. Optical schedules only.
func WithOverlap() SimOption {
	return func(ss *simSpec) { ss.overlap = true }
}

// SimObserver receives per-step and per-group engine events during a
// run (internal/fabric's Observer interface; obs.NewFabricObserver
// builds one that feeds a Perfetto tracer and a metric registry).
type SimObserver = fabric.Observer

// WithObserver attaches an observer to the run, e.g. to capture the
// simulated-time step timeline of a single Simulate call.
func WithObserver(ob SimObserver) SimOption {
	return func(ss *simSpec) { ss.observer = ob }
}

// Simulate is the single simulation entrypoint: it times a collective
// on a backend. The collective c is either an explicit *Schedule or an
// analytic Profile:
//
//	res, err := wrht.Simulate(wrht.Optical, sched, 100e6)
//	res, err := wrht.Simulate(wrht.Optical, profile, 100e6, wrht.WithOpticalParams(p))
//	res, err := wrht.Simulate(wrht.ElectricalFatTree, sched, 100e6)
//
// The returned SimResult carries the fabric breakdown: TransferTime
// (serialization + O-E-O), OverheadTime (circuit setup), RouterTime,
// and per-step reports for schedule runs.
func Simulate(backend Backend, c any, dBytes float64, opts ...SimOption) (SimResult, error) {
	ss := simSpec{optical: optical.DefaultParams(), electrical: electrical.DefaultParams()}
	for _, o := range opts {
		o(&ss)
	}
	var f fabric.Fabric
	switch backend {
	case Optical:
		var err error
		if f, err = ss.optical.Fabric(); err != nil {
			return SimResult{}, err
		}
	case ElectricalFatTree:
		if ss.overlap {
			return SimResult{}, fmt.Errorf("wrht: overlap mode is an optical-circuit optimization; the electrical backend does not take it")
		}
		hosts := ss.hosts
		if hosts == 0 {
			if s, ok := c.(*Schedule); ok {
				hosts = s.Ring.N
			} else {
				return SimResult{}, fmt.Errorf("wrht: electrical profile simulation needs WithHosts (profiles carry no node count)")
			}
		}
		nw, err := electrical.NewNetwork(hosts, ss.electrical)
		if err != nil {
			return SimResult{}, err
		}
		f = nw.Fabric()
	default:
		return SimResult{}, fmt.Errorf("wrht: unknown backend %q (want %q or %q)", backend, Optical, ElectricalFatTree)
	}
	eng := fabric.Engine{Fabric: f, Opts: fabric.Options{
		ValidateWavelengths: backend == Optical && !ss.noValidate,
		Overlap:             ss.overlap,
		Observer:            ss.observer,
	}}
	switch s := c.(type) {
	case *Schedule:
		return eng.RunSchedule(s, dBytes)
	case Profile:
		return eng.RunProfile(s, dBytes)
	case *Profile:
		return eng.RunProfile(*s, dBytes)
	default:
		return SimResult{}, fmt.Errorf("wrht: Simulate wants a *Schedule or a Profile, got %T", c)
	}
}
