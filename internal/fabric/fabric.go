// Package fabric unifies the optical and electrical simulators behind a
// single schedule-execution engine. A Fabric abstracts one interconnect
// backend — the per-step circuit setup cost plus the per-step transfer
// timing — and the Engine executes any core.Schedule or core.Profile on
// any backend, reporting a structured per-step cost breakdown
// (reconfiguration / serialization / O-E-O / router-delay components).
//
// Two backends implement the interface: the TeraRack WDM ring
// (optical.Params.Fabric, Eq-6 timing) and the two-level fat-tree flow
// model (electrical.Network.Fabric, max–min fair rates). Because a
// schedule is fabric-agnostic — steps of point-to-point transfers — the
// engine unlocks cross-fabric experiments: the electrical baselines can
// be timed on optics and WRHT on the fat-tree (cmd/wrhtsim crossfabric).
//
// The engine also offers an opt-in reconfiguration–communication overlap
// mode (Options.Overlap) in the spirit of SWOT (arXiv:2510.19322) and
// "To Reconfigure or Not to Reconfigure" (arXiv:2602.10468): step k+1's
// circuit setup is pipelined under step k's ongoing transmission
// whenever the two steps' (direction, wavelength) circuits are disjoint
// under the internal/rwa conflict model, hiding up to
// min(setup, transmission) per boundary and therefore at most (θ−1)·a
// in total. fold.go holds the one per-step accumulation (Fold) that the
// engine, fault-restart runs and the all-to-all planner share.
package fabric

import "wrht/internal/core"

// StepCost is the timing decomposition of one communication step on a
// fabric. The component fields are the reporting breakdown; Total is the
// authoritative step duration, set by the backend with its native
// floating-point operation order so that engine results are bit-identical
// to the pre-engine simulators (the components sum to Total only up to
// rounding on the electrical fabric, where the fluid model couples them).
type StepCost struct {
	// Setup is the circuit-setup cost charged before the step starts
	// (the MRR reconfiguration delay a on the optical ring; zero on the
	// packet-switched fat-tree). Only Setup can be hidden by the
	// engine's overlap mode.
	Setup float64
	// Serialization is the wire time of the critical circuit or flow
	// (payload bytes at the line rate, including protocol headers on the
	// electrical fabric).
	Serialization float64
	// OEO is the per-packet optical-electrical-optical conversion time
	// on the critical circuit (optical fabric only).
	OEO float64
	// RouterDelay is the store-and-forward pipeline latency after the
	// last flow drains (electrical fabric only).
	RouterDelay float64
	// Total is the full step duration including Setup.
	Total float64
	// MaxBytes is the payload of the critical circuit, before any
	// per-packet wire inflation.
	MaxBytes float64
}

// Transmission returns the portion of the step that is data movement
// rather than circuit setup — the window the next step's setup can be
// hidden under in overlap mode.
func (c StepCost) Transmission() float64 { return c.Total - c.Setup }

// Fabric abstracts one interconnect backend for the engine: how much a
// step's circuit setup costs and how long its transfers take.
// Implementations must be safe for concurrent use by independent engine
// runs (the experiment sweeps time schedules from many goroutines).
type Fabric interface {
	// Name identifies the backend ("optical", "electrical") in results
	// and exported traces.
	Name() string
	// CheckSchedule rejects schedules the fabric cannot host at all
	// (e.g. a schedule over more nodes than the fat-tree has hosts).
	CheckSchedule(s *core.Schedule) error
	// CircuitBudget returns the per-direction circuit count available to
	// one step, used to validate explicit schedules; zero means
	// unconstrained (the packet-switched fabric multiplexes freely).
	// withFibers widens the budget by the physical fiber multiplicity
	// per direction (TeraRack routes two fiber rings each way) and
	// errors when the fabric's multiplicity is configured below one.
	CircuitBudget(withFibers bool) (int, error)
	// StepCost times one explicit step of a schedule carrying an
	// elems-element (4-byte) per-node vector.
	StepCost(st core.Step, elems int) StepCost
	// GroupCost times one step of an analytic profile group whose
	// busiest circuit carries bytes. Fabrics without circuit semantics
	// document what approximation they apply (the fat-tree charges the
	// congestion-free serialization plus the worst-case router path).
	GroupCost(bytes float64) StepCost
}
