package wrht

import (
	"wrht/internal/fault"
	"wrht/internal/topo"
)

// Fault-injection facade (see internal/fault for the full model): a
// FaultMask aggregates failed nodes, failed per-direction transceivers,
// dead wavelengths, cut waveguide segments and degraded-loss MRRs, and
// plugs into schedule construction through Build's WithFaults option.
//
//	mask := wrht.NewFaultMask(64).
//	        KillWavelength(3).
//	        FailNode(17).
//	        CutSegment(wrht.CW, 40)
//	s, err := wrht.Build(wrht.KindWRHT, 64, wrht.WithWavelengths(8), wrht.WithFaults(mask))
type (
	// FaultMask is the aggregate fault state of one n-node ring.
	FaultMask = fault.Mask
	// FaultSpec samples reproducible random masks from a seed.
	FaultSpec = fault.Spec
	// Direction is a fiber propagation direction (CW or CCW).
	Direction = topo.Direction
)

// Fiber directions for FaultMask mutators.
const (
	CW  = topo.CW
	CCW = topo.CCW
)

// NewFaultMask returns an empty (healthy) mask for an n-node ring.
func NewFaultMask(n int) *FaultMask { return fault.NewMask(n) }
