package optical

import (
	"fmt"

	"wrht/internal/core"
	"wrht/internal/fabric"
)

// ringFabric adapts the TeraRack WDM-ring timing model (Eq 6, Table 2)
// to the fabric.Fabric interface: every step pays the MRR
// reconfiguration delay as circuit setup, and the step's transmission is
// the serialization plus O/E/O time of its busiest circuit.
type ringFabric struct {
	p Params
}

// Fabric returns the optical ring as a schedule-execution backend for
// fabric.Engine, validating the Table-2 parameters first.
func (p Params) Fabric() (fabric.Fabric, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return ringFabric{p: p}, nil
}

func (f ringFabric) Name() string { return "optical" }

// CheckSchedule accepts any schedule: the ring hosts exactly the nodes
// the schedule declares.
func (f ringFabric) CheckSchedule(*core.Schedule) error { return nil }

// CircuitBudget returns the per-direction wavelength budget. With
// withFibers set, the budget is widened by the physical fiber
// multiplicity (TeraRack routes two fiber rings per direction, §3.2);
// a multiplicity below one is a configuration error.
func (f ringFabric) CircuitBudget(withFibers bool) (int, error) {
	if !withFibers {
		return f.p.Wavelengths, nil
	}
	if f.p.FibersPerDirection < 1 {
		return 0, fmt.Errorf("optical: fibers per direction %d < 1", f.p.FibersPerDirection)
	}
	return f.p.EffectiveWavelengths(), nil
}

func (f ringFabric) GroupCost(bytes float64) fabric.StepCost {
	ser, oeo := f.p.transferParts(bytes)
	return fabric.StepCost{
		Setup:         f.p.ReconfigDelay,
		Serialization: ser,
		OEO:           oeo,
		Total:         f.p.ReconfigDelay + (ser + oeo),
		MaxBytes:      bytes,
	}
}

func (f ringFabric) StepCost(st core.Step, elems int) fabric.StepCost {
	var maxBytes float64
	for _, t := range st.Transfers {
		if b := float64(t.Chunk.Bytes(elems)); b > maxBytes {
			maxBytes = b
		}
	}
	return f.GroupCost(maxBytes)
}

// TransferDelay perturbs one circuit's transfer: it receives the
// nominal serialization plus O/E/O time and returns the duration to
// charge. Negative results are clamped to zero.
type TransferDelay func(nominal float64) float64

// jitteredFabric is the ring with every circuit's transfer time passed
// through a TransferDelay (straggler and jitter injection): a step
// lasts the reconfiguration delay plus its slowest perturbed circuit.
// The engine costs every step once, so every step's transfers are
// perturbed exactly once, in schedule and transfer order.
type jitteredFabric struct {
	ringFabric
	delay TransferDelay
}

// JitteredFabric returns the optical ring with each transfer's duration
// perturbed by delay, for fabric.Engine. The identity delay reproduces
// Fabric() bit for bit.
func (p Params) JitteredFabric(delay TransferDelay) (fabric.Fabric, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return jitteredFabric{ringFabric: ringFabric{p: p}, delay: delay}, nil
}

func (f jitteredFabric) StepCost(st core.Step, elems int) fabric.StepCost {
	c := f.ringFabric.StepCost(st, elems)
	var worst float64
	for _, t := range st.Transfers {
		worst = max(worst, f.delay(f.p.transferTime(float64(t.Chunk.Bytes(elems)))))
	}
	// The perturbed critical circuit need not be the largest one; the
	// step's excess over nominal is booked as serialization so the
	// components still add up to the transmission.
	c.Serialization += worst - (c.Serialization + c.OEO)
	c.Total = f.p.ReconfigDelay + worst
	return c
}
