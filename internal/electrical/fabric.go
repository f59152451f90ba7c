package electrical

import (
	"fmt"
	"math"

	"wrht/internal/core"
	"wrht/internal/fabric"
)

// treeFabric adapts the fat-tree flow model to the fabric.Fabric
// interface. Packet switching needs no circuit setup, so Setup is
// always zero (and overlap mode degenerates to a no-op): a step's cost
// is the max–min fluid-model completion time split into the wire-drain
// part (Serialization) and the residual router-pipeline tail
// (RouterDelay).
type treeFabric struct {
	nw *Network
}

// Fabric returns the fat-tree as a schedule-execution backend for
// fabric.Engine.
func (nw *Network) Fabric() fabric.Fabric { return treeFabric{nw: nw} }

func (f treeFabric) Name() string { return "electrical" }

// CheckSchedule rejects schedules that need more hosts than the tree
// offers.
func (f treeFabric) CheckSchedule(s *core.Schedule) error {
	if s.Ring.N > f.nw.Tree.Hosts {
		return fmt.Errorf("electrical: schedule needs %d hosts, network has %d", s.Ring.N, f.nw.Tree.Hosts)
	}
	return nil
}

// CircuitBudget is zero: packet switching imposes no wavelength budget,
// and budget zero makes the engine's schedule validation skip the
// conflict check while keeping the structural checks.
func (f treeFabric) CircuitBudget(bool) (int, error) { return 0, nil }

// StepCost solves the fluid model for the step. Total carries the exact
// legacy stepDuration value; the component split is reporting-only.
func (f treeFabric) StepCost(st core.Step, elems int) fabric.StepCost {
	end, drain := f.nw.stepDuration(st, elems)
	var maxBytes float64
	for _, t := range st.Transfers {
		if b := float64(t.Chunk.Bytes(elems)); b > maxBytes {
			maxBytes = b
		}
	}
	return fabric.StepCost{
		Serialization: drain,
		RouterDelay:   end - drain,
		Total:         end,
		MaxBytes:      maxBytes,
	}
}

// GroupCost approximates one profile-group step without congestion:
// the payload is wire-inflated by per-packet framing and drained at one
// link's line rate, then the worst-case router path (three routers when
// traffic can cross edges, one inside a single edge) adds its pipeline
// latency. This is optimistic for steps whose flows share links, which
// is exactly the congestion the explicit-schedule path models — profile
// runs on the electrical fabric are a cross-fabric estimate, not the
// reference number.
func (f treeFabric) GroupCost(bytes float64) fabric.StepCost {
	p := f.nw.Params
	b := bytes
	if p.PacketBytes > 0 && b > 0 {
		packets := math.Ceil(b / float64(p.PacketBytes))
		b = packets * float64(p.PacketBytes+p.HeaderBytes)
	}
	ser := b * 8 / p.LinkBps
	routers := 1
	if f.nw.Tree.Edges > 1 {
		routers = 3
	}
	lat := float64(routers) * p.RouterDelay
	return fabric.StepCost{
		Serialization: ser,
		RouterDelay:   lat,
		Total:         ser + lat,
		MaxBytes:      bytes,
	}
}
