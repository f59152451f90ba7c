package fabric

import (
	"wrht/internal/core"
	"wrht/internal/rwa"
	"wrht/internal/topo"
)

// Reconfiguration–communication overlap (SWOT-style): while step k's
// circuits are still streaming, the control plane may already retune the
// MRRs for step k+1 — but only if none of step k+1's circuits claims a
// (direction, wavelength) resource that an active step-k circuit holds
// on an overlapping fiber arc, because retuning a resonator onto a
// wavelength that is passing live traffic corrupts it. The decision is
// delegated to the internal/rwa conflict model: the two steps' circuits
// are pooled with their already-assigned wavelengths and checked against
// a bitset occupancy index, one near-linear pass per boundary. A clash
// rejects the boundary, falling back to the sequential setup-then-
// transmit behaviour for that step.

// stepsDisjoint reports whether steps a and b can have their circuits up
// simultaneously: the pooled request set of both steps must be
// conflict-free under the rwa model. The probe's index and buffers are
// reused across calls, so a single probe serves every boundary of an
// engine run — or every boundary pricing of a planner candidate — with
// zero steady-state allocation instead of a fresh rwa.NewIndex per
// boundary (the allocation profile is pinned by
// TestOverlapProbeReusesAllocations). stats, when non-nil, accumulates
// the probe counters.
func stepsDisjoint(pb *rwa.Probe, ring topo.Ring, a, b core.Step, stats *rwa.Stats) bool {
	pb.Begin(len(a.Transfers) + len(b.Transfers))
	for _, st := range [2]core.Step{a, b} {
		for _, t := range st.Transfers {
			pb.Add(rwa.Request{Src: t.Src, Dst: t.Dst, Dir: t.Dir}, ring.ArcOf(t.Src, t.Dst, t.Dir), t.Wavelength)
		}
	}
	pb.Index().Stats = stats
	return pb.ConflictFree()
}
