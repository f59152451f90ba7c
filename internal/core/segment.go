package core

import (
	"fmt"
	"sort"

	"wrht/internal/topo"
)

// Segment-confined WRHT: hybrid-parallel training (§6.2) places several
// independent data-parallel groups on one ring — one per pipeline
// stage — and each group all-reduces only its own shard. For the groups
// to run concurrently with full wavelength reuse, every circuit of a
// group must stay inside the group's span of the ring; the line
// construction (no wraparound, line all-to-all) guarantees exactly that,
// so disjoint segments never conflict however few wavelengths there are.

// BuildWRHTSegment constructs a WRHT all-reduce among an ascending
// subset of ring positions, keeping every circuit inside
// [participants[0], participants[last]]. ringN only sizes the schedule's
// node-id space; the wavelength budget and group size behave as in
// BuildWRHTLine.
func BuildWRHTSegment(ringN int, participants []int, wavelengths, groupSize int) (*Schedule, error) {
	if len(participants) == 0 {
		return nil, fmt.Errorf("core: segment has no participants")
	}
	if !sort.IntsAreSorted(participants) {
		return nil, fmt.Errorf("core: segment participants must be ascending")
	}
	for i, p := range participants {
		if p < 0 || p >= ringN {
			return nil, fmt.Errorf("core: participant %d out of ring [0,%d)", p, ringN)
		}
		if i > 0 && participants[i-1] == p {
			return nil, fmt.Errorf("core: duplicate participant %d", p)
		}
	}
	cfg := Config{N: len(participants), Wavelengths: wavelengths, GroupSize: groupSize}
	line, err := BuildWRHTLine(cfg)
	if err != nil {
		return nil, err
	}
	s := &Schedule{Algorithm: "wrht-segment", Ring: topo.NewRing(ringN)}
	for _, st := range line.Steps {
		s.Steps = append(s.Steps, remapStep(st, func(idx int) int { return participants[idx] }))
	}
	return s, nil
}

// remapStep rewrites a step's node ids through the given mapping,
// keeping chunks, ops, directions and wavelengths.
func remapStep(st Step, mapID func(int) int) Step {
	out := Step{Phase: st.Phase, Transfers: make([]Transfer, len(st.Transfers))}
	for i, t := range st.Transfers {
		t.Src = mapID(t.Src)
		t.Dst = mapID(t.Dst)
		out.Transfers[i] = t
	}
	return out
}

// MergeConcurrent overlays several schedules that are known to use
// disjoint ring resources (e.g. segment-confined WRHT groups on disjoint
// spans): step k of the result is the union of every input's step k, and
// shorter schedules simply stop contributing. The caller should
// Validate the result — overlapping inputs will fail there.
func MergeConcurrent(ringN int, scheds ...*Schedule) *Schedule {
	out := &Schedule{Algorithm: "merged", Ring: topo.NewRing(ringN)}
	maxSteps := 0
	for _, s := range scheds {
		if s.NumSteps() > maxSteps {
			maxSteps = s.NumSteps()
		}
	}
	for k := 0; k < maxSteps; k++ {
		st := Step{Phase: PhaseReduce}
		for _, s := range scheds {
			if k < len(s.Steps) {
				if len(st.Transfers) == 0 {
					st.Phase = s.Steps[k].Phase
				}
				st.Transfers = append(st.Transfers, s.Steps[k].Transfers...)
			}
		}
		out.Steps = append(out.Steps, st)
	}
	return out
}

// SegmentSpanArcs reports whether any transfer of the schedule leaves
// the inclusive position span [lo, hi] (treating the span as a line —
// transfers may not wrap). Used to prove segment confinement.
func SegmentSpanArcs(s *Schedule, lo, hi int) error {
	for si, st := range s.Steps {
		for _, tr := range st.Transfers {
			if tr.Src < lo || tr.Src > hi || tr.Dst < lo || tr.Dst > hi {
				return fmt.Errorf("core: step %d: transfer %v escapes span [%d,%d]", si, tr, lo, hi)
			}
			if (tr.Dir == topo.CW) != (tr.Dst > tr.Src) {
				return fmt.Errorf("core: step %d: transfer %v would wrap", si, tr)
			}
		}
	}
	return nil
}
