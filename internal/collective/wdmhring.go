package collective

import (
	"wrht/internal/core"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// WDM-HRing is a beyond-paper algorithm this substrate makes easy to
// explore: H-Ring's intra-group ring passes (m−1 steps each way) are
// replaced by wavelength-parallel in-group all-to-all exchanges, so the
// intra phases collapse to ⌈⌊m/2⌋⌈m/2⌉/w⌉ steps while keeping H-Ring's
// bandwidth-optimal d/m and d/N chunk sizes. It combines WRHT's insight
// (spend wavelengths to kill steps) with the ring algorithms' insight
// (chunking kills the bandwidth term):
//
//	phase 1  in-group all-to-all reduce-scatter: member j of every group
//	         receives every other member's chunk {j, m} and sums —
//	         one logical step, split into sub-steps if the line
//	         all-to-all needs more than w wavelengths;
//	phase 2  per-slot inter-group ring all-reduce on sub-chunks d/N
//	         (as in H-Ring, slots serialize by ⌈m/w⌉ when wavelengths
//	         are scarce);
//	phase 3  in-group all-to-all all-gather (reverse of phase 1).
//
// At N=1024, m=32, w=64 this takes ~70 steps moving ~2d/m + 2d/N per
// node versus Ring's 2046 steps or WRHT's 3 steps of full d — a middle
// point that wins when d is large and steps are cheap-ish; the Extras
// table quantifies it.

// lineA2AGroupSteps builds the in-group all-to-all as one or more steps
// respecting the wavelength budget. members are ascending ring
// positions; payloadOf returns the chunk transfer (i→j) carries; op is
// applied at the destination. Routing and coloring are core's line
// all-to-all; this function only chooses the payloads and splits the
// colors by budget: sub-step b carries wavelengths [b·w, (b+1)·w),
// remapped down to [0, w).
func lineA2AGroupSteps(members []int, w int, payloadOf func(srcIdx, dstIdx int) tensor.Chunk, op tensor.ReduceOp, phase core.Phase) []core.Step {
	var steps []core.Step
	core.LineAllToAll(len(members), func(src, dst int, dir topo.Direction, color int) {
		b := color / w
		for len(steps) <= b {
			steps = append(steps, core.Step{Phase: phase})
		}
		steps[b].Transfers = append(steps[b].Transfers, core.Transfer{
			Src: members[src], Dst: members[dst],
			Chunk: payloadOf(src, dst), Op: op,
			Dir: dir, Wavelength: color % w,
		})
	})
	return steps
}

// BuildWDMHRing constructs the WDM-enhanced hierarchical ring
// all-reduce. Requires 2 ≤ m ≤ n, m | n and w ≥ 1.
func BuildWDMHRing(n, m, w int) (*core.Schedule, error) {
	src, err := StreamWDMHRing(n, m, w)
	if err != nil {
		return nil, err
	}
	return core.Collect(src), nil
}

// WDMHRingProfile returns the analytic step profile (tolerates ragged n
// for timing, like HRingProfile).
func WDMHRingProfile(n, m, w int) core.Profile {
	p := core.Profile{Algorithm: "wdm-hring"}
	if n <= 1 || m < 2 {
		return p
	}
	g := ceilDiv(n, m)
	a2aColors := (m / 2) * ((m + 1) / 2) // line all-to-all requirement
	sub := ceilDiv(a2aColors, w)
	intra := core.ProfileGroup{Steps: sub, FracOfD: 1 / float64(m), Wavelengths: min(a2aColors, w)}
	p.Groups = append(p.Groups, intra)
	if g > 1 {
		p.Groups = append(p.Groups, core.ProfileGroup{
			Steps:       2 * (g - 1) * ceilDiv(m, w),
			FracOfD:     1 / float64(m) / float64(g),
			Wavelengths: min(m, w),
		})
	}
	p.Groups = append(p.Groups, intra)
	return p
}
