package core

import (
	"sort"

	"wrht/internal/topo"
)

// All-to-all exchange among the top-level representatives (§4.1.2).
//
// The representatives r₀ < r₁ < … < r_{k-1} partition the physical ring
// into k gaps; every circuit between two representatives covers whole
// gaps, so routing and wavelength assignment reduce exactly to a virtual
// k-node ring whose "segments" are the gaps. Wavelength counts therefore
// depend only on k, never on where the representatives sit.
//
// Routing: each ordered pair travels the direction of its shorter index
// distance; diametral pairs (even k) are routed both-ways-together in
// alternation so that the two arcs of one pair tile the circle exactly.
//
// Assignment: a tiling-extraction greedy that repeatedly peels a set of
// disjoint arcs covering the circle (each such set is one wavelength).
// For odd k this meets the paper's ⌈k²/8⌉ bound exactly (verified by
// test for every odd k ≤ 129); for even k it uses at most ~⌈k/8⌉ extra
// wavelengths. Feasibility decisions use the constructive requirement,
// which coincides with the paper's formula for every configuration the
// paper evaluates.

// virtualArc is a CW circular interval of gaps [Start, Start+Len) mod K
// owned by the flow from rep index Src to rep index Dst.
type virtualArc struct {
	Src, Dst   int
	Start, Len int
	Dir        topo.Direction
}

// routeAllToAll routes all ordered pairs of k representatives on the
// virtual ring, returning the CW-fiber and CCW-fiber arc sets.
func routeAllToAll(k int) (cw, ccw []virtualArc) {
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			d := ((j-i)%k + k) % k
			switch {
			case 2*d < k:
				cw = append(cw, virtualArc{Src: i, Dst: j, Start: i, Len: d, Dir: topo.CW})
			case 2*d > k:
				ccw = append(ccw, virtualArc{Src: i, Dst: j, Start: j, Len: k - d, Dir: topo.CCW})
			default:
				// Diametral pair: route both arcs of pair p the same way so
				// they tile the circle together.
				p := i % (k / 2)
				if p < (k/2+1)/2 {
					cw = append(cw, virtualArc{Src: i, Dst: j, Start: i, Len: d, Dir: topo.CW})
				} else {
					ccw = append(ccw, virtualArc{Src: i, Dst: j, Start: j, Len: d, Dir: topo.CCW})
				}
			}
		}
	}
	return cw, ccw
}

// tileColor assigns wavelengths to arcs on a k-gap circle by repeatedly
// extracting near-exact tilings: walk the circle choosing the longest
// remaining arc that fits before the wrap completes, jumping over gaps
// with no available arc. Arcs are mutated in place via the returned
// parallel color slice. The second result is the number of colors used.
func tileColor(arcs []virtualArc, k int) ([]int, int) {
	colors := make([]int, len(arcs))
	// remaining[start] = indices of uncolored arcs starting there, by
	// ascending length.
	remaining := make([][]int, k)
	for idx, a := range arcs {
		remaining[a.Start] = append(remaining[a.Start], idx)
	}
	for s := range remaining {
		sort.Slice(remaining[s], func(x, y int) bool {
			return arcs[remaining[s][x]].Len < arcs[remaining[s][y]].Len
		})
	}
	left := len(arcs)
	color := 0
	for left > 0 {
		// Find the first start with remaining arcs.
		start := -1
		for s := 0; s < k; s++ {
			if len(remaining[s]) > 0 {
				start = s
				break
			}
		}
		p, used := start, 0
		for used < k {
			// Longest arc at p fitting in the remaining span.
			list := remaining[p]
			pick := -1
			for x := len(list) - 1; x >= 0; x-- {
				if used+arcs[list[x]].Len <= k {
					pick = x
					break
				}
			}
			if pick >= 0 {
				idx := list[pick]
				remaining[p] = append(list[:pick], list[pick+1:]...)
				colors[idx] = color
				left--
				used += arcs[idx].Len
				p = (p + arcs[idx].Len) % k
				continue
			}
			if len(list) > 0 {
				// Arcs remain here but none fits before the wrap: close
				// this wavelength rather than skipping over them (skipping
				// measurably inflates the color count on large even rings).
				break
			}
			// Jump to the next start with a fitting arc.
			jumped := false
			for step := 1; step < k-used; step++ {
				q := (p + step) % k
				ok := false
				for _, idx := range remaining[q] {
					if used+step+arcs[idx].Len <= k {
						ok = true
						break
					}
				}
				if ok {
					p, used = q, used+step
					jumped = true
					break
				}
			}
			if !jumped {
				break
			}
		}
		color++
	}
	return colors, color
}

// colorFiber colors one fiber's arcs. The CCW instance is the CW one
// rotated by the diametral-pair offset (its half-ring arcs start at pair
// index ⌈k/4⌉ instead of 0), so it is first rotated into the
// CW-isomorphic form — the tiling greedy is sensitive to where the
// diametral arcs sit relative to its lowest-start bias, and the rotation
// makes both fibers color identically. Rotation preserves arc overlap,
// so the returned colors are valid for the original arcs.
func colorFiber(arcs []virtualArc, k, shift int) ([]int, int) {
	if shift == 0 {
		return tileColor(arcs, k)
	}
	rot := make([]virtualArc, len(arcs))
	copy(rot, arcs)
	for i := range rot {
		rot[i].Start = ((rot[i].Start-shift)%k + k) % k
	}
	return tileColor(rot, k)
}

// ccwShift returns the rotation aligning the CCW fiber instance with the
// CW one: the first diametral pair routed CCW.
func ccwShift(k int) int {
	if k%2 != 0 {
		return 0
	}
	return (k/2 + 1) / 2
}

// AllToAllRequirement returns the wavelength count the constructive
// all-to-all exchange among k representatives actually needs (the
// maximum over the two fibers). It equals AllToAllWavelengths(k) for
// odd k and exceeds it by at most ~⌈k/8⌉ for even k.
func AllToAllRequirement(k int) int {
	if k <= 1 {
		return 0
	}
	return ringTmpl(k).need
}
