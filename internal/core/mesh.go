package core

import (
	"sort"

	"wrht/internal/topo"
)

// WRHT on lines and meshes (§6.1): a mesh row/column is a line — no
// wraparound fiber — so the grouped gathers work unchanged (their
// circuits never cross a group boundary, let alone the seam), but the
// final exchange must use the one-stage all-to-all model for a line
// [13]: every ordered pair routes the only way it can, and wavelength
// assignment is interval-graph coloring, which first-fit by left
// endpoint solves optimally at the max-cut load ≈ ⌈k²/4⌉.
//
// The line is the WRHT stream with that exchange swapped in
// (newWRHTStream), and the mesh is the torus construction and validator
// run with line rows and columns (stream2D, validate2D in torus.go).

// lineArc is a directed interval [Lo, Hi) of line segments used by the
// flow Src→Dst (indices into the participant list).
type lineArc struct {
	Src, Dst int
	Lo, Hi   int
	Dir      topo.Direction // CW = toward higher index
}

// routeLineAllToAll routes all ordered pairs of k line positions.
func routeLineAllToAll(k int) (right, left []lineArc) {
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			switch {
			case i < j:
				right = append(right, lineArc{Src: i, Dst: j, Lo: i, Hi: j, Dir: topo.CW})
			case i > j:
				left = append(left, lineArc{Src: i, Dst: j, Lo: j, Hi: i, Dir: topo.CCW})
			}
		}
	}
	return right, left
}

// colorLine colors interval arcs with first-fit by (Lo, longest-first),
// which is optimal for interval graphs: the color count equals the max
// number of intervals over any segment.
func colorLine(arcs []lineArc) ([]int, int) {
	order := make([]int, len(arcs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := arcs[order[a]], arcs[order[b]]
		if x.Lo != y.Lo {
			return x.Lo < y.Lo
		}
		return x.Hi > y.Hi
	})
	colors := make([]int, len(arcs))
	var busyUntil []int // per color, the segment index it is free from
	used := 0
	for _, idx := range order {
		a := arcs[idx]
		assigned := -1
		for c := 0; c < used; c++ {
			if busyUntil[c] <= a.Lo {
				assigned = c
				break
			}
		}
		if assigned < 0 {
			busyUntil = append(busyUntil, 0)
			assigned = used
			used++
		}
		busyUntil[assigned] = a.Hi
		colors[idx] = assigned
	}
	return colors, used
}

// LineAllToAllRequirement returns the wavelength count of the one-stage
// all-to-all among k nodes on a line: the max-cut load ⌊k/2⌋·⌈k/2⌉ per
// fiber (first-fit interval coloring is exactly optimal).
func LineAllToAllRequirement(k int) int {
	if k <= 1 {
		return 0
	}
	return lineTmpl(k).need
}

// BuildWRHTLine constructs the WRHT all-reduce on an N-node line (a
// mesh row): identical grouped gathers, with the line all-to-all in the
// final reduce step when ⌊m*/2⌋·⌈m*/2⌉ wavelengths fit the budget. It
// ignores Strategy and PlanAllToAll.
func BuildWRHTLine(cfg Config) (*Schedule, error) {
	src, err := newWRHTStream(cfg, true)
	if err != nil {
		return nil, err
	}
	return Collect(src), nil
}

// BuildWRHTMesh constructs the §6.1 WRHT all-reduce on an R×C mesh: the
// torus construction with line rows and a line column, so the column
// stage ends in the line all-to-all.
func BuildWRHTMesh(m topo.Mesh, wavelengths, groupSize int) (*Schedule, error) {
	src, err := stream2D(topo.Torus(m), wavelengths, groupSize, true)
	if err != nil {
		return nil, err
	}
	return Collect(src), nil
}

// ValidateMesh checks a mesh schedule with the torus validator plus the
// line rule: no transfer may travel the (nonexistent) wraparound edge.
func ValidateMesh(s *Schedule, m topo.Mesh, wavelengths int) error {
	return validate2D(s.Source(), topo.Torus(m), wavelengths, true)
}
