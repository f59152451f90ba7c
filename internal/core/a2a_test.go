package core

import (
	"testing"

	"wrht/internal/rwa"
	"wrht/internal/topo"
)

// TestAllToAllWavelengthsVsFirstFit compares the paper's ⌈r²/8⌉ formula
// (AllToAllWavelengths) with the wavelength count first-fit actually
// produces on the all-to-all step's request set — all ordered pairs
// among r representatives routed the shortest ring direction, exactly as
// allToAllStep builds them. The deterministic greedy tracks the formula
// from below within 1 (odd r, where the true optimum is (r²-1)/8) and
// from above within 50% (≈30% beyond tiny rings, ≈20% at r=64); a few
// exact values are pinned so any drift in Assign shows up here.
func TestAllToAllWavelengthsVsFirstFit(t *testing.T) {
	pinned := map[int]int{2: 1, 8: 10, 15: 32, 22: 73, 33: 165, 64: 615}
	for r := 2; r <= 64; r++ {
		ring := topo.NewRing(r)
		var reqs []rwa.Request
		for src := 0; src < r; src++ {
			for dst := 0; dst < r; dst++ {
				if src == dst {
					continue
				}
				dir, _ := ring.ShortestDir(src, dst)
				reqs = append(reqs, rwa.Request{Src: src, Dst: dst, Dir: dir})
			}
		}
		asn, used := rwa.Assign(ring, reqs, rwa.FirstFit, nil)
		if err := rwa.Validate(ring, reqs, asn, used); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		bound := AllToAllWavelengths(r)
		if used < bound-1 {
			t.Errorf("r=%d: first-fit used %d wavelengths, below paper bound %d - 1", r, used, bound)
		}
		if used > bound+bound/2 {
			t.Errorf("r=%d: first-fit used %d wavelengths, beyond 1.5× paper bound %d", r, used, bound)
		}
		if want, ok := pinned[r]; ok && used != want {
			t.Errorf("r=%d: first-fit used %d wavelengths, pinned value %d", r, used, want)
		}
	}
}

func TestAllToAllRequirementMeetsPaperBoundOddK(t *testing.T) {
	// For odd k the tiling construction meets ⌈k²/8⌉ exactly.
	for k := 3; k <= 129; k += 2 {
		req := AllToAllRequirement(k)
		bound := AllToAllWavelengths(k)
		if req > bound {
			t.Errorf("k=%d: requirement %d > paper bound %d", k, req, bound)
		}
	}
}

func TestAllToAllRequirementNearBoundEvenK(t *testing.T) {
	// For even k the construction stays within ⌈k/8⌉+1 of the bound.
	for k := 2; k <= 128; k += 2 {
		req := AllToAllRequirement(k)
		bound := AllToAllWavelengths(k)
		slack := k/8 + 1
		if req > bound+slack {
			t.Errorf("k=%d: requirement %d > bound %d + slack %d", k, req, bound, slack)
		}
	}
}

func TestAllToAllStepConflictFree(t *testing.T) {
	// Representatives at arbitrary (uneven) positions: the construction
	// must stay conflict-free within its own wavelength requirement.
	cases := [][]int{
		{2, 7, 12},                       // Fig 2 representatives on a 15-ring
		{0, 1, 2, 3},                     // tightly packed
		{0, 10, 11, 40, 41, 90},          // wildly uneven
		{5, 20, 35, 50, 65, 80, 95, 110}, // 8 evenly spaced (Table 1 case)
	}
	sizes := []int{15, 10, 100, 128}
	for i, reps := range cases {
		ring := topo.NewRing(sizes[i])
		var st Step
		stripedRingA2AInto(&st, reps, 1, 0)
		s := &Schedule{Algorithm: "a2a", Ring: ring, Steps: []Step{st}}
		req := AllToAllRequirement(len(reps))
		if err := s.Validate(req); err != nil {
			t.Errorf("case %d (k=%d): %v", i, len(reps), err)
		}
		// Every ordered pair must appear exactly once.
		want := len(reps) * (len(reps) - 1)
		if len(st.Transfers) != want {
			t.Errorf("case %d: %d transfers, want %d", i, len(st.Transfers), want)
		}
	}
}

func TestAllToAllRequirementMonotoneish(t *testing.T) {
	// The requirement must be positive and grow roughly quadratically.
	if AllToAllRequirement(1) != 0 || AllToAllRequirement(0) != 0 {
		t.Fatal("k<=1 should need 0 wavelengths")
	}
	if AllToAllRequirement(2) != 1 {
		t.Fatalf("k=2 requirement = %d, want 1", AllToAllRequirement(2))
	}
	if AllToAllRequirement(3) > 2 {
		t.Fatalf("k=3 requirement = %d, want <= 2", AllToAllRequirement(3))
	}
}

func TestRouteAllToAllCoversAllPairs(t *testing.T) {
	for _, k := range []int{2, 3, 4, 5, 8, 9, 16} {
		cw, ccw := routeAllToAll(k)
		seen := map[[2]int]int{}
		for _, a := range append(cw, ccw...) {
			seen[[2]int{a.Src, a.Dst}]++
		}
		if len(seen) != k*(k-1) {
			t.Errorf("k=%d: %d distinct pairs, want %d", k, len(seen), k*(k-1))
		}
		for p, c := range seen {
			if c != 1 {
				t.Errorf("k=%d: pair %v routed %d times", k, p, c)
			}
		}
		// Arc lengths are at most ⌈k/2⌉ (shortest-direction routing).
		for _, a := range append(cw, ccw...) {
			if a.Len < 1 || a.Len > (k+1)/2 && 2*a.Len != k {
				t.Errorf("k=%d: arc %+v has invalid length", k, a)
			}
		}
	}
}
