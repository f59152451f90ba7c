// Package ir promotes a flat core.Schedule into a transformable
// intermediate representation. A Program's steps carry per-transfer
// circuit metadata — travel direction, wavelength, and the occupied
// fiber arc — and a small pass framework (Pass, Pipeline) rewrites the
// program, re-validating it after every change.
//
// The point of the rewrites is overlap: fabric.Engine hides step k+1's
// 25 µs MRR reconfiguration under step k's transmission when the two
// steps' pooled (direction, wavelength, arc) circuits are conflict-free
// under the internal/rwa model (SWOT-style, see PAPERS.md). That probe
// in fabric.Fold is the only place a boundary's hold-or-reconfigure
// decision is made: the engine can merely *find* such boundaries, so
// the one pass here, Split, *manufactures* them by splitting a step
// into two halves whose second half runs on wavelength-shifted clones
// of the first half's circuits. The raised program is timed by the
// engine like any other schedule.
//
// Lower → (no passes) → Raise reproduces the input schedule exactly, so
// with every pass disabled the engine's timing is bit-identical to the
// flat path (asserted by the round-trip tests).
package ir

import (
	"fmt"

	"wrht/internal/core"
	"wrht/internal/rwa"
	"wrht/internal/topo"
)

// Step is one schedule step in IR form: the transfers (whose Dir,
// Wavelength and Chunk fields are the circuit metadata passes rewrite)
// and the fiber arc each transfer occupies (Arcs[i] belongs to
// Transfers[i]). Passes must keep Arcs in sync with Transfers.
type Step struct {
	Phase     core.Phase
	Transfers []core.Transfer
	Arcs      []topo.Arc
}

// maxWavelength returns the step's wavelength count (max index + 1).
func (s *Step) maxWavelength() int {
	m := 0
	for _, t := range s.Transfers {
		if t.Wavelength+1 > m {
			m = t.Wavelength + 1
		}
	}
	return m
}

// Program is a schedule under transformation. Budget is the wavelength
// budget passes must respect (0 disables the cap, matching
// Schedule.Validate semantics).
type Program struct {
	Algorithm string
	Ring      topo.Ring
	Budget    int
	Steps     []Step

	// ix is the shared occupancy index behind every disjointness probe
	// and validation; each rwa entry point resets it, so one index
	// serves the whole program.
	ix *rwa.Index
}

// Lower converts a schedule into IR form, computing each transfer's
// occupied arc. The schedule is
// validated first (against budget, 0 = uncapped) so passes start from a
// legal program; the input is not retained or mutated.
func Lower(s *core.Schedule, budget int) (*Program, error) {
	if err := s.Validate(budget); err != nil {
		return nil, fmt.Errorf("ir: lower: %w", err)
	}
	p := &Program{
		Algorithm: s.Algorithm,
		Ring:      s.Ring,
		Budget:    budget,
		ix:        rwa.NewIndex(s.Ring),
	}
	if len(s.Steps) > 0 {
		p.Steps = make([]Step, len(s.Steps))
	}
	for i, st := range s.Steps {
		ns := Step{Phase: st.Phase}
		if len(st.Transfers) > 0 {
			ns.Transfers = make([]core.Transfer, len(st.Transfers))
			copy(ns.Transfers, st.Transfers)
			ns.Arcs = make([]topo.Arc, len(st.Transfers))
			for j, t := range st.Transfers {
				ns.Arcs[j] = s.Ring.ArcOf(t.Src, t.Dst, t.Dir)
			}
		}
		p.Steps[i] = ns
	}
	return p, nil
}

// Raise converts the program back to a flat schedule. The result shares
// nothing with the program, and Lower → Raise with no passes in between
// reproduces the original schedule exactly (reflect.DeepEqual).
func (p *Program) Raise() *core.Schedule {
	s := &core.Schedule{Algorithm: p.Algorithm, Ring: p.Ring}
	if len(p.Steps) > 0 {
		s.Steps = make([]core.Step, len(p.Steps))
	}
	for i, st := range p.Steps {
		cs := core.Step{Phase: st.Phase}
		if len(st.Transfers) > 0 {
			cs.Transfers = make([]core.Transfer, len(st.Transfers))
			copy(cs.Transfers, st.Transfers)
		}
		s.Steps[i] = cs
	}
	return s
}

// check re-validates the program after a mutating pass, reusing the
// shared occupancy index.
func (p *Program) check() error {
	return p.Raise().ValidateWithIndex(p.ix, p.Budget)
}

// disjointPair reports whether two steps' circuits can be up
// simultaneously: the pooled (direction, wavelength, arc) sets of both
// steps must be conflict-free. This is the same rwa check fabric.Fold
// runs at every boundary in overlap mode, over the arcs the program
// already carries; passes use it to predict the engine's decision.
func (p *Program) disjointPair(a, b *Step) bool {
	n := len(a.Transfers) + len(b.Transfers)
	reqs := make([]rwa.Request, 0, n)
	arcs := make([]topo.Arc, 0, n)
	asn := make(rwa.Assignment, 0, n)
	for _, st := range [2]*Step{a, b} {
		for i, t := range st.Transfers {
			reqs = append(reqs, rwa.Request{Src: t.Src, Dst: t.Dst, Dir: t.Dir})
			arcs = append(arcs, st.Arcs[i])
			asn = append(asn, t.Wavelength)
		}
	}
	return p.ix.ConflictFree(reqs, arcs, asn)
}

// DisjointBoundaries counts the overlap-eligible boundaries — the
// quantity every pass tries to grow.
func (p *Program) DisjointBoundaries() int {
	n := 0
	for k := 0; k+1 < len(p.Steps); k++ {
		if p.disjointPair(&p.Steps[k], &p.Steps[k+1]) {
			n++
		}
	}
	return n
}
