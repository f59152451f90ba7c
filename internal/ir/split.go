package ir

import (
	"wrht/internal/core"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// Split replaces a step with two half-payload copies of itself whose
// second half runs on wavelengths uniformly shifted by the step's
// wavelength count W. The two halves keep the original routes and
// arcs, so they use disjoint wavelength sets on identical circuits —
// the internal boundary is rwa-disjoint *by construction*, and the
// engine hides the second half's reconfiguration under the first
// half's transmission. Total transmission is unchanged (each circuit
// carries half the bytes, twice), so when the half-step transmission
// still exceeds the reconfiguration delay the split converts a full
// setup charge into hidden time at no cost; the chunk halving nests a
// Sub{0,2}/Sub{1,2} level at the deepest point of the chunk chain, so
// both halves together cover exactly the original elements at any
// vector length.
//
// A step is split only when (a) doubling its wavelength usage fits the
// budget (2W ≤ Budget), (b) the half-step transmission of its busiest
// circuit still covers the setup delay (profitability gate, wired from
// the fabric's parameters), and (c) the boundary to the following step
// does not regress from disjoint to conflicted (the shifted colors
// could in principle collide with the successor; conflicted successors
// stay conflicted — the pooled arcs are unchanged and only wavelengths
// moved upward — so the split's net gain is always ≥ 1 boundary).
// Freshly created halves are not re-split in the same application.
type Split struct {
	// SetupSeconds is the per-step circuit setup cost to hide (the MRR
	// reconfiguration delay a); zero or negative disables the pass —
	// with nothing to hide a split has no value.
	SetupSeconds float64
	// BytesPerSecond is the per-circuit line rate used to estimate the
	// half-step transmission.
	BytesPerSecond float64
	// PayloadBytes is the per-node vector size d the schedule will
	// carry.
	PayloadBytes float64
}

// Name implements Pass.
func (*Split) Name() string { return "split" }

// Apply implements Pass.
func (sp *Split) Apply(p *Program) (bool, error) {
	changed := false
	for k := 0; k < len(p.Steps); k++ {
		st := &p.Steps[k]
		if len(st.Transfers) == 0 || !sp.profitable(st) {
			continue
		}
		w := st.maxWavelength()
		if p.Budget > 0 && 2*w > p.Budget {
			continue
		}
		s1, s2 := splitStep(st, w)
		if !p.disjointPair(&s1, &s2) {
			// Cannot happen for a valid step (disjoint wavelength sets on
			// identical arcs), but verify rather than trust: a false here
			// means the step was already conflicted and splitting it would
			// compound the damage.
			continue
		}
		if k+1 < len(p.Steps) {
			next := &p.Steps[k+1]
			if p.disjointPair(st, next) && !p.disjointPair(&s2, next) {
				continue // the shift would sacrifice an existing boundary
			}
		}
		p.Steps = append(p.Steps, Step{})
		copy(p.Steps[k+2:], p.Steps[k+1:])
		p.Steps[k] = s1
		p.Steps[k+1] = s2
		changed = true
		k++ // skip the freshly created second half
	}
	return changed, nil
}

// profitable reports whether the half-step transmission of the step's
// busiest circuit still covers the setup delay, so the split hides a
// full reconfiguration without stretching the schedule.
func (sp *Split) profitable(st *Step) bool {
	if sp.SetupSeconds <= 0 || sp.BytesPerSecond <= 0 || sp.PayloadBytes <= 0 {
		return false
	}
	maxFrac := 0.0
	for _, t := range st.Transfers {
		if f := t.Chunk.Fraction(); f > maxFrac {
			maxFrac = f
		}
	}
	return maxFrac*sp.PayloadBytes/2/sp.BytesPerSecond >= sp.SetupSeconds
}

// splitStep builds the two halves: identical routes and arcs, chunks
// halved in place, second half's wavelengths shifted up by shift.
func splitStep(st *Step, shift int) (Step, Step) {
	mk := func() Step {
		return Step{
			Phase:     st.Phase,
			Transfers: make([]core.Transfer, len(st.Transfers)),
			Arcs:      append([]topo.Arc(nil), st.Arcs...),
		}
	}
	s1, s2 := mk(), mk()
	for i, t := range st.Transfers {
		c1, c2 := halveChunk(t.Chunk)
		a, b := t, t
		a.Chunk = c1
		b.Chunk = c2
		b.Wavelength += shift
		s1.Transfers[i] = a
		s2.Transfers[i] = b
	}
	return s1, s2
}

// halveChunk appends a {0,2}/{1,2} split at the deepest nesting level,
// cloning the Sub chain so neither half aliases the original.
func halveChunk(c tensor.Chunk) (tensor.Chunk, tensor.Chunk) {
	a, b := c, c
	if c.Sub == nil {
		a.Sub = &tensor.Chunk{Index: 0, Of: 2}
		b.Sub = &tensor.Chunk{Index: 1, Of: 2}
		return a, b
	}
	sa, sb := halveChunk(*c.Sub)
	a.Sub, b.Sub = &sa, &sb
	return a, b
}
