package core

import (
	"fmt"

	"wrht/internal/rwa"
	"wrht/internal/topo"
)

// StepValidator validates a schedule one step at a time: structural
// sanity per transfer, then wavelength conflict-freedom via the delta
// occupancy index — rwa.Index.AdvanceChecked applies only the
// occupy/release diff against the previous step instead of the old
// Reset+replay. The retained state is two circuit buffers (previous and
// current step) and the index, so validating a streamed schedule costs
// O(max step) + O(index) memory, independent of the step count (pinned
// by TestValidateAllocsStepCountIndependent).
//
// Error behaviour is bit-identical to the materialized validator: when
// the delta check trips (or a wavelength is out of range), the step is
// re-validated through rwa.Index.Validate — Reset+replay with the
// quadratic-oracle fallback — so the reported error, including which
// rwa.Conflict pair is named, matches the legacy path exactly. The
// request/arc/assignment view that fallback needs is only built on that
// error path, never per clean step.
type StepValidator struct {
	ring        topo.Ring
	ix          *rwa.Index
	wavelengths int
	si          int
	prev, next  []rwa.Circuit
}

// NewStepValidator returns a validator over the caller-supplied index
// (which may carry pre-occupied fault-mask cells; it is reset once on
// entry, preserving them) checking every wavelength against the budget
// (0 disables the range check).
func NewStepValidator(ring topo.Ring, ix *rwa.Index, wavelengths int) *StepValidator {
	ix.Reset()
	return &StepValidator{ring: ring, ix: ix, wavelengths: wavelengths}
}

// Step validates the next schedule step. Steps must be presented in
// schedule order; the reported step index counts calls.
func (v *StepValidator) Step(st *Step) error {
	si := v.si
	v.si++
	n := v.ring.N
	v.next = v.next[:0]
	rangeBad := false
	for ti := range st.Transfers {
		t := &st.Transfers[ti]
		if err := checkTransfer(t, n); err != nil {
			return fmt.Errorf("core: step %d transfer %d: %w", si, ti, err)
		}
		v.next = append(v.next, rwa.Circuit{Dir: t.Dir, Arc: v.ring.ArcOf(t.Src, t.Dst, t.Dir), W: t.Wavelength})
		if t.Wavelength < 0 || (v.wavelengths > 0 && t.Wavelength >= v.wavelengths) {
			rangeBad = true
		}
	}
	ok := false
	if !rangeBad {
		// Delta path: release the previous step's circuits, occupy this
		// step's, probing each newly occupied circuit for clashes with
		// the step's other circuits and the fault-mask cells.
		ok = v.ix.AdvanceChecked(v.prev, v.next)
	}
	if !ok {
		// Authoritative re-check through the legacy Reset+replay path so
		// the error value is bit-identical to the materialized validator.
		// This is the error path (or about to be), so building the
		// request view here — the only place it is needed — keeps the
		// clean path allocation-free. On the (defensive) chance the
		// re-check passes after all, the index is left holding exactly
		// this step's circuits over the fault mask, which is the state
		// the delta chain needs.
		reqs := make([]rwa.Request, 0, len(st.Transfers))
		arcs := make([]topo.Arc, 0, len(st.Transfers))
		asn := make(rwa.Assignment, 0, len(st.Transfers))
		for ti := range st.Transfers {
			t := &st.Transfers[ti]
			reqs = append(reqs, rwa.Request{Src: t.Src, Dst: t.Dst, Dir: t.Dir})
			arcs = append(arcs, v.ring.ArcOf(t.Src, t.Dst, t.Dir))
			asn = append(asn, t.Wavelength)
		}
		if err := v.ix.Validate(reqs, arcs, asn, v.wavelengths); err != nil {
			return fmt.Errorf("core: step %d: %w", si, err)
		}
	}
	// AdvanceChecked sorted next in place; as a set it is still this
	// step's circuits, which is all the next diff needs.
	v.prev, v.next = v.next, v.prev
	return nil
}

// checkTransfer applies the per-transfer checks every validator shares:
// both endpoints inside the n-node id space, no self transfer and a
// well-formed chunk.
func checkTransfer(t *Transfer, n int) error {
	if t.Src < 0 || t.Src >= n || t.Dst < 0 || t.Dst >= n {
		return fmt.Errorf("node out of range: %v", *t)
	}
	if t.Src == t.Dst {
		return fmt.Errorf("self transfer: %v", *t)
	}
	return t.Chunk.Validate()
}

// ValidateSource drains a StepSource through a StepValidator: the
// streamed equivalent of Schedule.Validate, in O(max step) memory. A
// nil index allocates a fresh one for the source's ring.
func ValidateSource(src StepSource, ix *rwa.Index, wavelengths int) error {
	if ix == nil {
		ix = rwa.NewIndex(src.Ring())
	}
	v := NewStepValidator(src.Ring(), ix, wavelengths)
	for {
		st, ok := src.Next()
		if !ok {
			return nil
		}
		if err := v.Step(st); err != nil {
			return err
		}
	}
}
