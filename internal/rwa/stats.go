package rwa

import "sync/atomic"

// Stats accumulates probe counters from one or more occupancy indexes.
// Attach it via Index.Stats; a nil Stats costs one pointer comparison
// per probe and no allocations (the fields are plain atomics, so one
// Stats may be shared by indexes on many goroutines — the experiment
// sweeps run independent engines concurrently). Counters are batched:
// each probe accumulates locally and publishes with one atomic add per
// field on exit, so the hot union loops stay untouched.
type Stats struct {
	// FirstFitCalls counts FirstFree probes (first-fit coloring).
	FirstFitCalls atomic.Int64
	// RandomFitCalls counts RandomFree probes (random-fit coloring).
	RandomFitCalls atomic.Int64
	// WordsScanned counts 64-wavelength words whose arc union was
	// computed across all fit probes.
	WordsScanned atomic.Int64
	// SaturatedWords counts scanned words whose union came back fully
	// occupied — the early-exit case the block summaries make nearly
	// free.
	SaturatedWords atomic.Int64
	// ConflictProbes counts ConflictFree invocations (one per overlap
	// boundary the fabric engine considers).
	ConflictProbes atomic.Int64
	// ConflictsFound counts ConflictFree probes that detected a clash
	// (the boundary falls back to sequential setup-then-transmit).
	ConflictsFound atomic.Int64

	// Latency, when non-nil, receives every probe's wall-clock duration
	// in seconds (FirstFree, RandomFree, ConflictFree). The sink must
	// be safe for concurrent use — obs.Histogram.Observe is the
	// intended implementation. Set it
	// before the first probe; it is read without synchronization on the
	// hot path (a nil Latency adds one pointer comparison per probe).
	Latency interface{ Observe(float64) }
}

// Publish copies every counter into the given sink under the standard
// "rwa."-prefixed names. The sink is any func(name string, v int64) —
// in practice obs.Registry.Counter(name).Add — kept abstract so this
// package stays free of an observability dependency.
func (st *Stats) Publish(sink func(name string, v int64)) {
	if st == nil {
		return
	}
	sink("rwa.firstfit.calls", st.FirstFitCalls.Load())
	sink("rwa.randomfit.calls", st.RandomFitCalls.Load())
	sink("rwa.words.scanned", st.WordsScanned.Load())
	sink("rwa.words.saturated", st.SaturatedWords.Load())
	sink("rwa.conflict.probes", st.ConflictProbes.Load())
	sink("rwa.conflict.found", st.ConflictsFound.Load())
}
