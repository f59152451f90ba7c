package rwa

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"wrht/internal/topo"
)

// probeStart returns the wall-clock start time for a probe, or the zero
// time when no latency sink is attached — the timed path costs two
// pointer comparisons and one clock read, the untimed path only the
// comparisons (time.Now allocates nothing, preserving the zero-alloc
// probe pins).
func probeStart(st *Stats) time.Time {
	if st != nil && st.Latency != nil {
		return time.Now()
	}
	return time.Time{}
}

// probeEnd records the probe's duration into the stats' latency sink,
// if any.
func probeEnd(st *Stats, t0 time.Time) {
	if st != nil && st.Latency != nil {
		st.Latency.Observe(time.Since(t0).Seconds())
	}
}

// Index is a per-direction segment×wavelength occupancy table for one
// ring. For each direction it keeps one uint64 row per 64-wavelength
// word, holding the occupancy mask of wavelengths [64k, 64k+64) for each
// of the N fiber segments: occ[dir][k*n+s] bit b set means wavelength
// 64k+b is occupied on segment s. A parallel summary level stores, per
// word, the OR of each aligned 64-segment block (blk[dir][k*nb+j] = OR
// of occ over segments [64j, 64j+64)), so the union of a long arc reads
// whole blocks with one load each and only scans segments in the two
// partial blocks at the arc ends. Coloring a request ORs its arc's masks
// this way (with early exit once a word saturates) and picks via
// trailing-zero scan, so assignment and validation cost
// O(R · arcLen/64 · λ/64) plus the per-segment Occupy writes — instead
// of a pairwise O(R²·λ) sweep. Word-major layout also makes growth
// allocation-only: a new 64-wavelength word appends fresh rows, never
// re-laying existing occupancy.
//
// An Index is not safe for concurrent use. AssignInto, Validate and
// ConflictFree reset it on entry, so one Index can be reused across many
// steps with zero steady-state allocation; the lower-level
// Occupy/FirstFree/RandomFree/Occupied primitives operate on the current
// contents.
type Index struct {
	// Stats, when non-nil, accumulates probe counters (fit calls, words
	// scanned, saturation early-exits, conflict probes). May be shared
	// across indexes; see Stats.
	Stats *Stats

	n       int // ring size (segments per direction)
	nb      int // summary blocks per row: ceil(n/64)
	words   int // 64-wavelength words in use: ceil((maxOccupied+1)/64)
	occ     [2][]uint64
	blk     [2][]uint64
	scratch []uint64 // per-word arc unions, reused by RandomFree
	base    []baseCell
}

// baseCell is one pre-occupied (masked) cell set that survives Reset.
type baseCell struct {
	dir topo.Direction
	arc topo.Arc
	w   int
}

// NewIndex returns an empty occupancy index for ring r.
func NewIndex(r topo.Ring) *Index {
	ix := &Index{n: r.N, nb: (r.N + 63) / 64}
	for d := range ix.occ {
		ix.occ[d] = make([]uint64, r.N)
		ix.blk[d] = make([]uint64, ix.nb)
	}
	ix.scratch = make([]uint64, 1)
	return ix
}

// Reset clears all occupancy except the pre-occupied cells added with
// Preoccupy, which are re-applied, keeping the allocated capacity.
func (ix *Index) Reset() {
	for d := range ix.occ {
		clear(ix.occ[d][:ix.words*ix.n])
		clear(ix.blk[d][:ix.words*ix.nb])
	}
	ix.words = 0
	for _, c := range ix.base {
		ix.Occupy(c.dir, c.arc, c.w)
	}
}

// Preoccupy marks wavelength w occupied on every segment of arc a in
// direction dir persistently: unlike Occupy, the cells survive Reset
// (and therefore AssignInto/Validate/ConflictFree, which reset on
// entry), so first/random fit route around them as if a permanent
// circuit held them. Fault masks use this to model dead wavelengths and
// cut fiber segments (see internal/fault).
func (ix *Index) Preoccupy(dir topo.Direction, a topo.Arc, w int) {
	ix.base = append(ix.base, baseCell{dir: dir, arc: a, w: w})
	ix.Occupy(dir, a, w)
}

// ClearPreoccupied drops every pre-occupied cell and clears the index.
func (ix *Index) ClearPreoccupied() {
	ix.base = ix.base[:0]
	ix.Reset()
}

// arcRanges splits the wrapped segment interval of a into at most two
// ascending half-open ranges [lo1,hi1) and [lo2,hi2).
func (ix *Index) arcRanges(a topo.Arc) (lo1, hi1, lo2, hi2 int) {
	if a.N != ix.n {
		panic(fmt.Sprintf("rwa: arc modulus %d != index ring size %d", a.N, ix.n))
	}
	if a.Len <= 0 {
		return 0, 0, 0, 0
	}
	if a.Len >= ix.n {
		return 0, ix.n, 0, 0
	}
	hi := a.Lo + a.Len
	if hi <= ix.n {
		return a.Lo, hi, 0, 0
	}
	return a.Lo, ix.n, 0, hi - ix.n
}

const full = ^uint64(0)

// unionRange ORs one word's occupancy over segments [lo, hi) into m,
// reading whole 64-segment summary blocks where possible and stopping as
// soon as the mask saturates — for the densely packed low wavelengths
// that happens within a few loads, making saturated words nearly free.
func unionRange(occRow, blkRow []uint64, lo, hi int, m uint64) uint64 {
	if hi-lo <= 128 {
		for _, v := range occRow[lo:hi] {
			if m |= v; m == full {
				return m
			}
		}
		return m
	}
	head := (lo + 63) &^ 63
	tail := hi &^ 63
	for _, v := range occRow[lo:head] {
		if m |= v; m == full {
			return m
		}
	}
	for _, v := range blkRow[head>>6 : tail>>6] {
		if m |= v; m == full {
			return m
		}
	}
	for _, v := range occRow[tail:hi] {
		if m |= v; m == full {
			return m
		}
	}
	return m
}

// unionWord returns the OR of one word over every segment of the arc.
func (ix *Index) unionWord(dir topo.Direction, k, lo1, hi1, lo2, hi2 int) uint64 {
	occRow := ix.occ[dir][k*ix.n : (k+1)*ix.n]
	blkRow := ix.blk[dir][k*ix.nb : (k+1)*ix.nb]
	m := unionRange(occRow, blkRow, lo1, hi1, 0)
	if m != full && hi2 > lo2 {
		m = unionRange(occRow, blkRow, lo2, hi2, m)
	}
	return m
}

// grow extends the occupancy to hold word index `word`: append-only in
// the word-major layout (fresh zero rows per new word, nothing re-laid).
func (ix *Index) grow(word int) {
	extend := func(s []uint64, rowLen int) []uint64 {
		need := (word + 1) * rowLen
		if cap(s) >= need {
			return s[:need]
		}
		ns := make([]uint64, need, 2*need)
		copy(ns, s)
		return ns
	}
	for d := range ix.occ {
		ix.occ[d] = extend(ix.occ[d], ix.n)
		ix.blk[d] = extend(ix.blk[d], ix.nb)
	}
	if len(ix.scratch) <= word {
		ix.scratch = make([]uint64, word+1)
	}
}

// Occupy marks wavelength w occupied on every segment of arc a in
// direction dir.
func (ix *Index) Occupy(dir topo.Direction, a topo.Arc, w int) {
	if w < 0 {
		panic(fmt.Sprintf("rwa: negative wavelength %d", w))
	}
	lo1, hi1, lo2, hi2 := ix.arcRanges(a)
	word, mask := w>>6, uint64(1)<<(w&63)
	if word >= ix.words {
		ix.grow(word)
		ix.words = word + 1
	}
	occRow := ix.occ[dir][word*ix.n : (word+1)*ix.n]
	blkRow := ix.blk[dir][word*ix.nb : (word+1)*ix.nb]
	set := func(lo, hi int) {
		for s := lo; s < hi; s++ {
			occRow[s] |= mask
		}
		for j := lo >> 6; j<<6 < hi; j++ {
			blkRow[j] |= mask
		}
	}
	set(lo1, hi1)
	if hi2 > lo2 {
		set(lo2, hi2)
	}
}

// Occupied reports whether wavelength w is occupied on any segment of
// arc a in direction dir.
func (ix *Index) Occupied(dir topo.Direction, a topo.Arc, w int) bool {
	lo1, hi1, lo2, hi2 := ix.arcRanges(a)
	word := w >> 6
	if w < 0 || word >= ix.words {
		return false
	}
	mask := uint64(1) << (w & 63)
	occRow := ix.occ[dir][word*ix.n : (word+1)*ix.n]
	blkRow := ix.blk[dir][word*ix.nb : (word+1)*ix.nb]
	hit := func(lo, hi int) bool {
		if hi-lo <= 128 {
			for _, v := range occRow[lo:hi] {
				if v&mask != 0 {
					return true
				}
			}
			return false
		}
		head, tail := (lo+63)&^63, hi&^63
		for _, v := range occRow[lo:head] {
			if v&mask != 0 {
				return true
			}
		}
		for _, v := range blkRow[head>>6 : tail>>6] {
			if v&mask != 0 {
				return true
			}
		}
		for _, v := range occRow[tail:hi] {
			if v&mask != 0 {
				return true
			}
		}
		return false
	}
	return hit(lo1, hi1) || (hi2 > lo2 && hit(lo2, hi2))
}

// FirstFree returns the lowest wavelength free on every segment of arc a
// in direction dir.
func (ix *Index) FirstFree(dir topo.Direction, a topo.Arc) int {
	t0 := probeStart(ix.Stats)
	lo1, hi1, lo2, hi2 := ix.arcRanges(a)
	w := ix.words << 6
	scanned, saturated := 0, 0
	for k := 0; k < ix.words; k++ {
		m := ix.unionWord(dir, k, lo1, hi1, lo2, hi2)
		scanned++
		if m != full {
			w = k<<6 + bits.TrailingZeros64(^m)
			break
		}
		saturated++
	}
	if st := ix.Stats; st != nil {
		st.FirstFitCalls.Add(1)
		st.WordsScanned.Add(int64(scanned))
		st.SaturatedWords.Add(int64(saturated))
	}
	probeEnd(ix.Stats, t0)
	return w
}

// RandomFree draws a uniformly random free wavelength on arc a in
// direction dir, reproducing the legacy draw exactly: the candidate set
// is the free wavelengths below max(occupied on the arc)+2, enumerated
// in increasing order, and exactly one rng.Intn call selects among them.
func (ix *Index) RandomFree(dir topo.Direction, a topo.Arc, rng *rand.Rand) int {
	if rng == nil {
		panic("rwa: RandomFit requires a rand source")
	}
	t0 := probeStart(ix.Stats)
	lo1, hi1, lo2, hi2 := ix.arcRanges(a)
	u := ix.scratch[:ix.words]
	limit := 1 // max occupied + 2; 1 when the arc is entirely free
	saturated := 0
	for k := ix.words - 1; k >= 0; k-- {
		u[k] = ix.unionWord(dir, k, lo1, hi1, lo2, hi2)
		if u[k] == full {
			saturated++
		}
		if limit == 1 && u[k] != 0 {
			limit = k<<6 + 65 - bits.LeadingZeros64(u[k])
		}
	}
	if st := ix.Stats; st != nil {
		st.RandomFitCalls.Add(1)
		st.WordsScanned.Add(int64(ix.words))
		st.SaturatedWords.Add(int64(saturated))
	}
	// Timed up to here: the union scan dominates; the constant-time
	// selection below draws from precomputed words.
	probeEnd(ix.Stats, t0)
	// wordAt treats wavelengths at or beyond the limit as occupied so
	// they never count as candidates; words past the in-use range are
	// entirely free.
	wordAt := func(k int) uint64 {
		var m uint64
		if k < len(u) {
			m = u[k]
		}
		if hi := limit - k<<6; hi < 64 {
			m |= full << hi
		}
		return m
	}
	free := 0
	for k := 0; k<<6 < limit; k++ {
		free += 64 - bits.OnesCount64(wordAt(k))
	}
	pick := rng.Intn(free)
	for k := 0; ; k++ {
		m := wordAt(k)
		c := 64 - bits.OnesCount64(m)
		if pick >= c {
			pick -= c
			continue
		}
		fm := ^m
		for ; pick > 0; pick-- {
			fm &= fm - 1 // clear lowest free bit: select the pick-th one
		}
		return k<<6 + bits.TrailingZeros64(fm)
	}
}

// AssignInto colors reqs into asn (which must have the same length)
// using the given pre-computed arcs (ArcsOf(r, reqs)). The index is
// reset on entry; after the initial capacity warm-up, repeated calls
// perform zero heap allocations. Returns the wavelength count used.
func (ix *Index) AssignInto(asn Assignment, reqs []Request, arcs []topo.Arc, strat Strategy, rng *rand.Rand) int {
	if len(asn) != len(reqs) || len(arcs) != len(reqs) {
		panic(fmt.Sprintf("rwa: %d requests with %d arcs and %d assignment slots", len(reqs), len(arcs), len(asn)))
	}
	ix.Reset()
	maxUsed := 0
	for i, q := range reqs {
		var w int
		switch strat {
		case FirstFit:
			w = ix.FirstFree(q.Dir, arcs[i])
		case RandomFit:
			w = ix.RandomFree(q.Dir, arcs[i], rng)
		default:
			panic("rwa: unknown strategy")
		}
		ix.Occupy(q.Dir, arcs[i], w)
		asn[i] = w
		if w+1 > maxUsed {
			maxUsed = w + 1
		}
	}
	return maxUsed
}

// MaskedConflict reports a request assigned onto a pre-occupied
// (masked) cell: no other request clashes with it, but the resource is
// unavailable (a dead wavelength or a cut fiber segment under a fault
// mask).
type MaskedConflict struct {
	I          int // request index
	Wavelength int
}

func (c MaskedConflict) Error() string {
	return fmt.Sprintf("rwa: request %d uses masked (pre-occupied) wavelength %d", c.I, c.Wavelength)
}

// Validate checks the assignment against the given pre-computed arcs
// (ArcsOf(r, reqs)). The index is reset on entry and used as the
// occupancy state, so a clean pass costs O(R · arcLen/64 · λ/64). Any
// detected problem defers to the quadratic reference implementation so
// the returned error — including which Conflict pair is reported — is
// identical to the legacy behaviour; a hit that the pairwise oracle
// cannot see (a pre-occupied masked cell) is reported as a
// MaskedConflict instead.
func (ix *Index) Validate(reqs []Request, arcs []topo.Arc, asn Assignment, wavelengths int) error {
	r := topo.Ring{N: ix.n}
	if len(reqs) != len(asn) {
		return validateQuadratic(r, reqs, asn, wavelengths)
	}
	if len(arcs) != len(reqs) {
		panic(fmt.Sprintf("rwa: %d requests but %d arcs", len(reqs), len(arcs)))
	}
	ix.Reset()
	for i, q := range reqs {
		if asn[i] < 0 || (wavelengths > 0 && asn[i] >= wavelengths) || ix.Occupied(q.Dir, arcs[i], asn[i]) {
			if err := validateQuadratic(r, reqs, asn, wavelengths); err != nil {
				return err
			}
			return MaskedConflict{I: i, Wavelength: asn[i]}
		}
		ix.Occupy(q.Dir, arcs[i], asn[i])
	}
	return nil
}

// ConflictFree reports whether the assignment is conflict-free on the
// given arcs, skipping range checks and error construction. Unlike
// Validate it never falls back to the quadratic path, so it stays cheap
// even when conflicts are common (the fabric overlap probe calls it once
// per step boundary and conflicts simply mean "don't overlap here").
func (ix *Index) ConflictFree(reqs []Request, arcs []topo.Arc, asn Assignment) bool {
	t0 := probeStart(ix.Stats)
	ix.Reset()
	ok := true
	for i, q := range reqs {
		if asn[i] < 0 || ix.Occupied(q.Dir, arcs[i], asn[i]) {
			ok = false
			break
		}
		ix.Occupy(q.Dir, arcs[i], asn[i])
	}
	if st := ix.Stats; st != nil {
		st.ConflictProbes.Add(1)
		if !ok {
			st.ConflictsFound.Add(1)
		}
	}
	probeEnd(ix.Stats, t0)
	return ok
}
