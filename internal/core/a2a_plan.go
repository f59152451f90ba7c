package core

import (
	"fmt"
	"strings"
	"sync"

	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// Reconfiguration plans for the final all-to-all phase (ROADMAP item 2,
// "To Reconfigure or Not to Reconfigure", PAPERS.md arXiv 2602.10468).
//
// The exchange among the r surviving representatives is the
// wavelength-hungriest moment of WRHT: the one-shot circuit plan needs
// AllToAllRequirement(r) ≈ ⌈r²/8⌉ wavelengths, and when that exceeds
// the budget the builder historically abandoned the exchange for a slow
// gather to a single root. A PhasePlan describes the alternatives: the
// same traffic carried over k reconfigured rounds of narrow circuits,
// each round optionally striping its payload across the spare spectrum
// so the busiest circuit carries only 1/stripe of the vector. Three
// families are generated:
//
//   - one-shot: today's single-step exchange, stripe-widened when the
//     budget exceeds the requirement;
//   - k-round: grouped gather levels (the WRHT recursion replayed among
//     the representatives with a free group size g), finished by either
//     a root gather or a now-feasible all-to-all among the survivors,
//     and mirrored by OpCopy broadcasts;
//   - hybrid: the short-arc traffic — pairs inside one representative
//     group — exchanged one-shot on parallel per-group line all-to-alls,
//     with only the long-haul inter-group traffic spilled into an extra
//     reconfigured round among the group representatives.
//
// Every plan leaves all r representatives holding the global sum, so a
// plan's steps substitute for the single all-to-all step (or for the
// fallback's final gather+broadcast pair) without touching the rest of
// the schedule. The payload-aware choice among plans is internal/plan's
// job; core only enumerates the feasible shapes and provides the
// payload-free DefaultPhasePlan heuristic behind Config.PlanAllToAll.

// PhaseLevel is one reduction level of a PhasePlan: the participants are
// partitioned into consecutive groups of at most Group members, and
// either every member sends its partial to the group representative
// (A2A false: one gather round) or the group runs a one-shot line
// all-to-all so every member learns the group sum (A2A true). Each
// level is mirrored after the top exchange by an OpCopy broadcast round
// with the same circuit structure. Stripe and BcastStripe split the
// reduce and broadcast payloads into that many wavelength-parallel
// pieces (1 = the whole vector on one circuit).
type PhaseLevel struct {
	Group       int
	A2A         bool
	Stripe      int
	BcastStripe int
}

// PhasePlan is one candidate execution of the all-to-all phase: the
// reduction levels in order, then a one-shot exchange among the
// survivors when TopA2A is set (required unless the levels collapse the
// participants to a single root), then the levels' broadcast mirrors in
// reverse. StaggerStride, when nonzero, offsets the wavelengths of
// every odd-indexed round by that amount so consecutive rounds occupy
// disjoint spectrum halves and the engine's overlap mode can hide their
// reconfiguration delay (the rounds' stripes are computed against the
// half budget by the enumerator).
type PhasePlan struct {
	// Family labels the generator that produced the plan ("one-shot",
	// "k-round", "hybrid") for reporting.
	Family        string
	Levels        []PhaseLevel
	TopA2A        bool
	TopStripe     int
	StaggerStride int
}

// NumSteps returns the plan's communication step count: one reduce and
// one broadcast round per level, plus the top exchange.
func (p PhasePlan) NumSteps() int {
	n := 2 * len(p.Levels)
	if p.TopA2A {
		n++
	}
	return n
}

// SerWeight returns the plan's serialized payload in units of the
// vector size d: each round's busiest circuit carries d/stripe, so the
// total wire time is SerWeight·d/B plus NumSteps reconfigurations.
func (p PhasePlan) SerWeight() float64 {
	var s float64
	for _, lv := range p.Levels {
		s += 1/float64(lv.Stripe) + 1/float64(lv.BcastStripe)
	}
	if p.TopA2A {
		s += 1 / float64(p.TopStripe)
	}
	return s
}

// String renders a compact description, e.g. "k-round(g=4) 3 steps ser
// 0.75d" or "one-shot ×4".
func (p PhasePlan) String() string {
	var b strings.Builder
	b.WriteString(p.Family)
	if len(p.Levels) > 0 {
		fmt.Fprintf(&b, "(g=%d", p.Levels[0].Group)
		if len(p.Levels) > 1 {
			fmt.Fprintf(&b, "×%d", len(p.Levels))
		}
		b.WriteString(")")
	} else if p.TopStripe > 1 {
		fmt.Fprintf(&b, " ×%d", p.TopStripe)
	}
	if p.StaggerStride > 0 {
		b.WriteString(" staggered")
	}
	fmt.Fprintf(&b, " %d steps ser %.3gd", p.NumSteps(), p.SerWeight())
	return b.String()
}

// phaseWidths returns the wavelength requirement of every round of the
// plan, in emission order (levels, top, broadcasts), replaying the
// partition recursion for r participants. The second result is the
// surviving participant count after the levels.
func (p PhasePlan) phaseWidths(r int) (widths []int, survivors int) {
	parts := r
	bcast := make([]int, 0, len(p.Levels))
	for _, lv := range p.Levels {
		g := min(lv.Group, parts)
		if lv.A2A {
			widths = append(widths, LineAllToAllRequirement(g))
		} else {
			widths = append(widths, g/2)
		}
		// The broadcast mirror always has gather structure: width ⌊g/2⌋
		// with g the level's biggest group.
		bcast = append(bcast, g/2)
		parts = ceilDiv(parts, lv.Group)
	}
	if p.TopA2A {
		widths = append(widths, AllToAllRequirement(parts))
	}
	for i := len(bcast) - 1; i >= 0; i-- {
		widths = append(widths, bcast[i])
	}
	return widths, parts
}

// PhasePlans enumerates every feasible plan for an all-to-all phase
// among r participants under a per-direction wavelength budget w
// (w ≤ 0 = uncapped: every shape is feasible and all stripes are 1,
// matching fabrics without circuit semantics). The order is
// deterministic: one-shot first, then k-round plans by ascending group
// size and level count, then hybrids by ascending group size, each
// followed by its staggered variant when one exists. r < 2 yields nil.
func PhasePlans(r, w int) []PhasePlan {
	if r < 2 {
		return nil
	}
	uncapped := w <= 0
	half := w / 2
	// stripeFor returns the stripe factor for a round of the given
	// wavelength requirement under budget b, or 0 when infeasible.
	stripeFor := func(width, b int) int {
		if uncapped {
			return 1
		}
		if width < 1 {
			width = 1
		}
		if width > b {
			return 0
		}
		return b / width
	}
	var out []PhasePlan
	// One-shot.
	if s := stripeFor(AllToAllRequirement(r), w); s > 0 {
		out = append(out, PhasePlan{Family: "one-shot", TopA2A: true, TopStripe: s})
	}
	// k-round: gather levels of group size g, cut after L levels by
	// either a feasible all-to-all among the survivors or a root gather.
	for g := 2; g <= r; g++ {
		if !uncapped && g/2 > w {
			break // wider groups only grow the gather width
		}
		parts := r
		var levels []PhaseLevel
		for L := 1; parts > 1; L++ {
			gw := min(g, parts) / 2
			s := stripeFor(gw, w)
			if s == 0 {
				break
			}
			levels = append(levels, PhaseLevel{Group: g, A2A: false, Stripe: s, BcastStripe: s})
			parts = ceilDiv(parts, g)
			p := PhasePlan{Family: "k-round"}
			p.Levels = append([]PhaseLevel(nil), levels...)
			if parts == 1 {
				// Root gather: the levels alone finish the reduction.
				emitPlan(&out, p, r, w, half, uncapped)
				break
			}
			if ts := stripeFor(AllToAllRequirement(parts), w); ts > 0 {
				p.TopA2A, p.TopStripe = true, ts
				emitPlan(&out, p, r, w, half, uncapped)
			}
		}
	}
	// Hybrid: one level of parallel per-group line all-to-alls (the
	// short-arc traffic, exchanged one-shot), then the spilled
	// inter-group round among the ⌈r/g⌉ group representatives.
	for g := 2; g < r; g++ {
		s := stripeFor(LineAllToAllRequirement(g), w)
		if s == 0 {
			if !uncapped {
				break // line requirement grows monotonically in g
			}
			continue
		}
		groups := ceilDiv(r, g)
		ts := stripeFor(AllToAllRequirement(groups), w)
		if ts == 0 {
			continue
		}
		bs := stripeFor(g/2, w)
		p := PhasePlan{
			Family:    "hybrid",
			Levels:    []PhaseLevel{{Group: g, A2A: true, Stripe: s, BcastStripe: bs}},
			TopA2A:    true,
			TopStripe: ts,
		}
		emitPlan(&out, p, r, w, half, uncapped)
	}
	return out
}

// emitPlan appends p and, when every round also fits half the budget,
// a staggered variant whose odd rounds sit in the upper spectrum half
// (disjoint consecutive rounds let the engine's overlap mode hide
// their reconfiguration delay at the price of halved stripes).
func emitPlan(out *[]PhasePlan, p PhasePlan, r, w, half int, uncapped bool) {
	*out = append(*out, p)
	if uncapped || half < 1 || p.NumSteps() < 2 {
		return
	}
	widths, _ := p.phaseWidths(r)
	sp := PhasePlan{Family: p.Family, TopA2A: p.TopA2A, StaggerStride: half}
	sp.Levels = append([]PhaseLevel(nil), p.Levels...)
	wi := 0
	fit := func(width int) int {
		if width < 1 {
			width = 1
		}
		if width > half {
			return 0
		}
		return half / width
	}
	for i := range sp.Levels {
		s := fit(widths[wi])
		if s == 0 {
			return
		}
		sp.Levels[i].Stripe = s
		wi++
	}
	if sp.TopA2A {
		s := fit(widths[wi])
		if s == 0 {
			return
		}
		sp.TopStripe = s
		wi++
	}
	for i := len(sp.Levels) - 1; i >= 0; i-- {
		s := fit(widths[wi])
		if s == 0 {
			return
		}
		sp.Levels[i].BcastStripe = s
		wi++
	}
	*out = append(*out, sp)
}

// DefaultPhasePlan returns the payload-free plan Config.PlanAllToAll
// uses when the one-shot exchange does not fit the budget: the feasible
// plan with the least serialized payload (SerWeight — at DNN gradient
// sizes the wire term dominates the 25 µs reconfigurations by orders of
// magnitude), ties broken by fewer steps, then enumeration order. The
// payload- and fabric-aware argmin lives in internal/plan; this
// heuristic only has to beat the single-root gather fallback, which it
// does whenever any striping is possible. The second result is false
// when r < 2 or no plan fits (w < 1).
func DefaultPhasePlan(r, w int) (PhasePlan, bool) {
	plans := PhasePlans(r, w)
	best, ok := PhasePlan{}, false
	var bestSer float64
	for _, p := range plans {
		if p.StaggerStride > 0 {
			// Stagger trades stripe for overlap eligibility; without a
			// payload or an engine mode to price that, prefer packed.
			continue
		}
		ser := p.SerWeight()
		if !ok || ser < bestSer || (ser == bestSer && p.NumSteps() < best.NumSteps()) {
			best, bestSer, ok = p, ser, true
		}
	}
	return best, ok
}

// --- step construction ---------------------------------------------------

// lineTemplate caches the routed-and-colored one-shot line exchange for
// k participants (shared by every group of the same size); need is the
// larger of the two fibers' color counts.
type lineTemplate struct {
	right, left []lineArc
	rc, lc      []int
	need        int
}

var lineTmplCache sync.Map // int -> *lineTemplate

func lineTmpl(k int) *lineTemplate {
	if v, ok := lineTmplCache.Load(k); ok {
		return v.(*lineTemplate)
	}
	right, left := routeLineAllToAll(k)
	rc, nr := colorLine(right)
	lc, nl := colorLine(left)
	t := &lineTemplate{right: right, left: left, rc: rc, lc: lc, need: max(nr, nl)}
	lineTmplCache.Store(k, t)
	return t
}

// ringTemplate caches the routed-and-colored ring all-to-all for k
// participants; need is the larger of the two fibers' color counts.
type ringTemplate struct {
	cw, ccw             []virtualArc
	cwColors, ccwColors []int
	need                int
}

var ringTmplCache sync.Map // int -> *ringTemplate

func ringTmpl(k int) *ringTemplate {
	if v, ok := ringTmplCache.Load(k); ok {
		return v.(*ringTemplate)
	}
	cw, ccw := routeAllToAll(k)
	cwc, ncw := tileColor(cw, k)
	ccwc, nccw := colorFiber(ccw, k, ccwShift(k))
	t := &ringTemplate{cw: cw, ccw: ccw, cwColors: cwc, ccwColors: ccwc, need: max(ncw, nccw)}
	ringTmplCache.Store(k, t)
	return t
}

// LineAllToAll emits the one-shot all-to-all among k positions on a
// line (§6.1): every ordered pair of indices (src, dst) routed the only
// way it can go, with its first-fit interval color. Right-going flows
// come first, each fiber in (src, dst) order. k < 2 emits nothing.
func LineAllToAll(k int, emit func(src, dst int, dir topo.Direction, color int)) {
	if k < 2 {
		return
	}
	t := lineTmpl(k)
	for i, a := range t.right {
		emit(a.Src, a.Dst, a.Dir, t.rc[i])
	}
	for i, a := range t.left {
		emit(a.Src, a.Dst, a.Dir, t.lc[i])
	}
}

// stripeChunk returns piece j of a stripe-way split of the whole
// vector (the whole vector itself for stripe 1, keeping stripe-1 plans
// bit-identical to the unstriped constructions).
func stripeChunk(j, stripe int) tensor.Chunk {
	if stripe <= 1 {
		return tensor.Whole
	}
	return tensor.Chunk{Index: j, Of: stripe}
}

// appendStriped appends the stripe pieces of one logical transfer:
// piece j rides wavelength base + color·stripe + j.
func appendStriped(buf *Step, tr Transfer, color, stripe, base int) {
	for j := 0; j < stripe; j++ {
		tr.Chunk = stripeChunk(j, stripe)
		tr.Wavelength = base + color*stripe + j
		buf.Transfers = append(buf.Transfers, tr)
	}
}

// stripedGatherInto emits one gather (OpSum) or broadcast (OpCopy)
// round over the groups, with each member↔representative transfer
// striped. The circuit structure matches gatherStepInto exactly at
// stripe 1, base 0, except the phase is PhaseAllToAll: plan rounds are
// part of the all-to-all phase regardless of their internal shape, so
// IR passes can identify the phase span.
func stripedGatherInto(buf *Step, groups []group, op tensor.ReduceOp, stripe, base int) {
	buf.Phase = PhaseAllToAll
	buf.Transfers = buf.Transfers[:0]
	for _, g := range groups {
		for i, node := range g.Members {
			if i == g.RepIdx {
				continue
			}
			var dir topo.Direction
			var dist int
			if i < g.RepIdx {
				dir, dist = topo.CW, g.RepIdx-i
			} else {
				dir, dist = topo.CCW, i-g.RepIdx
			}
			tr := Transfer{Src: node, Dst: g.rep(), Op: op, Dir: dir}
			if op == tensor.OpCopy {
				tr.Src, tr.Dst = g.rep(), node
				tr.Dir = dir.Opposite()
			}
			appendStriped(buf, tr, dist-1, stripe, base)
		}
	}
}

// stripedGroupA2AInto emits one round of parallel per-group line
// all-to-alls: every member of every group exchanges its partial with
// its groupmates one-shot, so the whole group learns the group sum.
// Groups occupy disjoint ring spans (participants are ascending and
// partitioned into consecutive runs), so every group reuses the same
// wavelengths.
func stripedGroupA2AInto(buf *Step, groups []group, stripe, base int) {
	buf.Phase = PhaseAllToAll
	buf.Transfers = buf.Transfers[:0]
	for _, g := range groups {
		LineAllToAll(len(g.Members), func(src, dst int, dir topo.Direction, color int) {
			appendStriped(buf, Transfer{
				Src: g.Members[src], Dst: g.Members[dst],
				Op: tensor.OpSum, Dir: dir,
			}, color, stripe, base)
		})
	}
}

// stripedRingA2AInto emits the one-shot ring all-to-all among the
// participants, striped. Stripe 1, base 0 is WRHT's own top exchange.
func stripedRingA2AInto(buf *Step, reps []int, stripe, base int) {
	buf.Phase = PhaseAllToAll
	buf.Transfers = buf.Transfers[:0]
	t := ringTmpl(len(reps))
	for i, a := range t.cw {
		appendStriped(buf, Transfer{
			Src: reps[a.Src], Dst: reps[a.Dst],
			Op: tensor.OpSum, Dir: a.Dir,
		}, t.cwColors[i], stripe, base)
	}
	for i, a := range t.ccw {
		appendStriped(buf, Transfer{
			Src: reps[a.Src], Dst: reps[a.Dst],
			Op: tensor.OpSum, Dir: a.Dir,
		}, t.ccwColors[i], stripe, base)
	}
}

// PhaseBuilder constructs a plan's steps with pooled buffers: after the
// first call, rebuilding a same-shaped plan allocates nothing (the
// planner in internal/plan evaluates hundreds of candidates through one
// builder; see BenchmarkPlanAllToAll). The returned steps alias the
// builder and are valid until the next Build call.
type PhaseBuilder struct {
	steps  []Step
	levels [][]group
	parts  [][]int
}

// nextStep returns a cleared step buffer, growing the pooled slice only
// beyond its high-water mark.
func (b *PhaseBuilder) nextStep() *Step {
	if len(b.steps) < cap(b.steps) {
		b.steps = b.steps[:len(b.steps)+1]
	} else {
		b.steps = append(b.steps, Step{})
	}
	st := &b.steps[len(b.steps)-1]
	st.Transfers = st.Transfers[:0]
	return st
}

// partitionLevel partitions parts into groups of at most g, storing the
// groups and next-level participants in the builder's pooled buffers
// for level li.
func (b *PhaseBuilder) partitionLevel(li int, parts []int, g int) ([]group, []int) {
	for len(b.levels) <= li {
		b.levels = append(b.levels, nil)
		b.parts = append(b.parts, nil)
	}
	groups := b.levels[li][:0]
	next := b.parts[li][:0]
	for lo := 0; lo < len(parts); lo += g {
		hi := min(lo+g, len(parts))
		members := parts[lo:hi]
		gr := group{Members: members, RepIdx: len(members) / 2}
		groups = append(groups, gr)
		next = append(next, gr.rep())
	}
	b.levels[li], b.parts[li] = groups, next
	return groups, next
}

// staggerBase returns the wavelength base of round t under the plan's
// stagger stride (odd rounds shift into the upper spectrum half).
func (p PhasePlan) staggerBase(t int) int {
	if p.StaggerStride > 0 && t%2 == 1 {
		return p.StaggerStride
	}
	return 0
}

// Build emits the plan's steps for the given representatives (strictly
// ascending ring positions). Every step carries PhaseAllToAll. The
// result aliases the builder's pooled buffers and is valid until the
// next Build call; callers that retain steps must copy them.
func (b *PhaseBuilder) Build(ring topo.Ring, reps []int, p PhasePlan) ([]Step, error) {
	if len(reps) < 2 {
		return nil, fmt.Errorf("core: phase plan needs ≥ 2 representatives, got %d", len(reps))
	}
	for i, rep := range reps {
		if rep < 0 || rep >= ring.N {
			return nil, fmt.Errorf("core: phase plan representative %d outside ring of %d", rep, ring.N)
		}
		if i > 0 && rep <= reps[i-1] {
			return nil, fmt.Errorf("core: phase plan representatives not strictly ascending at index %d", i)
		}
	}
	b.steps = b.steps[:0]
	round := 0
	parts := reps
	levelGroups := 0
	for li, lv := range p.Levels {
		if lv.Group < 2 {
			return nil, fmt.Errorf("core: phase plan level %d group size %d < 2", li, lv.Group)
		}
		if lv.Stripe < 1 || lv.BcastStripe < 1 {
			return nil, fmt.Errorf("core: phase plan level %d stripe < 1", li)
		}
		groups, next := b.partitionLevel(li, parts, lv.Group)
		if lv.A2A {
			stripedGroupA2AInto(b.nextStep(), groups, lv.Stripe, p.staggerBase(round))
		} else {
			stripedGatherInto(b.nextStep(), groups, tensor.OpSum, lv.Stripe, p.staggerBase(round))
		}
		round++
		parts = next
		levelGroups++
	}
	if p.TopA2A {
		if len(parts) < 2 {
			return nil, fmt.Errorf("core: phase plan top exchange among %d survivor(s)", len(parts))
		}
		if p.TopStripe < 1 {
			return nil, fmt.Errorf("core: phase plan top stripe < 1")
		}
		stripedRingA2AInto(b.nextStep(), parts, p.TopStripe, p.staggerBase(round))
		round++
	} else if len(parts) != 1 {
		return nil, fmt.Errorf("core: phase plan leaves %d survivors without a top exchange", len(parts))
	}
	for li := levelGroups - 1; li >= 0; li-- {
		stripedGatherInto(b.nextStep(), b.levels[li], tensor.OpCopy, p.Levels[li].BcastStripe, p.staggerBase(round))
		round++
	}
	return b.steps, nil
}

// BuildPhaseSteps is the allocating convenience over PhaseBuilder: the
// returned steps are independent copies.
func BuildPhaseSteps(ring topo.Ring, reps []int, p PhasePlan) ([]Step, error) {
	var b PhaseBuilder
	steps, err := b.Build(ring, reps, p)
	if err != nil {
		return nil, err
	}
	out := make([]Step, len(steps))
	for i, st := range steps {
		out[i] = Step{Phase: st.Phase, Transfers: append([]Transfer(nil), st.Transfers...)}
	}
	return out, nil
}
