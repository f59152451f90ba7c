package core

import (
	"math/rand"

	"wrht/internal/rwa"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// Streaming schedule construction. A Schedule materializes every
// Transfer of every step before anything consumes it, which caps the
// reachable ring size: at N = 2^20 the WRHT schedule alone is ~130 MB
// and the baseline ring algorithms are quadratically worse. A
// StepSource instead yields one step at a time into a producer-owned
// buffer, so construction, validation (StepValidator) and execution
// (fabric.Engine.RunStream) all run in O(max step) + O(index) peak
// memory. The materialized Build* constructors are retained as thin
// Collect wrappers over their Stream* producers and stay bit-identical
// to the pre-streaming output (pinned by the golden and property
// tests).

// StepSource is a pull-based schedule producer. Next returns the next
// step or ok=false when the schedule is exhausted. The returned step
// points into a buffer owned by the producer: it is valid only until
// the following Next call, and callers that retain a step must copy it
// (Collect does). A StepSource is single-use and not safe for
// concurrent use.
type StepSource interface {
	// Algorithm names the collective ("wrht", "ring", ...), matching
	// the Algorithm field of the collected Schedule.
	Algorithm() string
	// Ring is the topology the steps are scheduled on.
	Ring() topo.Ring
	// Next yields the next step, or ok=false at end of schedule.
	Next() (st *Step, ok bool)
}

// Collect drains a StepSource into a materialized Schedule, copying
// every yielded step. Build* constructors are defined as Collect over
// their Stream* producers.
func Collect(src StepSource) *Schedule {
	s := &Schedule{Algorithm: src.Algorithm(), Ring: src.Ring()}
	for {
		st, ok := src.Next()
		if !ok {
			return s
		}
		out := Step{Phase: st.Phase}
		if len(st.Transfers) > 0 {
			out.Transfers = append([]Transfer(nil), st.Transfers...)
		}
		s.Steps = append(s.Steps, out)
	}
}

// Source adapts a materialized schedule to the StepSource interface
// (zero-copy: the yielded steps alias s.Steps). It lets every streaming
// consumer — ValidateSource, fabric.Engine.RunStream — serve
// materialized schedules through the same code path.
func (s *Schedule) Source() StepSource {
	return &schedSource{s: s}
}

type schedSource struct {
	s *Schedule
	k int
}

func (ss *schedSource) Algorithm() string { return ss.s.Algorithm }
func (ss *schedSource) Ring() topo.Ring   { return ss.s.Ring }

func (ss *schedSource) Next() (*Step, bool) {
	if ss.k >= len(ss.s.Steps) {
		return nil, false
	}
	st := &ss.s.Steps[ss.k]
	ss.k++
	return st, true
}

// NewIndexedSource builds a StepSource over a closed-form step count:
// emit is called with the step index and a cleared buffer (Transfers
// truncated to length zero, capacity retained across steps) and must
// set the phase and append the step's transfers. The collective
// baselines (ring, bt, rd, hring, wdm-hring) stream through this.
func NewIndexedSource(alg string, ring topo.Ring, steps int, emit func(k int, st *Step)) StepSource {
	return &indexedSource{alg: alg, ring: ring, steps: steps, emit: emit}
}

type indexedSource struct {
	alg   string
	ring  topo.Ring
	steps int
	emit  func(k int, st *Step)
	k     int
	buf   Step
}

func (s *indexedSource) Algorithm() string { return s.alg }
func (s *indexedSource) Ring() topo.Ring   { return s.ring }

func (s *indexedSource) Next() (*Step, bool) {
	if s.k >= s.steps {
		return nil, false
	}
	s.buf.Transfers = s.buf.Transfers[:0]
	s.emit(s.k, &s.buf)
	s.k++
	return &s.buf, true
}

// CircuitClass is one interned (chunk, op, direction, wavelength)
// combination shared by many transfers of a compact step. WRHT-family
// steps repeat a handful of classes across thousands of endpoint pairs
// (every group's distance-k member uses wavelength k−1 on the same
// fiber with the same payload), so storing the class once and 12 bytes
// per endpoint replaces ~64 bytes per materialized Transfer.
type CircuitClass struct {
	Chunk      tensor.Chunk
	Op         tensor.ReduceOp
	Dir        topo.Direction
	Wavelength int
}

// Endpoint is one transfer of a compact step: the node pair plus the
// index of its circuit class. Node ids are int32, capping compact
// templates at 2^31 nodes (far above any reachable configuration).
type Endpoint struct {
	Src, Dst int32
	Class    uint32
}

// CompactStep is the interned form of a Step: deduplicated circuit
// classes plus one Endpoint per transfer, in transfer order. Stream
// producers that must retain step templates (the torus row/column
// templates, the WDM-HRing group template) hold CompactSteps and expand
// them per emission, so retained state stays small.
type CompactStep struct {
	Phase     Phase
	Classes   []CircuitClass
	Endpoints []Endpoint
}

// NumTransfers returns the expanded transfer count.
func (c CompactStep) NumTransfers() int { return len(c.Endpoints) }

// chunkEqual reports value equality of two chunk chains (Chunk carries
// a *Chunk Sub pointer, so == would compare pointers, not payloads).
func chunkEqual(a, b tensor.Chunk) bool {
	for {
		if a.Index != b.Index || a.Of != b.Of {
			return false
		}
		if a.Sub == nil || b.Sub == nil {
			return a.Sub == b.Sub
		}
		a, b = *a.Sub, *b.Sub
	}
}

// CompactOf interns a step. Class lookup is a linear scan: compact
// steps are built once per template and real steps carry few distinct
// classes (≤ ⌊m/2⌋ wavelengths × 2 directions for gather steps).
func CompactOf(st Step) CompactStep {
	c := CompactStep{Phase: st.Phase}
	for _, t := range st.Transfers {
		cls := -1
		for i := range c.Classes {
			k := &c.Classes[i]
			if k.Op == t.Op && k.Dir == t.Dir && k.Wavelength == t.Wavelength && chunkEqual(k.Chunk, t.Chunk) {
				cls = i
				break
			}
		}
		if cls < 0 {
			cls = len(c.Classes)
			c.Classes = append(c.Classes, CircuitClass{
				Chunk: t.Chunk, Op: t.Op, Dir: t.Dir, Wavelength: t.Wavelength,
			})
		}
		c.Endpoints = append(c.Endpoints, Endpoint{
			Src: int32(t.Src), Dst: int32(t.Dst), Class: uint32(cls),
		})
	}
	return c
}

// AppendTo appends the expanded transfers to buf, rewriting node ids
// through mapID (nil = identity). Transfer order matches the step
// CompactOf interned.
func (c CompactStep) AppendTo(buf *Step, mapID func(int) int) {
	for _, e := range c.Endpoints {
		k := c.Classes[e.Class]
		src, dst := int(e.Src), int(e.Dst)
		if mapID != nil {
			src, dst = mapID(src), mapID(dst)
		}
		buf.Transfers = append(buf.Transfers, Transfer{
			Src: src, Dst: dst,
			Chunk: k.Chunk, Op: k.Op,
			Dir: k.Dir, Wavelength: k.Wavelength,
		})
	}
}

// ExpandInto resets buf to the compact step's phase and expands into
// it, reusing buf's transfer capacity.
func (c CompactStep) ExpandInto(buf *Step, mapID func(int) int) {
	buf.Phase = c.Phase
	buf.Transfers = buf.Transfers[:0]
	c.AppendTo(buf, mapID)
}

// wrhtStream is the streaming producer behind BuildWRHT and
// BuildWRHTLine: the grouped-gather recursion, emitting one step per
// Next call into a reused buffer. Retained state is the
// participant/level structure (O(N·m/(m−1)) ints — the broadcast stage
// must replay the gather levels in reverse), never the transfers
// themselves. The ring and the line differ only in the top exchange,
// which the stream picks once, when it is built: need is the exchange's
// wavelength requirement among r participants and exchange emits it.
type wrhtStream struct {
	cfg          Config
	alg          string
	m            int
	ring         topo.Ring
	need         func(r int) int
	exchange     func(buf *Step, reps []int)
	participants []int
	levels       [][]group
	phase        int // 0 = reduce, 1 = broadcast, 2 = done
	bcast        int
	buf          Step
	// planSteps/planIdx drive the Config.PlanAllToAll replacement of the
	// gather fallback: the phase plan's steps, emitted one per Next. The
	// line never plans.
	planSteps []Step
	planIdx   int
}

// StreamWRHT returns a streaming producer of the WRHT schedule (§4.1),
// step-for-step and bit-for-bit identical to BuildWRHT's output
// (BuildWRHT is Collect over this source).
func StreamWRHT(cfg Config) (StepSource, error) {
	return newWRHTStream(cfg, false)
}

// newWRHTStream builds the WRHT stream on an N-node ring, or on an
// N-node line (a mesh row or column, §6.1) when line is set. The line
// has no wraparound fiber: its top exchange is the one-stage line
// all-to-all, and it ignores Strategy and PlanAllToAll.
func newWRHTStream(cfg Config, line bool) (StepSource, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ws := &wrhtStream{cfg: cfg, alg: "wrht", m: cfg.EffectiveGroupSize(), ring: topo.NewRing(cfg.N)}
	switch {
	case line:
		ws.alg, ws.need = "wrht-line", LineAllToAllRequirement
		ws.cfg.PlanAllToAll = false
		ws.exchange = func(buf *Step, reps []int) {
			stripedGroupA2AInto(buf, []group{{Members: reps}}, 1, 0)
		}
	case cfg.Strategy == rwa.RandomFit:
		rng := rand.New(rand.NewSource(cfg.Seed))
		ws.need = AllToAllRequirement
		ws.exchange = func(buf *Step, reps []int) {
			*buf = allToAllStep(ws.ring, reps, cfg.Strategy, rng)
		}
	default:
		ws.need = AllToAllRequirement
		ws.exchange = func(buf *Step, reps []int) { stripedRingA2AInto(buf, reps, 1, 0) }
	}
	if cfg.N == 1 {
		ws.phase = 2
		return ws, nil
	}
	ws.participants = make([]int, cfg.N)
	for i := range ws.participants {
		ws.participants[i] = i
	}
	return ws, nil
}

func (ws *wrhtStream) Algorithm() string { return ws.alg }
func (ws *wrhtStream) Ring() topo.Ring   { return ws.ring }

func (ws *wrhtStream) Next() (*Step, bool) {
	switch ws.phase {
	case 0:
		if len(ws.participants) > 1 {
			r := len(ws.participants)
			// The requirement is computed only once r <= m: routing the
			// exchange among all N nodes would cost O(N²) arcs.
			if r <= ws.m && !ws.cfg.DisableAllToAll {
				if ws.need(r) <= ws.cfg.Wavelengths {
					// Final exchange among the surviving representatives;
					// the topmost gather level then needs no broadcast
					// counterpart.
					ws.exchange(&ws.buf, ws.participants)
					ws.phase, ws.bcast = 1, len(ws.levels)-1
					return &ws.buf, true
				}
				if ws.cfg.PlanAllToAll {
					// One-shot all-to-all over budget: carry the exchange
					// over the default multi-round reconfiguration plan
					// instead of gathering to a single root.
					if ws.planSteps == nil {
						plan, ok := DefaultPhasePlan(r, ws.cfg.Wavelengths)
						if ok {
							steps, err := BuildPhaseSteps(ws.ring, ws.participants, plan)
							if err == nil {
								ws.planSteps = steps
							}
						}
					}
					if ws.planIdx < len(ws.planSteps) {
						st := &ws.planSteps[ws.planIdx]
						ws.planIdx++
						if ws.planIdx == len(ws.planSteps) {
							ws.phase, ws.bcast = 1, len(ws.levels)-1
						}
						return st, true
					}
				}
			}
			groups := partition(ws.participants, ws.m)
			gatherStepInto(&ws.buf, groups, tensor.OpSum)
			ws.levels = append(ws.levels, groups)
			next := make([]int, len(groups))
			for i, g := range groups {
				next[i] = g.rep()
			}
			ws.participants = next
			return &ws.buf, true
		}
		ws.phase, ws.bcast = 1, len(ws.levels)-1
		fallthrough
	case 1:
		if ws.bcast >= 0 {
			gatherStepInto(&ws.buf, ws.levels[ws.bcast], tensor.OpCopy)
			ws.bcast--
			return &ws.buf, true
		}
		ws.phase = 2
	}
	return nil, false
}
