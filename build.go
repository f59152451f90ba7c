package wrht

import (
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/fault"
	"wrht/internal/phys"
	"wrht/internal/topo"
)

// Kind selects the collective a Build call constructs.
type Kind string

const (
	// KindWRHT is the paper's hierarchical-tree all-reduce (§4.1).
	KindWRHT Kind = "wrht"
	// KindRing is the classic ring all-reduce (§5.2).
	KindRing Kind = "ring"
	// KindBT is the binary-tree all-reduce (§5.2).
	KindBT Kind = "bt"
	// KindRD is recursive halving/doubling (§5.2); needs a power-of-two N.
	KindRD Kind = "rd"
	// KindDBTree is the double binary tree of [25] (NCCL's algorithm).
	KindDBTree Kind = "dbtree"
	// KindHRing is the hierarchical ring; WithGroupSize sets the group
	// size m (must divide N) and WithWavelengths the budget.
	KindHRing Kind = "hring"
	// KindWDMHRing is the beyond-paper WDM-enhanced hierarchical ring.
	KindWDMHRing Kind = "wdmhring"
	// KindTorus is WRHT on an R×C torus (§6.1); WithDims sets R and C.
	KindTorus Kind = "torus"
	// KindMesh is WRHT on an R×C mesh (§6.1); WithDims sets R and C.
	KindMesh Kind = "mesh"
	// KindSegment is WRHT among an ascending subset of ring positions
	// (§6.2); n is the full ring size and WithParticipants the subset.
	KindSegment Kind = "segment"
	// KindBroadcast is the WRHT-style broadcast; WithRoot sets the root.
	KindBroadcast Kind = "broadcast"
	// KindReduce is the WRHT-style reduction; WithRoot sets the root.
	KindReduce Kind = "reduce"
	// KindReduceScatter is the ring reduce-scatter.
	KindReduceScatter Kind = "reduce-scatter"
	// KindAllGather is the ring all-gather.
	KindAllGather Kind = "all-gather"
)

// buildSpec accumulates the functional options of one Build call. Each
// option records its name so Build can reject options the chosen kind
// does not consume — a silent no-op option is almost always a caller
// bug.
type buildSpec struct {
	set          map[string]bool
	wavelengths  int
	groupSize    int
	maxGroupSize int
	faults       *fault.Mask
	budget       phys.Budget
	rows, cols   int
	participants []int
	root         int
	noAllToAll   bool
}

// BuildOption configures Build.
type BuildOption func(*buildSpec)

func (bs *buildSpec) mark(name string) {
	if bs.set == nil {
		bs.set = map[string]bool{}
	}
	bs.set[name] = true
}

// WithWavelengths sets the per-waveguide wavelength budget w.
func WithWavelengths(w int) BuildOption {
	return func(bs *buildSpec) { bs.mark("WithWavelengths"); bs.wavelengths = w }
}

// WithGroupSize sets the grouped-node count m explicitly (zero selects
// the step-optimal m = 2w+1 for WRHT kinds; HRing and WDMHRing require
// it and need m | n).
func WithGroupSize(m int) BuildOption {
	return func(bs *buildSpec) { bs.mark("WithGroupSize"); bs.groupSize = m }
}

// WithMaxGroupSize clamps the group size to the §4.4
// insertion-loss/crosstalk bound m' (see MaxGroupSize to derive it from
// a Budget, or WithBudget to have Build derive it).
func WithMaxGroupSize(m int) BuildOption {
	return func(bs *buildSpec) { bs.mark("WithMaxGroupSize"); bs.maxGroupSize = m }
}

// WithBudget folds the §4.4 optical link budget into the construction:
// Build derives the MaxGroupSize clamp from it (tightened by any
// degraded-loss MRRs when combined with WithFaults).
func WithBudget(b Budget) BuildOption {
	return func(bs *buildSpec) { bs.mark("WithBudget"); bs.budget = b }
}

// WithFaults builds the schedule under a fault mask (degraded mode):
// dead wavelengths shrink the effective budget, failed nodes are
// excluded with representative re-election, cut segments and failed
// transceivers are routed around, and degraded-loss MRRs tighten the
// link budget (WithBudget, or the default TeraRack budget). An empty
// mask is bit-identical to the healthy construction.
func WithFaults(m *FaultMask) BuildOption {
	return func(bs *buildSpec) { bs.mark("WithFaults"); bs.faults = m }
}

// WithDims sets the torus/mesh dimensions R×C (R·C must equal n).
func WithDims(r, c int) BuildOption {
	return func(bs *buildSpec) { bs.mark("WithDims"); bs.rows, bs.cols = r, c }
}

// WithParticipants sets the ascending ring positions of a segment
// collective.
func WithParticipants(positions ...int) BuildOption {
	return func(bs *buildSpec) { bs.mark("WithParticipants"); bs.participants = positions }
}

// WithRoot sets the root node of a broadcast or reduction.
func WithRoot(r int) BuildOption {
	return func(bs *buildSpec) { bs.mark("WithRoot"); bs.root = r }
}

// WithoutAllToAll forces WRHT's final reduce step to gather to a single
// root even when the budget would allow the all-to-all exchange
// (θ = 2⌈log_m N⌉ instead of 2⌈log_m N⌉−1; the ablation configuration).
func WithoutAllToAll() BuildOption {
	return func(bs *buildSpec) { bs.mark("WithoutAllToAll"); bs.noAllToAll = true }
}

// buildAccepts lists, per kind, which options Build consumes.
var buildAccepts = map[Kind][]string{
	KindWRHT:          {"WithWavelengths", "WithGroupSize", "WithMaxGroupSize", "WithBudget", "WithFaults", "WithoutAllToAll"},
	KindRing:          {},
	KindBT:            {},
	KindRD:            {},
	KindDBTree:        {},
	KindHRing:         {"WithWavelengths", "WithGroupSize"},
	KindWDMHRing:      {"WithWavelengths", "WithGroupSize"},
	KindTorus:         {"WithWavelengths", "WithGroupSize", "WithDims"},
	KindMesh:          {"WithWavelengths", "WithGroupSize", "WithDims"},
	KindSegment:       {"WithWavelengths", "WithGroupSize", "WithParticipants"},
	KindBroadcast:     {"WithWavelengths", "WithRoot"},
	KindReduce:        {"WithWavelengths", "WithRoot"},
	KindReduceScatter: {},
	KindAllGather:     {},
}

// Build is the single schedule-construction entrypoint: it builds the
// kind's collective for n nodes under the given options.
//
//	s, err := wrht.Build(wrht.KindWRHT, 1024, wrht.WithWavelengths(64))
//	s, err := wrht.Build(wrht.KindTorus, 1024, wrht.WithDims(32, 32), wrht.WithWavelengths(8))
//	s, err := wrht.Build(wrht.KindWRHT, 64, wrht.WithWavelengths(8),
//	        wrht.WithFaults(wrht.NewFaultMask(64).KillWavelength(3)))
//
// Options the chosen kind does not consume are an error, so a
// misdirected option can never silently no-op.
func Build(kind Kind, n int, opts ...BuildOption) (*Schedule, error) {
	var bs buildSpec
	for _, o := range opts {
		o(&bs)
	}
	accepted, ok := buildAccepts[kind]
	if !ok {
		return nil, fmt.Errorf("wrht: unknown collective kind %q", kind)
	}
	for name := range bs.set {
		found := false
		for _, a := range accepted {
			if a == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("wrht: option %s is not consumed by kind %q", name, kind)
		}
	}
	switch kind {
	case KindWRHT:
		return buildWRHT(n, bs)
	case KindRing:
		return collective.BuildRing(n), nil
	case KindBT:
		return collective.BuildBT(n), nil
	case KindRD:
		return collective.BuildRD(n)
	case KindDBTree:
		return collective.BuildDBTree(n), nil
	case KindHRing:
		return collective.BuildHRing(n, bs.groupSize, bs.wavelengths)
	case KindWDMHRing:
		return collective.BuildWDMHRing(n, bs.groupSize, bs.wavelengths)
	case KindTorus, KindMesh:
		if !bs.set["WithDims"] {
			return nil, fmt.Errorf("wrht: kind %q needs WithDims(r, c)", kind)
		}
		if bs.rows < 1 || bs.cols < 1 {
			return nil, fmt.Errorf("wrht: %s WithDims(%d, %d) needs at least one row and one column", kind, bs.rows, bs.cols)
		}
		if bs.rows*bs.cols != n {
			return nil, fmt.Errorf("wrht: %dx%d %s has %d nodes, Build was given n=%d",
				bs.rows, bs.cols, kind, bs.rows*bs.cols, n)
		}
		if kind == KindTorus {
			return core.BuildWRHTTorus(topo.NewTorus(bs.rows, bs.cols), bs.wavelengths, bs.groupSize)
		}
		return core.BuildWRHTMesh(topo.NewMesh(bs.rows, bs.cols), bs.wavelengths, bs.groupSize)
	case KindSegment:
		if !bs.set["WithParticipants"] {
			return nil, fmt.Errorf("wrht: kind %q needs WithParticipants", kind)
		}
		return core.BuildWRHTSegment(n, bs.participants, bs.wavelengths, bs.groupSize)
	case KindBroadcast:
		return collective.BuildBroadcast(n, bs.wavelengths, bs.root)
	case KindReduce:
		return collective.BuildReduce(n, bs.wavelengths, bs.root)
	case KindReduceScatter:
		return collective.BuildReduceScatter(n), nil
	case KindAllGather:
		return collective.BuildAllGather(n), nil
	}
	return nil, fmt.Errorf("wrht: unknown collective kind %q", kind)
}

// buildWRHT assembles the core.Config for the WRHT kind, folding the
// link budget and fault mask into the MaxGroupSize clamp, and
// dispatches to the healthy or degraded construction.
func buildWRHT(n int, bs buildSpec) (*Schedule, error) {
	cfg := core.Config{
		N:               n,
		Wavelengths:     bs.wavelengths,
		GroupSize:       bs.groupSize,
		MaxGroupSize:    bs.maxGroupSize,
		DisableAllToAll: bs.noAllToAll,
	}
	_, _, _, _, mrrs := bs.faults.Counts()
	if bs.set["WithBudget"] || mrrs > 0 {
		b := bs.budget
		if !bs.set["WithBudget"] {
			b = phys.DefaultBudget()
		}
		// The clamp cap is the Lemma-1 optimum 2w+1: a larger m is never
		// selected, so a looser bound must not override a caller's
		// explicit WithMaxGroupSize.
		mp := bs.faults.MaxGroupSize(b, n, 2*bs.wavelengths+1)
		if cfg.MaxGroupSize == 0 || mp < cfg.MaxGroupSize {
			cfg.MaxGroupSize = mp
		}
	}
	if bs.faults.Empty() {
		return core.BuildWRHT(cfg)
	}
	return core.BuildWRHTMasked(cfg, bs.faults)
}
