package electrical

import (
	"math"
	"sync"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

func mustNet(t *testing.T, n int, p Params) *Network {
	t.Helper()
	nw, err := NewNetwork(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// oneFlowStep builds a single-transfer schedule step.
func oneFlowStep(src, dst int, chunk tensor.Chunk) *core.Schedule {
	return &core.Schedule{
		Algorithm: "single",
		Ring:      topo.NewRing(max(src, dst) + 1),
		Steps: []core.Step{{
			Transfers: []core.Transfer{{Src: src, Dst: dst, Chunk: chunk, Dir: topo.CW}},
		}},
	}
}

func TestSingleIntraEdgeFlow(t *testing.T) {
	p := DefaultParams()
	nw := mustNet(t, 32, p)
	d := 40e6 * 4 // bytes; one flow of full vector
	res, err := runSchedule(nw, oneFlowStep(0, 1, tensor.Whole), d)
	if err != nil {
		t.Fatal(err)
	}
	// Wire bytes include per-packet headers: d/72 packets of 72+58 B.
	wire := d / 72 * 130
	want := wire*8/p.LinkBps + p.RouterDelay // serialization + 1 router
	if math.Abs(res.Time-want)/want > 1e-6 {
		t.Fatalf("time = %.9f, want %.9f", res.Time, want)
	}
}

func TestHeaderOverheadRatio(t *testing.T) {
	// Removing the header overhead must speed a flow up by exactly
	// (72+58)/72.
	withH := DefaultParams()
	noH := DefaultParams()
	noH.HeaderBytes = 0
	d := 72e4
	a, err := runSchedule(mustNet(t, 32, withH), oneFlowStep(0, 1, tensor.Whole), d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSchedule(mustNet(t, 32, noH), oneFlowStep(0, 1, tensor.Whole), d)
	if err != nil {
		t.Fatal(err)
	}
	gotRatio := (a.Time - withH.RouterDelay) / (b.Time - noH.RouterDelay)
	if math.Abs(gotRatio-130.0/72) > 1e-6 {
		t.Fatalf("header overhead ratio = %g, want %g", gotRatio, 130.0/72)
	}
}

func TestInterEdgeFlowPaysThreeRouters(t *testing.T) {
	p := DefaultParams()
	nw := mustNet(t, 64, p)
	d := 1e6
	intra, _ := runSchedule(nw, oneFlowStep(0, 1, tensor.Whole), d)
	inter, _ := runSchedule(nw, oneFlowStep(0, 63, tensor.Whole), d)
	diff := inter.Time - intra.Time
	if math.Abs(diff-2*p.RouterDelay) > 1e-9 {
		t.Fatalf("inter-intra latency gap = %.9f, want 2×25µs", diff)
	}
}

func TestRouterAggregateSharing(t *testing.T) {
	// 16 hosts of one edge all send to their CW neighbour: all flows
	// traverse the one edge router, so with a 40 Gb/s aggregate each flow
	// gets 1/16 of it and the step takes ~16× the unconstrained time.
	p := DefaultParams()
	p.RouterAggBps = 40e9 // oversubscription ablation
	nw := mustNet(t, 16, p)
	st := core.Step{}
	for i := 0; i < 15; i++ {
		st.Transfers = append(st.Transfers, core.Transfer{Src: i, Dst: i + 1, Chunk: tensor.Whole, Dir: topo.CW})
	}
	s := &core.Schedule{Algorithm: "x", Ring: topo.NewRing(16), Steps: []core.Step{st}}
	d := 15e6 * 4
	res, err := runSchedule(nw, s, d)
	if err != nil {
		t.Fatal(err)
	}
	// All 15 flows share the router: aggregate drain = 15·d wire bytes
	// (payload + headers) at 40 Gb/s plus latency.
	want := 15*(d/72*130)*8/p.RouterAggBps + p.RouterDelay
	if math.Abs(res.Time-want)/want > 0.01 {
		t.Fatalf("time = %.6f, want ≈ %.6f", res.Time, want)
	}
}

func TestFairShareMaxMin(t *testing.T) {
	// Without the router constraint, two flows sharing one uplink split
	// it; a third disjoint flow gets the full link.
	p := DefaultParams()
	nw := mustNet(t, 64, p)
	st := core.Step{Transfers: []core.Transfer{
		{Src: 0, Dst: 32, Chunk: tensor.Whole, Dir: topo.CW},  // edge0->edge2 via uplink 0
		{Src: 16, Dst: 33, Chunk: tensor.Whole, Dir: topo.CW}, // edge1->edge2, separate uplink
	}}
	s := &core.Schedule{Algorithm: "x", Ring: topo.NewRing(64), Steps: []core.Step{st}}
	d := 4e6
	res, err := runSchedule(nw, s, d)
	if err != nil {
		t.Fatal(err)
	}
	// The two flows land on different destination-edge downlinks and
	// different uplinks: both run at line rate (wire bytes incl headers).
	want := (d/72*130)*8/p.LinkBps + 3*p.RouterDelay
	if math.Abs(res.Time-want)/want > 0.01 {
		t.Fatalf("time = %.6f, want %.6f", res.Time, want)
	}
}

func TestERingSlowerThanORingModel(t *testing.T) {
	// Fig 7's headline: Ring on the electrical fat-tree is slower than
	// the same Ring schedule on the optical ring model, because every
	// hop pays routing and the router aggregate is shared.
	n := 128
	sched := collective.BuildRing(n)
	nw := mustNet(t, n, DefaultParams())
	d := 100e6
	eres, err := runSchedule(nw, sched, d)
	if err != nil {
		t.Fatal(err)
	}
	// Optical comparison value via Eq 6: 2(N−1) steps of d/N.
	tp := core.TimeParams{BytesPerSec: 5e9, StepOverheadSec: 25e-6}
	oring := tp.ProfileTime(collective.RingProfile(n), d)
	if eres.Time <= oring {
		t.Fatalf("E-Ring %.6f should exceed O-Ring %.6f", eres.Time, oring)
	}
}

func TestRepeatedScheduleDoublesTime(t *testing.T) {
	// Identical repeated steps must not change totals: running the same
	// schedule twice gives exactly double the one-run time.
	n := 16
	sched := collective.BuildRing(n)
	nw := mustNet(t, n, DefaultParams())
	d := 16e4
	once, err := runSchedule(nw, sched, d)
	if err != nil {
		t.Fatal(err)
	}
	double := &core.Schedule{Algorithm: "ring2", Ring: sched.Ring, Steps: append(append([]core.Step{}, sched.Steps...), sched.Steps...)}
	twice, err := runSchedule(nw, double, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(twice.Time-2*once.Time)/once.Time > 1e-9 {
		t.Fatalf("double run %.9f != 2×%.9f", twice.Time, once.Time)
	}
}

// TestConcurrentRunsShareOneNetwork: Fig 7 times every model on one
// Network per N from all its workers, so concurrent runs borrowing the
// pooled scratch must each get exactly the sequential answer.
func TestConcurrentRunsShareOneNetwork(t *testing.T) {
	p := DefaultParams()
	p.RouterAggBps = 40e9
	nw := mustNet(t, 64, p)
	rd, err := collective.BuildRD(64)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []*core.Schedule{collective.BuildRing(64), rd, collective.BuildBT(64)}
	payloads := []float64{4e3, 1e6, 25e6 + 12}
	want := make([]Result, len(scheds)*len(payloads))
	for i := range want {
		if want[i], err = runSchedule(nw, scheds[i/len(payloads)], payloads[i%len(payloads)]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range want {
				i := (k + g) % len(want) // each goroutine starts elsewhere
				got, err := runSchedule(nw, scheds[i/len(payloads)], payloads[i%len(payloads)])
				if err != nil || got != want[i] {
					t.Errorf("goroutine %d run %d: %+v, %v; want %+v", g, i, got, err, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStepCostAllocatesNothing pins the dense solver's steady state:
// once the network's pooled scratch is warm, timing a step allocates
// nothing, with and without the router-aggregate constraints.
func TestStepCostAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	const n, elems = 256, 25e6
	rd, err := collective.BuildRD(n)
	if err != nil {
		t.Fatal(err)
	}
	wrht, err := core.BuildWRHT(core.Config{N: n, Wavelengths: 8})
	if err != nil {
		t.Fatal(err)
	}
	steps := []core.Step{collective.BuildRing(n).Steps[0], rd.Steps[rd.NumSteps()/2-1], wrht.Steps[0]}
	for _, agg := range []float64{0, 40e9} {
		p := DefaultParams()
		p.RouterAggBps = agg
		f := mustNet(t, n, p).Fabric()
		allocs := testing.AllocsPerRun(20, func() {
			for _, st := range steps {
				f.StepCost(st, elems)
			}
		})
		if allocs != 0 {
			t.Errorf("RouterAggBps=%g: %.0f allocations per StepCost round, want 0", agg, allocs)
		}
	}
}

func TestZeroByteFlowPaysLatencyOnly(t *testing.T) {
	p := DefaultParams()
	nw := mustNet(t, 32, p)
	// A chunk of an empty vector has zero bytes.
	res, err := runSchedule(nw, oneFlowStep(0, 1, tensor.Whole), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Time-p.RouterDelay) > 1e-12 {
		t.Fatalf("zero-byte flow time = %g, want router delay", res.Time)
	}
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(0, DefaultParams()); err == nil {
		t.Fatal("0 hosts accepted")
	}
	for name, mut := range map[string]func(*Params){
		"radix 1":              func(p *Params) { p.Radix = 1 },
		"odd radix":            func(p *Params) { p.Radix = 31 },
		"zero link rate":       func(p *Params) { p.LinkBps = 0 },
		"infinite link rate":   func(p *Params) { p.LinkBps = math.Inf(1) },
		"NaN link rate":        func(p *Params) { p.LinkBps = math.NaN() },
		"negative router rate": func(p *Params) { p.RouterAggBps = -1 },
		"NaN router rate":      func(p *Params) { p.RouterAggBps = math.NaN() },
		"negative delay":       func(p *Params) { p.RouterDelay = -25e-6 },
		"NaN delay":            func(p *Params) { p.RouterDelay = math.NaN() },
		"infinite delay":       func(p *Params) { p.RouterDelay = math.Inf(1) },
		"negative packet":      func(p *Params) { p.PacketBytes = -72 },
		"negative header":      func(p *Params) { p.HeaderBytes = -58 },
	} {
		p := DefaultParams()
		mut(&p)
		if _, err := NewNetwork(4, p); err == nil {
			t.Errorf("%s accepted: %+v", name, p)
		}
	}
	// The edges of the valid range stay accepted.
	p := DefaultParams()
	p.Radix, p.RouterAggBps, p.RouterDelay, p.PacketBytes, p.HeaderBytes = 2, 0, 0, 0, 0
	if _, err := NewNetwork(4, p); err != nil {
		t.Errorf("minimal valid params rejected: %v", err)
	}
}

func TestScheduleTooLargeRejected(t *testing.T) {
	nw := mustNet(t, 16, DefaultParams())
	if _, err := runSchedule(nw, collective.BuildRing(32), 1e3); err == nil {
		t.Fatal("oversized schedule accepted")
	}
}
