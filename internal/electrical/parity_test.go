package electrical

import (
	"fmt"
	"math"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/fabric"
	"wrht/internal/tensor"
	"wrht/internal/topo"
)

// Result is the legacy (pre-engine) outcome shape, kept test-side so
// the parity oracle can compare field by field now that the deprecated
// Network.RunSchedule shim is gone.
type Result struct {
	Algorithm string
	Steps     int
	Time      float64
}

// runSchedule drives fabric.Engine over Network.Fabric the way
// production callers do, converted to the legacy Result shape.
func runSchedule(nw *Network, s *core.Schedule, dBytes float64) (Result, error) {
	r, err := fabric.Engine{Fabric: nw.Fabric()}.RunSchedule(s, dBytes)
	if err != nil {
		return Result{}, err
	}
	return Result{Algorithm: r.Algorithm, Steps: r.Steps, Time: r.Time}, nil
}

// legacyRunSchedule reproduces the pre-engine fat-tree accumulation loop
// (the legacy solver's step times, summed in schedule order) so the
// parity test can assert fabric.Engine changed no result bit.
func legacyRunSchedule(nw *Network, s *core.Schedule, dBytes float64) Result {
	// core.ElemsOf truncates exactly like the historical int(dBytes/4)
	// here, so the oracle's arithmetic is unchanged.
	elems, err := core.ElemsOf(dBytes)
	if err != nil {
		panic(err)
	}
	res := Result{Algorithm: s.Algorithm, Steps: s.NumSteps()}
	for _, st := range s.Steps {
		dur, _ := legacyStepDuration(nw, st, elems)
		res.Time += dur
	}
	return res
}

// legacyFlow is one transfer in flight during a step of the legacy
// solver.
type legacyFlow struct {
	bytes   float64 // remaining payload
	links   []int
	routers []int
	latency float64
	rate    float64
	done    bool
}

// legacyRoute returns src->dst's links and routers as fresh slices.
func legacyRoute(t topo.FatTree, src, dst int) (links, routers []int) {
	p := t.Route(src, dst)
	return append([]int(nil), p.Links[:p.NLinks]...), append([]int(nil), p.Routers[:p.NRouters]...)
}

// legacyStepDuration is the map-based fluid solver the dense one
// replaced, kept verbatim as the differential oracle: repeatedly compute
// max–min fair rates for the unfinished flows, advance to the next flow
// completion, and repeat.
func legacyStepDuration(nw *Network, st core.Step, elems int) (end, drain float64) {
	p := nw.Params
	flows := make([]*legacyFlow, 0, len(st.Transfers))
	for _, t := range st.Transfers {
		b := float64(t.Chunk.Bytes(elems))
		if p.PacketBytes > 0 && b > 0 {
			packets := math.Ceil(b / float64(p.PacketBytes))
			b = packets * float64(p.PacketBytes+p.HeaderBytes)
		}
		links, routers := legacyRoute(nw.Tree, t.Src, t.Dst)
		flows = append(flows, &legacyFlow{
			bytes:   b,
			links:   links,
			routers: routers,
			latency: float64(len(routers)) * p.RouterDelay,
		})
	}
	var now float64
	active := 0
	for _, f := range flows {
		if f.bytes > 0 {
			active++
		} else if f.latency > end {
			end = f.latency // zero-byte flow still pays latency
		}
	}
	for active > 0 {
		legacyFairShare(p, flows)
		// Next completion.
		dt := math.Inf(1)
		for _, f := range flows {
			if f.done || f.rate <= 0 {
				continue
			}
			if t := f.bytes / f.rate; t < dt {
				dt = t
			}
		}
		if math.IsInf(dt, 1) {
			panic("electrical: active flows with zero rate")
		}
		now += dt
		const eps = 1e-9
		for _, f := range flows {
			if f.done {
				continue
			}
			f.bytes -= f.rate * dt
			if f.bytes <= eps*math.Max(1, f.rate*dt) {
				f.bytes = 0
				f.done = true
				active--
				if fin := now + f.latency; fin > end {
					end = fin
				}
			}
		}
	}
	return end, now
}

// legacyFairShare computes max–min fair rates (bytes/s) for the
// unfinished flows by progressive filling over link and router
// constraints held in maps.
func legacyFairShare(p Params, flows []*legacyFlow) {
	type cons struct {
		cap   float64 // remaining capacity, bytes/s
		count int     // unfrozen flows crossing it
	}
	linkCons := map[int]*cons{}
	routerCons := map[int]*cons{}
	for _, f := range flows {
		if f.done {
			continue
		}
		f.rate = 0
		for _, l := range f.links {
			c := linkCons[l]
			if c == nil {
				c = &cons{cap: p.LinkBps / 8}
				linkCons[l] = c
			}
			c.count++
		}
		if p.RouterAggBps > 0 {
			for _, r := range f.routers {
				c := routerCons[r]
				if c == nil {
					c = &cons{cap: p.RouterAggBps / 8}
					routerCons[r] = c
				}
				c.count++
			}
		}
	}
	frozen := func(f *legacyFlow) bool { return f.done || f.rate > 0 }
	for {
		// Find the tightest constraint among those with unfrozen flows.
		bottleneck := math.Inf(1)
		for _, c := range linkCons {
			if c.count > 0 {
				if s := c.cap / float64(c.count); s < bottleneck {
					bottleneck = s
				}
			}
		}
		for _, c := range routerCons {
			if c.count > 0 {
				if s := c.cap / float64(c.count); s < bottleneck {
					bottleneck = s
				}
			}
		}
		if math.IsInf(bottleneck, 1) {
			return // all flows frozen
		}
		// Freeze every unfrozen flow crossing a binding constraint at the
		// bottleneck share.
		progressed := false
		for _, f := range flows {
			if frozen(f) {
				continue
			}
			binding := false
			for _, l := range f.links {
				c := linkCons[l]
				if c.count > 0 && c.cap/float64(c.count) <= bottleneck*(1+1e-12) {
					binding = true
					break
				}
			}
			if !binding && p.RouterAggBps > 0 {
				for _, r := range f.routers {
					c := routerCons[r]
					if c.count > 0 && c.cap/float64(c.count) <= bottleneck*(1+1e-12) {
						binding = true
						break
					}
				}
			}
			if !binding {
				continue
			}
			f.rate = bottleneck
			progressed = true
			for _, l := range f.links {
				c := linkCons[l]
				c.cap -= bottleneck
				c.count--
			}
			if p.RouterAggBps > 0 {
				for _, r := range f.routers {
					c := routerCons[r]
					c.cap -= bottleneck
					c.count--
				}
			}
		}
		if !progressed {
			// Numerical guard: freeze everything at the bottleneck.
			for _, f := range flows {
				if !frozen(f) {
					f.rate = bottleneck
				}
			}
			return
		}
	}
}

// outcome is one solver's answer for a step: its (end, drain) pair, or
// the value it panicked with.
type outcome struct {
	end, drain float64
	panicked   any
}

func solve(fn func() (float64, float64)) (o outcome) {
	defer func() { o.panicked = recover() }()
	o.end, o.drain = fn()
	return o
}

// checkStep demands that the production solver and the legacy oracle
// agree on st exactly: the same end and drain bits, or the same panic.
func checkStep(t *testing.T, nw *Network, st core.Step, elems int, what string) {
	t.Helper()
	got := solve(func() (float64, float64) { return nw.stepDuration(st, elems) })
	want := solve(func() (float64, float64) { return legacyStepDuration(nw, st, elems) })
	if got != want {
		t.Fatalf("%s: dense %+v != legacy %+v", what, got, want)
	}
}

// parityParams are the solver configurations the differential test
// covers: Table 2, the router-aggregate ablation (which Fig 7 never
// reaches) and an unframed variant.
func parityParams() map[string]Params {
	agg := DefaultParams()
	agg.RouterAggBps = 40e9
	tight := DefaultParams()
	tight.RouterAggBps = 7e9
	raw := DefaultParams()
	raw.PacketBytes, raw.HeaderBytes = 0, 0
	return map[string]Params{"table2": DefaultParams(), "agg40": agg, "agg7": tight, "raw": raw}
}

// paritySchedules builds Ring, RD, BT, WRHT and H-Ring at n (RD only at
// powers of two, H-Ring with the first group size of 5, 4, 3, 2 that
// divides n).
func paritySchedules(t *testing.T, n int) map[string]*core.Schedule {
	t.Helper()
	out := map[string]*core.Schedule{
		"ring": collective.BuildRing(n),
		"bt":   collective.BuildBT(n),
	}
	if rd, err := collective.BuildRD(n); err == nil {
		out["rd"] = rd
	}
	for _, w := range []int{8, 64} {
		s, err := core.BuildWRHT(core.Config{N: n, Wavelengths: w})
		if err != nil {
			t.Fatalf("wrht n=%d w=%d: %v", n, w, err)
		}
		out[fmt.Sprintf("wrht-w%d", w)] = s
	}
	for _, m := range []int{5, 4, 3, 2} {
		if n%m == 0 {
			s, err := collective.BuildHRing(n, m, 8)
			if err != nil {
				t.Fatalf("hring n=%d m=%d: %v", n, m, err)
			}
			out["hring"] = s
			break
		}
	}
	return out
}

// planRowSchedules returns the step sequences the electrical plan rows
// price: every uncapped phase plan over r representatives.
func planRowSchedules(t *testing.T, r int) map[string][]core.Step {
	t.Helper()
	ring := topo.NewRing(r)
	reps := make([]int, r)
	for i := range reps {
		reps[i] = i
	}
	out := map[string][]core.Step{}
	for _, p := range core.PhasePlans(r, 0) {
		steps, err := core.BuildPhaseSteps(ring, reps, p)
		if err != nil {
			t.Fatalf("plan r=%d %s: %v", r, p, err)
		}
		out[p.String()] = steps
	}
	return out
}

// TestDenseSolverMatchesLegacy is the differential gate of the dense
// fat-tree solver: every step of every schedule the repo times on the
// fat-tree must cost exactly (==, not within a tolerance) what the
// map-based legacy solver charged, for even and uneven chunk splits,
// zero-byte payloads and with the router-aggregate constraint on.
func TestDenseSolverMatchesLegacy(t *testing.T) {
	// 1000003 elements split unevenly over every N; 25e6 is Fig 7's
	// ResNet-scale payload; 0 makes every transfer zero-byte.
	elemsList := []int{0, 7, 1000003, 25e6}
	for _, n := range []int{15, 16, 33, 128, 256} {
		scheds := paritySchedules(t, n)
		for pname, p := range parityParams() {
			nw := mustNet(t, n, p)
			for sname, s := range scheds {
				for _, elems := range elemsList {
					if n >= 128 && elems == 7 {
						continue // sub-packet payloads are covered at small N
					}
					for k, st := range s.Steps {
						checkStep(t, nw, st, elems, fmt.Sprintf("n=%d %s %s elems=%d step %d", n, pname, sname, elems, k))
					}
				}
			}
		}
	}
	// The electrical plan rows of `wrhtsim plan`.
	for _, r := range []int{8, 16, 32} {
		for pname, p := range parityParams() {
			nw := mustNet(t, r, p)
			for plan, steps := range planRowSchedules(t, r) {
				for k, st := range steps {
					checkStep(t, nw, st, 25e6/4, fmt.Sprintf("plan r=%d %s %s step %d", r, pname, plan, k))
				}
			}
		}
	}
}

// TestDenseSolverMatchesLegacyOnEdgeCases covers the shapes no
// collective emits: self-transfers (zero-byte and not), a zero-byte
// transfer among loaded ones, an empty step and duplicated pairs.
func TestDenseSolverMatchesLegacyOnEdgeCases(t *testing.T) {
	tr := func(src, dst int, c tensor.Chunk) core.Transfer {
		return core.Transfer{Src: src, Dst: dst, Chunk: c, Dir: topo.CW}
	}
	tiny := tensor.Chunk{Index: 0, Of: 1 << 20} // zero bytes at small elems
	steps := map[string]core.Step{
		"empty":          {},
		"self-zero":      {Transfers: []core.Transfer{tr(3, 3, tiny)}},
		"self-loaded":    {Transfers: []core.Transfer{tr(3, 3, tensor.Whole)}},
		"self-among":     {Transfers: []core.Transfer{tr(0, 40, tensor.Whole), tr(5, 5, tiny), tr(1, 2, tensor.Whole)}},
		"zero-among":     {Transfers: []core.Transfer{tr(0, 40, tensor.Whole), tr(9, 50, tiny), tr(1, 2, tensor.Whole)}},
		"duplicates":     {Transfers: []core.Transfer{tr(0, 40, tensor.Whole), tr(0, 40, tensor.Whole), tr(16, 40, tensor.Chunk{Index: 1, Of: 3})}},
		"incast":         {Transfers: []core.Transfer{tr(0, 63, tensor.Whole), tr(17, 63, tensor.Whole), tr(33, 63, tensor.Whole), tr(62, 63, tensor.Whole)}},
		"uneven-fan-out": {Transfers: []core.Transfer{tr(4, 20, tensor.Chunk{Index: 0, Of: 3}), tr(4, 36, tensor.Chunk{Index: 1, Of: 3}), tr(4, 52, tensor.Chunk{Index: 2, Of: 3})}},
	}
	for pname, p := range parityParams() {
		nw := mustNet(t, 64, p)
		for sname, st := range steps {
			for _, elems := range []int{0, 5, 1000003} {
				checkStep(t, nw, st, elems, fmt.Sprintf("%s %s elems=%d", pname, sname, elems))
			}
		}
	}
}

// FuzzFatTreeStep feeds random fat-trees (even radix, host count,
// router-aggregate on or off) and random steps (endpoint pairs, chunk
// splits, payload) to both solvers and demands the same bits or the
// same panic. Each transfer takes five input bytes: a 16-bit source, a
// 16-bit destination and a chunk selector.
func FuzzFatTreeStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, radix uint8, hosts uint16, agg bool, elems uint32, raw []byte) {
		p := DefaultParams()
		p.Radix = 2 * (1 + int(radix)%32)
		if agg {
			p.RouterAggBps = 40e9
		}
		n := 1 + int(hosts)%1024
		nw, err := NewNetwork(n, p)
		if err != nil {
			t.Fatal(err)
		}
		var st core.Step
		for i := 0; i+5 <= len(raw) && len(st.Transfers) < 256; i += 5 {
			src := (int(raw[i])<<8 | int(raw[i+1])) % n
			dst := (int(raw[i+2])<<8 | int(raw[i+3])) % n
			of := 1 + int(raw[i+4])%16
			st.Transfers = append(st.Transfers, core.Transfer{
				Src: src, Dst: dst, Dir: topo.CW,
				Chunk: tensor.Chunk{Index: int(raw[i+4]>>4) % of, Of: of},
			})
		}
		checkStep(t, nw, st, int(elems%(1<<26)), fmt.Sprintf("radix=%d n=%d agg=%v", p.Radix, n, agg))
	})
}

func TestScheduleEngineMatchesLegacyBitForBit(t *testing.T) {
	nw, err := NewNetwork(64, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	schedules := map[string]*core.Schedule{
		"ring": collective.BuildRing(32),
		"bt":   collective.BuildBT(32),
	}
	if s, err := core.BuildWRHT(core.Config{N: 64, Wavelengths: 8}); err != nil {
		t.Fatal(err)
	} else {
		schedules["wrht"] = s
	}
	if s, err := collective.BuildRD(32); err != nil {
		t.Fatal(err)
	} else {
		schedules["rd"] = s
	}
	for name, s := range schedules {
		for _, dBytes := range []float64{4e3, 1e6} {
			want := legacyRunSchedule(nw, s, dBytes)
			got, err := runSchedule(nw, s, dBytes)
			if err != nil {
				t.Fatalf("%s d=%g: %v", name, dBytes, err)
			}
			if got != want {
				t.Errorf("%s d=%g: engine %+v != legacy %+v", name, dBytes, got, want)
			}
		}
	}
}

func TestScheduleEngineKeepsHostCheck(t *testing.T) {
	nw, err := NewNetwork(16, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSchedule(nw, collective.BuildRing(32), 1e6); err == nil {
		t.Fatal("32-host schedule accepted on a 16-host network")
	}
}

func TestStepCostSplitsDrainAndRouterTail(t *testing.T) {
	nw, err := NewNetwork(32, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := collective.BuildRing(32)
	f := nw.Fabric()
	c := f.StepCost(s.Steps[0], 1<<20)
	if c.Setup != 0 {
		t.Errorf("packet-switched step has circuit setup %g", c.Setup)
	}
	if c.Serialization <= 0 || c.RouterDelay <= 0 {
		t.Errorf("expected positive drain and router tail, got %+v", c)
	}
	if diff := c.Total - (c.Serialization + c.RouterDelay); diff > 1e-12*c.Total || diff < -1e-12*c.Total {
		t.Errorf("Total %g != drain %g + tail %g", c.Total, c.Serialization, c.RouterDelay)
	}
}
