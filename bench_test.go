// Package wrht_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus ablation benches for the design
// choices DESIGN.md calls out. Each benchmark prints the reproduced rows
// once and reports the headline reduction percentages as custom metrics,
// so a bench run is a full reproduction pass.
package wrht_test

import (
	"fmt"
	"sync"
	"testing"

	"wrht"
	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/exp"
	"wrht/internal/fabric"
	"wrht/internal/optical"
	"wrht/internal/parallel"
	"wrht/internal/phys"
	"wrht/internal/rwa"
	"wrht/internal/topo"
	"wrht/internal/workload"
)

// once-guards so the tables print a single time however many benchmark
// iterations run.
var printOnce sync.Map

func printFirst(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// BenchmarkTable1Steps regenerates Table 1 (communication step counts at
// N=1024, w=64) and measures the cost of computing it.
func BenchmarkTable1Steps(b *testing.B) {
	t1, err := exp.Table1()
	if err != nil {
		b.Fatal(err)
	}
	printFirst("table1", func() { b.Log("\n" + t1.String()) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t, err := exp.Table1(); err != nil || t == nil {
			b.Fatal("table1:", err)
		}
	}
}

// BenchmarkFig4GroupedNodes regenerates Figure 4 (grouped-node sweep).
func BenchmarkFig4GroupedNodes(b *testing.B) {
	o := exp.Defaults()
	for i := 0; i < b.N; i++ {
		fig, err := exp.Fig4(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) != 4 {
			b.Fatal("unexpected series count")
		}
		printFirst("fig4", func() { b.Log("\n" + fig.String()) })
	}
}

// BenchmarkFig5Wavelengths regenerates Figure 5 (wavelength sweep) and
// reports the mean reductions as custom metrics (paper: 13.74%, 9.29%,
// 75% for Ring, H-Ring, BT).
func BenchmarkFig5Wavelengths(b *testing.B) {
	o := exp.Defaults()
	var r exp.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = exp.Fig5(o); err != nil {
			b.Fatal(err)
		}
	}
	printFirst("fig5", func() {
		for _, f := range r.Figures {
			b.Log("\n" + f.String())
		}
	})
	b.ReportMetric(r.VsRing, "pct-vs-ring")
	b.ReportMetric(r.VsHRing, "pct-vs-hring")
	b.ReportMetric(r.VsBT, "pct-vs-bt")
}

// BenchmarkFig6NodeScaling regenerates Figure 6 (node scaling; paper
// headline: 65.23%, 43.81%, 82.22%) in both granularities.
func BenchmarkFig6NodeScaling(b *testing.B) {
	for _, g := range []exp.Granularity{exp.Fused, exp.Bucketed} {
		g := g
		b.Run(g.String(), func(b *testing.B) {
			o := exp.Defaults()
			o.Granularity = g
			var r exp.Fig6Result
			var err error
			for i := 0; i < b.N; i++ {
				if r, err = exp.Fig6(o); err != nil {
					b.Fatal(err)
				}
			}
			printFirst("fig6-"+g.String(), func() {
				for _, f := range r.Figures {
					b.Log("\n" + f.String())
				}
			})
			b.ReportMetric(r.VsRing, "pct-vs-ring")
			b.ReportMetric(r.VsHRing, "pct-vs-hring")
			b.ReportMetric(r.VsBT, "pct-vs-bt")
		})
	}
}

// BenchmarkFig7OpticalVsElectrical regenerates Figure 7 (paper headline:
// O-Ring −48.74% vs E-Ring; WRHT −61.23%/−55.51% vs E-Ring/E-RD). The
// electrical flow simulation dominates the runtime.
func BenchmarkFig7OpticalVsElectrical(b *testing.B) {
	o := exp.Defaults()
	var r exp.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = exp.Fig7(o); err != nil {
			b.Fatal(err)
		}
	}
	printFirst("fig7", func() {
		for _, f := range r.Figures {
			b.Log("\n" + f.String())
		}
	})
	b.ReportMetric(r.ORingVsERing, "pct-oring-vs-ering")
	b.ReportMetric(r.WRHTVsERing, "pct-wrht-vs-ering")
	b.ReportMetric(r.WRHTVsERD, "pct-wrht-vs-erd")
}

// BenchmarkConstraints regenerates the §4.4 feasible-group-size table.
func BenchmarkConstraints(b *testing.B) {
	printFirst("constraints", func() { b.Log("\n" + exp.Constraints().String()) })
	for i := 0; i < b.N; i++ {
		if exp.Constraints() == nil {
			b.Fatal("nil table")
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationAllToAll quantifies the final all-to-all step's value:
// θ = 2⌈log_m N⌉−1 with it versus 2⌈log_m N⌉ without (and the time delta
// on a BEiT-class gradient).
func BenchmarkAblationAllToAll(b *testing.B) {
	p := optical.DefaultParams()
	d := float64(dnn.BEiTLarge().GradBytes())
	var with, without float64
	for i := 0; i < b.N; i++ {
		on, err := collective.WRHTProfile(core.Config{N: 1024, Wavelengths: 64})
		if err != nil {
			b.Fatal(err)
		}
		off, err := collective.WRHTProfile(core.Config{N: 1024, Wavelengths: 64, DisableAllToAll: true})
		if err != nil {
			b.Fatal(err)
		}
		ron, _ := wrht.Simulate(wrht.Optical, on, d, wrht.WithOpticalParams(p))
		roff, _ := wrht.Simulate(wrht.Optical, off, d, wrht.WithOpticalParams(p))
		with, without = ron.Time, roff.Time
	}
	printFirst("abl-a2a", func() {
		b.Logf("all-to-all on: %.4fs (θ=3); off: %.4fs (θ=4); saving %.1f%%",
			with, without, 100*(1-with/without))
	})
	b.ReportMetric(100*(1-with/without), "pct-saving")
}

// BenchmarkAblationRWAStrategy compares first-fit (tiling construction)
// against random-fit wavelength counts on the all-to-all step.
func BenchmarkAblationRWAStrategy(b *testing.B) {
	var ff, rf int
	for i := 0; i < b.N; i++ {
		sf, err := core.BuildWRHT(core.Config{N: 300, Wavelengths: 8})
		if err != nil {
			b.Fatal(err)
		}
		sr, err := core.BuildWRHT(core.Config{N: 300, Wavelengths: 8, Strategy: rwa.RandomFit, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		ff, rf = sf.WavelengthsNeeded(), sr.WavelengthsNeeded()
	}
	printFirst("abl-rwa", func() {
		b.Logf("wavelengths needed: first-fit/tiling %d, random-fit %d", ff, rf)
	})
	b.ReportMetric(float64(ff), "ff-wavelengths")
	b.ReportMetric(float64(rf), "rf-wavelengths")
}

// BenchmarkAblationGranularity compares fused vs bucketed all-reduce
// timing for every workload on the 1024-node ring (the model-reading
// ablation DESIGN.md §5 documents).
func BenchmarkAblationGranularity(b *testing.B) {
	p := optical.DefaultParams()
	f, err := p.Fabric()
	if err != nil {
		b.Fatal(err)
	}
	eng := fabric.Engine{Fabric: f}
	prof, err := collective.WRHTProfile(core.Config{N: 1024, Wavelengths: 64})
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]string, 0, 4)
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, m := range dnn.Workloads() {
			fused, err := eng.RunProfile(prof, float64(m.GradBytes()))
			if err != nil {
				b.Fatal(err)
			}
			bucketed, err := eng.RunBuckets(prof, m.Buckets(exp.BucketBytes))
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("%s fused %.4fs bucketed %.4fs (+%.2f%% overhead)",
				m.Name, fused.Time, bucketed.Time, 100*(bucketed.Time/fused.Time-1)))
		}
	}
	printFirst("abl-gran", func() {
		for _, r := range rows {
			b.Log(r)
		}
	})
}

// BenchmarkAblationTorus compares the flat-ring and torus WRHT variants
// under scarce wavelengths: steps and worst-case circuit length.
func BenchmarkAblationTorus(b *testing.B) {
	var flat, torus int
	for i := 0; i < b.N; i++ {
		st, err := core.StepsWRHT(core.Config{N: 1024, Wavelengths: 4})
		if err != nil {
			b.Fatal(err)
		}
		flat = st.Total
		ts, err := core.StepsWRHTTorus(topoTorus(), 4, 0)
		if err != nil {
			b.Fatal(err)
		}
		torus = ts
	}
	printFirst("abl-torus", func() {
		b.Logf("θ flat ring (N=1024, w=4): %d; θ 32x32 torus: %d", flat, torus)
	})
	b.ReportMetric(float64(flat), "flat-steps")
	b.ReportMetric(float64(torus), "torus-steps")
}

// BenchmarkScheduleConstruction measures BuildWRHT itself at paper scale.
func BenchmarkScheduleConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := core.BuildWRHT(core.Config{N: 4096, Wavelengths: 64})
		if err != nil {
			b.Fatal(err)
		}
		if s.NumSteps() == 0 {
			b.Fatal("empty schedule")
		}
	}
}

func topoTorus() topo.Torus { return topo.NewTorus(32, 32) }

// BenchmarkExtrasComparison regenerates the beyond-paper six-algorithm
// table (time, wavelength feasibility, energy) at the Table-1 setting.
func BenchmarkExtrasComparison(b *testing.B) {
	o := exp.Defaults()
	for i := 0; i < b.N; i++ {
		t, err := exp.Extras(o, dnn.ResNet50(), 1024, 64)
		if err != nil || t == nil {
			b.Fatal("extras:", err)
		}
		printFirst("extras", func() { b.Log("\n" + t.String()) })
	}
}

// BenchmarkHybridParallel regenerates the §6.2 hybrid pipeline×data
// sweep for BEiT-L on 64 nodes.
func BenchmarkHybridParallel(b *testing.B) {
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, p := range []int{1, 2, 4, 8} {
			sim := parallel.Sim{
				Model:          dnn.BEiTLarge(),
				Strat:          parallel.Strategy{Stages: p, Replicas: 64 / p},
				Microbatches:   8,
				MicrobatchSize: 2,
				GPU:            workload.TitanXP(),
				Optical:        optical.DefaultParams(),
			}
			res, err := sim.Run()
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("P=%d D=%d: pipeline %.1fms bubble %.1fms allreduce %.1fms total %.1fms",
				p, 64/p, res.PipelineSec*1e3, res.BubbleSec*1e3, res.AllReduceSec*1e3, res.TotalSec*1e3))
		}
	}
	printFirst("hybrid", func() {
		for _, r := range rows {
			b.Log(r)
		}
	})
}

// BenchmarkEnergyModel reports the per-collective communication energy
// at the Table-1 setting (ResNet50 gradient).
func BenchmarkEnergyModel(b *testing.B) {
	p := optical.DefaultParams()
	ep := optical.DefaultEnergyParams(phys.DefaultBudget())
	d := float64(dnn.ResNet50().GradBytes())
	var ringE, wrhtE float64
	for i := 0; i < b.N; i++ {
		prof, err := collective.WRHTProfile(core.Config{N: 1024, Wavelengths: 64})
		if err != nil {
			b.Fatal(err)
		}
		ringE = optical.EnergyOfProfile(p, ep, collective.RingProfile(1024), d).Total()
		wrhtE = optical.EnergyOfProfile(p, ep, prof, d).Total()
	}
	printFirst("energy", func() {
		b.Logf("communication energy, ResNet50 @ N=1024: Ring %.4f J, WRHT %.4f J", ringE, wrhtE)
	})
	b.ReportMetric(ringE, "ring-J")
	b.ReportMetric(wrhtE, "wrht-J")
}

// BenchmarkDataPlaneAllReduce measures the real in-process all-reduce
// throughput of the WRHT schedule on 64 workers with a 256k-element
// vector (64 MB of gradient state per iteration).
func BenchmarkDataPlaneAllReduce(b *testing.B) {
	const n, l = 64, 1 << 18
	sched, err := core.BuildWRHT(core.Config{N: n, Wavelengths: 8})
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]wrht.Vector, n)
	for i := range inputs {
		inputs[i] = make(wrht.Vector, l)
		for j := range inputs[i] {
			inputs[i][j] = float32(i + j)
		}
	}
	b.SetBytes(int64(n * l * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wrht.AllReduce(sched, inputs, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDoubleRing quantifies TeraRack's second fiber ring
// per direction (§3.2): doubling the circuit capacity doubles the
// Lemma-1 group size, which saves a step at the larger node counts.
func BenchmarkAblationDoubleRing(b *testing.B) {
	p := optical.DefaultParams()
	single, double := p.Wavelengths, p.EffectiveWavelengths()
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, n := range []int{1024, 4096} {
			s1, err := core.StepsWRHT(core.Config{N: n, Wavelengths: single})
			if err != nil {
				b.Fatal(err)
			}
			s2, err := core.StepsWRHT(core.Config{N: n, Wavelengths: double})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, fmt.Sprintf("N=%d: single ring (w=%d) θ=%d; double ring (w=%d) θ=%d",
				n, single, s1.Total, double, s2.Total))
		}
	}
	printFirst("abl-doublering", func() {
		for _, r := range rows {
			b.Log(r)
		}
	})
}

// BenchmarkFabricOverlap measures the unified engine on the paper-scale
// WRHT schedule (N=4096, w=64, 100 MB) with and without
// reconfiguration–communication overlap, reporting the hidden setup
// time in microseconds (bounded by (θ−1)·a = 50 µs at θ=3).
func BenchmarkFabricOverlap(b *testing.B) {
	p := optical.DefaultParams()
	f, err := p.Fabric()
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.BuildWRHT(core.Config{N: 4096, Wavelengths: 64})
	if err != nil {
		b.Fatal(err)
	}
	var base, over fabric.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if base, err = (fabric.Engine{Fabric: f}).RunSchedule(s, 100e6); err != nil {
			b.Fatal(err)
		}
		eng := fabric.Engine{Fabric: f, Opts: fabric.Options{Overlap: true}}
		if over, err = eng.RunSchedule(s, 100e6); err != nil {
			b.Fatal(err)
		}
	}
	printFirst("fabric-overlap", func() {
		b.Logf("WRHT N=4096 w=64 d=100MB: sequential %.4fs, overlapped %.4fs (hid %.1f µs of reconfig)",
			base.Time, over.Time, over.OverlapSaved*1e6)
	})
	b.ReportMetric(over.OverlapSaved*1e6, "overlap-us")
}

// BenchmarkCrossFabric regenerates the cross-fabric table: identical
// explicit schedules timed by one engine on both the WDM ring and the
// fat-tree.
func BenchmarkCrossFabric(b *testing.B) {
	o := exp.Defaults()
	for i := 0; i < b.N; i++ {
		r, err := exp.CrossFabric(o, 128, 16, 25e6)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("crossfabric", func() { b.Log("\n" + r.Table.String()) })
	}
}

// BenchmarkStragglerSensitivity regenerates the per-transfer jitter study
// (a question the paper's deterministic model cannot ask).
func BenchmarkStragglerSensitivity(b *testing.B) {
	o := exp.Defaults()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := exp.Stragglers(o, dnn.ResNet50(), 128, 64, 0.2, 5, 1)
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	printFirst("stragglers", func() { b.Log("\n" + out) })
}
