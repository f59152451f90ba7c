package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"wrht/internal/api"
	"wrht/internal/collective"
	"wrht/internal/dnn"
	"wrht/internal/exp"
	mt "wrht/internal/metrics"
	"wrht/internal/obs"
	"wrht/internal/optical"
	"wrht/internal/parallel"
	"wrht/internal/workload"
)

// fig7Ns are the node counts exp.Fig7 sweeps, used to count the
// simulated electrical steps behind electrical.us_per_step.
var fig7Ns = []int{128, 256, 512, 1024}

// traced replays `wrhtsim all` in-process, call for call and in the
// same order, under one span per exp (or parallel/optical) call. It
// renders the same text the binary prints and checks it against the
// recorded digest.
func (r *repro) traced(seconds float64, u *e2e) (*layered, error) {
	l := newLayered()
	reg := obs.NewRegistry()
	elHist := obs.Labeled("fabric.run.seconds", "fabric", "electrical")
	var fig7, stragglers, rest, eff, allocMB, peakMB, elFig7, cpu float64
	n := 0
	start := time.Now()
	for op := 0; op == 0 || since(start) < seconds; op++ {
		l.attempted++
		o := exp.Defaults()
		o.Metrics = reg
		var out bytes.Buffer
		rp := reproReplay{tr: l.tr, op: op, out: &out}
		cpu0 := processCPU()
		rp.root = l.tr.begin("op.repro", op, -1)
		err := rp.all(o, reg, elHist)
		l.tr.end(rp.root)
		cpu += processCPU() - cpu0
		if err != nil {
			l.fail("replay: %v", err)
			continue
		}
		if got := sha256.Sum256(out.Bytes()); hex.EncodeToString(got[:]) != reproDigest {
			l.fail("replayed output digest %x, want %s", got, reproDigest)
		}
		root := l.tr.spans[rp.root]
		fig7 += rp.fig7.seconds()
		stragglers += rp.stragglers.seconds()
		rest += root.seconds() - rp.fig7.seconds() - rp.stragglers.seconds()
		eff += rp.fig7Busy / (float64(runtime.GOMAXPROCS(0)) * rp.fig7.seconds())
		allocMB += rp.fig7AllocMB
		peakMB += rp.fig7PeakMB
		elFig7 += rp.fig7Electrical
		// One fused run per (workload, N, Ring|RD): fig7Ns must match
		// exp.Fig7's sweep for the step count below to hold.
		if want := uint64(len(dnn.Workloads()) * len(fig7Ns) * 2); rp.fig7ElectricalRuns != want {
			return nil, fmt.Errorf("exp.Fig7 made %d electrical runs, want %d: fig7Ns no longer matches its sweep", rp.fig7ElectricalRuns, want)
		}
		n++
	}
	if n == 0 {
		return l, nil
	}
	k := float64(n)
	l.metrics["exp.fig7_s"] = fig7 / k
	l.metrics["exp.stragglers_s"] = stragglers / k
	l.metrics["exp.rest_s"] = rest / k
	l.metrics["exp.fig7_pool_efficiency"] = eff / k
	l.metrics["exp.fig7_alloc_mb"] = allocMB / k
	l.metrics["exp.fig7_peak_heap_mb"] = peakMB / k
	snap := reg.Snapshot()
	elTotal := snap.Histograms[elHist].Sum
	l.metrics["fabric.electrical_run_s"] = elTotal / k
	steps := 0
	for _, nn := range fig7Ns {
		rd, err := collective.BuildRD(nn)
		if err != nil {
			return nil, err
		}
		steps += len(dnn.Workloads()) * (collective.BuildRing(nn).NumSteps() + rd.NumSteps())
	}
	l.metrics["electrical.us_per_step"] = elFig7 / k / float64(steps) * 1e6
	hits := float64(snap.Counters["collective.profile_cache.hits"])
	misses := float64(snap.Counters["collective.profile_cache.misses"])
	l.metrics["collective.profile_cache_hit_ratio"] = hits / (hits + misses)
	l.props["electrical_share"] = elTotal / cpu
	l.props["fig7_share_of_wall"] = fig7 / (fig7 + stragglers + rest)
	l.tracedE2E["wall_s"] = (fig7 + stragglers + rest) / k
	l.tracedE2E["cpu_ms_per_op"] = cpu / k * 1e3
	return l, nil
}

// reproReplay is one traced in-process reproduction.
type reproReplay struct {
	tr   *Tracer
	op   int
	root int
	out  *bytes.Buffer
	// fig7 and stragglers are the two spans the per-layer metrics
	// single out; the fig7* values are measured around exp.Fig7.
	fig7, stragglers                  Span
	fig7Busy, fig7AllocMB, fig7PeakMB float64
	fig7Electrical                    float64
	fig7ElectricalRuns                uint64
}

// call runs fn as a span of this reproduction.
func (rp *reproReplay) call(name string, fn func() error) (Span, error) {
	i := rp.tr.begin(name, rp.op, rp.root)
	err := fn()
	rp.tr.end(i)
	return rp.tr.spans[i], err
}

// all mirrors wrhtsim's `all` command: the same calls with the same
// arguments, printing the same text.
func (rp *reproReplay) all(o exp.Options, reg *obs.Registry, elHist string) error {
	w := rp.out
	if _, err := rp.call("exp.table1", func() error {
		t, err := exp.Table1()
		fmt.Fprintln(w, t)
		return err
	}); err != nil {
		return err
	}
	if _, err := rp.call("exp.fig4", func() error {
		fig, err := exp.Fig4(o)
		fmt.Fprintln(w, fig)
		return err
	}); err != nil {
		return err
	}
	if _, err := rp.call("exp.fig5", func() error {
		r, err := exp.Fig5(o)
		if err != nil {
			return err
		}
		for _, f := range r.Figures {
			fmt.Fprintln(w, f)
		}
		fmt.Fprintf(w, "Fig 5 mean reductions (%s): WRHT vs Ring %s (paper 13.74%%), vs H-Ring %s (paper 9.29%%), vs BT %s (paper 75%%)\n\n",
			o.Granularity, mt.Pct(r.VsRing), mt.Pct(r.VsHRing), mt.Pct(r.VsBT))
		return nil
	}); err != nil {
		return err
	}
	if _, err := rp.call("exp.fig6", func() error {
		r, err := exp.Fig6(o)
		if err != nil {
			return err
		}
		for _, f := range r.Figures {
			fmt.Fprintln(w, f)
		}
		fmt.Fprintf(w, "Fig 6 mean reductions (%s): WRHT vs Ring %s (paper 65.23%%), vs H-Ring %s (paper 43.81%%), vs BT %s (paper 82.22%%)\n\n",
			o.Granularity, mt.Pct(r.VsRing), mt.Pct(r.VsHRing), mt.Pct(r.VsBT))
		return nil
	}); err != nil {
		return err
	}
	if err := rp.callFig7(o, reg, elHist); err != nil {
		return err
	}
	rp.call("exp.constraints", func() error { fmt.Fprintln(w, exp.Constraints()); return nil })
	var err error
	if rp.stragglers, err = rp.call("exp.stragglers", func() error {
		t, err := exp.Stragglers(o, dnn.ResNet50(), 256, 64, 0.2, 20, 1)
		fmt.Fprintln(w, t)
		return err
	}); err != nil {
		return err
	}
	for _, m := range []dnn.Model{dnn.ResNet50(), dnn.BEiTLarge()} {
		if _, err := rp.call("exp.extras", func() error {
			t, err := exp.Extras(o, m, 1024, 64)
			fmt.Fprintln(w, t)
			return err
		}); err != nil {
			return err
		}
	}
	if _, err := rp.call("parallel.hybrid", func() error { return hybrid(w) }); err != nil {
		return err
	}
	sweeps := []api.SweepRequest{
		{Sweep: "crossfabric", N: 64, Wavelengths: 8, PayloadMB: 100},
		{Sweep: "faults", Wavelengths: 8, PayloadMB: 100},
		{Sweep: "overlap", Wavelengths: 8, PayloadMB: 100, Passes: "all"},
	}
	for _, req := range sweeps {
		if _, err := rp.call("exp.sweep."+req.Sweep, func() error {
			_, tables, aerr := api.RunSweep(o, req)
			for _, t := range tables {
				fmt.Fprintln(w, t)
			}
			if aerr != nil {
				return aerr
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if _, err := rp.call("plan.plan", func() error {
		_, tables, aerr := api.RunPlan(o, api.PlanRequest{
			Rs: []int{8, 16, 32}, Wavelengths: 8, AMicros: []float64{25}, PayloadMB: 100,
		})
		for _, t := range tables {
			fmt.Fprintln(w, t)
		}
		if aerr != nil {
			return aerr
		}
		return nil
	}); err != nil {
		return err
	}
	_, err = rp.call("optical.crossover", func() error {
		tp := o.Optical.TimeParams()
		t := &mt.Table{
			Title:   "Analytic crossover: smallest N where fused WRHT beats optical Ring (w=64)",
			Headers: []string{"Workload", "grad (MB)", "crossover N"},
		}
		for _, m := range dnn.Workloads() {
			n := tp.RingCrossoverN(64, float64(m.GradBytes()), 1<<22)
			t.AddRow(m.Name, fmt.Sprintf("%.1f", float64(m.GradBytes())/1e6), fmt.Sprint(n))
		}
		fmt.Fprintln(w, t)
		return nil
	})
	return err
}

// callFig7 runs exp.Fig7 under its span, with the pool's busy time,
// the electrical engine time, the allocation delta and the sampled
// peak live heap measured around it.
func (rp *reproReplay) callFig7(o exp.Options, reg *obs.Registry, elHist string) error {
	w := rp.out
	busy0 := reg.Gauge("exp.sweep.busy_seconds").Value()
	el0 := reg.Snapshot().Histograms[elHist]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	stop := make(chan struct{})
	peak := make(chan float64, 1)
	go samplePeakHeap(stop, peak)
	var err error
	rp.fig7, err = rp.call("exp.fig7", func() error {
		r, err := exp.Fig7(o)
		if err != nil {
			return err
		}
		for _, f := range r.Figures {
			fmt.Fprintln(w, f)
		}
		fmt.Fprintf(w, "Fig 7 mean reductions (%s): O-Ring vs E-Ring %s (paper 48.74%%), WRHT vs E-Ring %s (paper 61.23%%), WRHT vs E-RD %s (paper 55.51%%)\n\n",
			o.Granularity, mt.Pct(r.ORingVsERing), mt.Pct(r.WRHTVsERing), mt.Pct(r.WRHTVsERD))
		return nil
	})
	close(stop)
	rp.fig7PeakMB = <-peak / 1e6
	runtime.ReadMemStats(&ms)
	rp.fig7AllocMB = float64(ms.TotalAlloc-alloc0) / 1e6
	rp.fig7Busy = reg.Gauge("exp.sweep.busy_seconds").Value() - busy0
	el1 := reg.Snapshot().Histograms[elHist]
	rp.fig7Electrical = el1.Sum - el0.Sum
	rp.fig7ElectricalRuns = el1.Count - el0.Count
	return err
}

// samplePeakHeap samples the live heap every millisecond until stop
// closes, then sends the largest sample.
func samplePeakHeap(stop <-chan struct{}, peak chan<- float64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var max float64
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := float64(s[0].Value.Uint64()); v > max {
			max = v
		}
		select {
		case <-stop:
			peak <- max
			return
		case <-tick.C:
		}
	}
}

// hybrid mirrors wrhtsim's §6.2 hybrid-parallelism table.
func hybrid(w *bytes.Buffer) error {
	const nodes = 64
	model := dnn.BEiTLarge()
	t := &mt.Table{
		Title:   fmt.Sprintf("§6.2 hybrid parallelism: %s on %d nodes (GPipe, 8×2 microbatches)", model.Name, nodes),
		Headers: []string{"P x D", "pipeline (ms)", "bubble (ms)", "all-reduce (ms)", "iteration (ms)"},
	}
	for _, p := range []int{1, 2, 4, 8, 16} {
		sim := parallel.Sim{
			Model:          model,
			Strat:          parallel.Strategy{Stages: p, Replicas: nodes / p},
			Microbatches:   8,
			MicrobatchSize: 2,
			GPU:            workload.TitanXP(),
			Optical:        optical.DefaultParams(),
		}
		res, err := sim.Run()
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%d x %d", p, nodes/p),
			fmt.Sprintf("%.1f", res.PipelineSec*1e3),
			fmt.Sprintf("%.1f", res.BubbleSec*1e3),
			fmt.Sprintf("%.1f", res.AllReduceSec*1e3),
			fmt.Sprintf("%.1f", res.TotalSec*1e3))
	}
	fmt.Fprintln(w, t)
	return nil
}
