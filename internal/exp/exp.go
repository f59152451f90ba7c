// Package exp regenerates every table and figure of the paper's
// evaluation (§5): Table 1 (step counts), Fig 4 (grouped-node sweep),
// Fig 5 (wavelength sweep), Fig 6 (node scaling in the optical system),
// Fig 7 (optical vs electrical), plus the §4.4 constraint analysis and
// the ablation studies DESIGN.md lists. The cmd/wrhtsim binary and the
// root bench_test.go both drive these entry points.
//
// Each sweep runs on a bounded worker pool (see engine.go): points fan
// out across up to Options.Workers goroutines, collective profiles are
// memoized per sweep so each distinct core.Config is built exactly
// once, and results are assembled in index order so the output is
// byte-identical to a sequential (Workers=1) run. Errors propagate —
// nothing in this package panics on timing or profile failures.
package exp

import (
	"context"
	"fmt"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/electrical"
	"wrht/internal/metrics"
	"wrht/internal/obs"
	"wrht/internal/optical"
	"wrht/internal/phys"
)

// baselineWorkload is the workload the paper normalizes Figs 5-7 by.
const baselineWorkload = "ResNet50"

// Granularity selects how the per-iteration gradient is handed to the
// all-reduce.
type Granularity int

const (
	// Fused all-reduces the whole gradient in one invocation (one fused
	// buffer), the default reading of the paper's Eq-6 model.
	Fused Granularity = iota
	// Bucketed all-reduces gradient-fusion buckets (~25 MB, like DDP /
	// Horovod) one after another, multiplying the per-step overheads.
	// DESIGN.md §5 explains why this reading reproduces the paper's
	// headline percentages more closely for the largest models.
	Bucketed
)

func (g Granularity) String() string {
	if g == Bucketed {
		return "bucketed"
	}
	return "fused"
}

// BucketBytes is the fusion-bucket size used in Bucketed mode.
const BucketBytes = 25 << 20

// Options configures an experiment run.
type Options struct {
	Optical     optical.Params
	Electrical  electrical.Params
	Granularity Granularity
	// Workers bounds the sweep worker pool: 0 (the default) uses
	// GOMAXPROCS, 1 forces the sequential baseline path. Output is
	// identical whatever the value.
	Workers int
	// Trace, when non-nil, receives observability spans: per-sweep-point
	// progress spans (only when Trace.Clock is set — they are wall-clock
	// diagnostics, not simulated time) and, for CrossFabric, the full
	// simulated-time step timeline of every (algorithm, mode) run. Runs
	// that emit simulated timelines force Workers=1 so the trace file is
	// byte-stable.
	Trace *obs.Tracer
	// Metrics, when non-nil, accumulates sweep counters (points run,
	// worker busy seconds), profile-cache hit/miss deltas and RWA probe
	// statistics.
	Metrics *obs.Registry
	// Ctx, when non-nil, cancels an in-flight sweep between points: a
	// dropped daemon client or a draining server stops burning workers
	// at the next point boundary, and the sweep returns the context's
	// error (wrapped, so errors.Is still matches context.Canceled).
	Ctx context.Context
	// Pool, when non-nil, runs sweep points on this shared bounded
	// worker pool instead of spawning a per-sweep pool, so concurrent
	// sweeps in one process (wrhtd) share a single compute bound.
	// Workers still caps fan-out per sweep; runs forced sequential
	// (Workers=1, e.g. byte-stable trace runs) bypass the pool. Output
	// is byte-identical with or without it.
	Pool *Pool
}

// Defaults returns the Table-2 configuration with fused granularity.
func Defaults() Options {
	return Options{
		Optical:    optical.DefaultParams(),
		Electrical: electrical.DefaultParams(),
	}
}

// payloads returns the per-invocation gradient byte sizes for a model
// under the configured granularity.
func (o Options) payloads(m dnn.Model) []float64 {
	if o.Granularity == Bucketed {
		return m.Buckets(BucketBytes)
	}
	return []float64{float64(m.GradBytes())}
}

// Table1 reproduces Table 1: communication step counts of the four
// algorithms at N=1024, w=64 (H-Ring m=5, WRHT m=129).
func Table1() (*metrics.Table, error) {
	const n, w = 1024, 64
	st, err := core.StepsWRHT(core.Config{N: n, Wavelengths: w, GroupSize: 129})
	if err != nil {
		return nil, fmt.Errorf("exp: table 1: %w", err)
	}
	t := &metrics.Table{
		Title:   "Table 1: communication steps, N=1024, w=64",
		Headers: []string{"Algorithm", "Closed form", "Steps", "Paper"},
	}
	t.AddRow("Ring", "2(N-1)", fmt.Sprint(core.StepsRing(n)), "2046")
	t.AddRow("H-Ring (m=5)", "2(m^2+N)/m - 3", fmt.Sprint(core.StepsHRingPaper(n, 5, w)), "417")
	t.AddRow("BT", "2ceil(log2 N)", fmt.Sprint(core.StepsBT(n)), "20")
	t.AddRow("WRHT (m=129)", "2ceil(log_m N) - 1", fmt.Sprint(st.Total), "3")
	return t, nil
}

// Fig4 reproduces Figure 4: WRHT communication time on a 1024-node ring
// with grouped-node counts m ∈ {17, 33, 65, 129}, per DNN workload,
// normalized by WRHT₃ (m=129) within each workload.
func Fig4(o Options) (*metrics.Figure, error) { return newEngine(o, "fig4").fig4() }

func (e *engine) fig4() (*metrics.Figure, error) {
	const n, w = 1024, 64
	ms := []int{17, 33, 65, 129}
	models := dnn.Workloads()
	// One sweep point per (workload, m), model-major.
	times, err := sweep(e, len(models)*len(ms), func(i int) (float64, error) {
		model, m := models[i/len(ms)], ms[i%len(ms)]
		pr, err := e.wrht(n, w, m)
		if err != nil {
			return 0, err
		}
		return e.opticalTime(pr, model)
	})
	if err != nil {
		return nil, err
	}
	fig := &metrics.Figure{
		Title:  "Figure 4: WRHT vs grouped nodes m, N=1024, w=64 (normalized per workload by m=129)",
		XLabel: "workload",
		YLabel: "normalized communication time",
	}
	series := make([]metrics.Series, len(ms))
	for i, m := range ms {
		series[i] = metrics.Series{Name: fmt.Sprintf("WRHT_%d (m=%d)", i, m)}
	}
	for mi, model := range models {
		fig.XTicks = append(fig.XTicks, model.Name)
		base := times[mi*len(ms)+len(ms)-1]
		for i := range ms {
			series[i].Y = append(series[i].Y, times[mi*len(ms)+i]/base)
		}
	}
	fig.Series = series
	steps := make([]string, len(ms))
	for i, m := range ms {
		st, err := core.StepsWRHT(core.Config{N: n, Wavelengths: w, GroupSize: m})
		if err != nil {
			return nil, fmt.Errorf("exp: fig 4 steps (m=%d): %w", m, err)
		}
		steps[i] = fmt.Sprintf("m=%d:θ=%d", m, st.Total)
	}
	fig.Comment = fmt.Sprintf("step counts: %v (paper: time falls with m, then plateaus)", steps)
	return fig, nil
}

// optAlgos enumerates the four §5 algorithms in the order the *All
// accumulation slices use: WRHT, Ring, H-Ring (m=5), BT.
const numOptAlgos = 4

// optAlgoTime times algorithm ai ∈ [0, numOptAlgos) for one model at
// (n, w), building profiles through the per-sweep cache.
func (e *engine) optAlgoTime(ai, n, w int, model dnn.Model) (float64, error) {
	var pr core.Profile
	switch ai {
	case 0:
		var err error
		pr, err = e.wrht(n, w, 0)
		if err != nil {
			return 0, err
		}
	case 1:
		pr = e.ring(n)
	case 2:
		pr = e.hring(n, 5, w)
	default:
		pr = e.bt(n)
	}
	return e.opticalTime(pr, model)
}

// Fig5Result bundles the wavelength-sweep subfigures with the paper-style
// average reductions of WRHT versus each baseline.
type Fig5Result struct {
	Figures []*metrics.Figure // one per DNN, X = wavelengths
	VsRing  float64           // mean % reduction (paper: 13.74%)
	VsHRing float64           // paper: 9.29%
	VsBT    float64           // paper: 75%
}

// Fig5 reproduces Figure 5: the four algorithms on a 1024-node optical
// ring under w ∈ {4, 16, 64, 256} wavelengths (H-Ring m=5), one
// subfigure per DNN, normalized by WRHT on ResNet50 at 256 wavelengths.
func Fig5(o Options) (Fig5Result, error) { return newEngine(o, "fig5").fig5() }

func (e *engine) fig5() (Fig5Result, error) {
	const n = 1024
	ws := []int{4, 16, 64, 256}
	models := dnn.Workloads()
	baseModel, err := baselineModel(models, baselineWorkload)
	if err != nil {
		return Fig5Result{}, err
	}
	basePr, err := e.wrht(n, 256, 0)
	if err != nil {
		return Fig5Result{}, err
	}
	base, err := e.opticalTime(basePr, baseModel) // WRHT, ResNet50, w=256
	if err != nil {
		return Fig5Result{}, err
	}
	// One sweep point per (workload, wavelength, algorithm).
	times, err := sweep(e, len(models)*len(ws)*numOptAlgos, func(i int) (float64, error) {
		model := models[i/(len(ws)*numOptAlgos)]
		w := ws[(i/numOptAlgos)%len(ws)]
		return e.optAlgoTime(i%numOptAlgos, n, w, model)
	})
	if err != nil {
		return Fig5Result{}, err
	}

	var out Fig5Result
	var wrhtAll, ringAll, hringAll, btAll []float64
	for mi, model := range models {
		fig := &metrics.Figure{
			Title:  fmt.Sprintf("Figure 5 (%s): communication time vs wavelengths, N=1024", model.Name),
			XLabel: "wavelengths",
			YLabel: "normalized communication time",
		}
		wrhtS := metrics.Series{Name: "WRHT"}
		ringS := metrics.Series{Name: "Ring"}
		hringS := metrics.Series{Name: "H-Ring"}
		btS := metrics.Series{Name: "BT"}
		for wi, w := range ws {
			fig.XTicks = append(fig.XTicks, fmt.Sprint(w))
			p := (mi*len(ws) + wi) * numOptAlgos
			tw, tr, th, tb := times[p], times[p+1], times[p+2], times[p+3]
			wrhtS.Y = append(wrhtS.Y, tw/base)
			ringS.Y = append(ringS.Y, tr/base)
			hringS.Y = append(hringS.Y, th/base)
			btS.Y = append(btS.Y, tb/base)
			wrhtAll = append(wrhtAll, tw)
			ringAll = append(ringAll, tr)
			hringAll = append(hringAll, th)
			btAll = append(btAll, tb)
		}
		fig.Series = []metrics.Series{ringS, hringS, btS, wrhtS}
		out.Figures = append(out.Figures, fig)
	}
	if out.VsRing, err = metrics.MeanReduction(wrhtAll, ringAll); err != nil {
		return Fig5Result{}, err
	}
	if out.VsHRing, err = metrics.MeanReduction(wrhtAll, hringAll); err != nil {
		return Fig5Result{}, err
	}
	if out.VsBT, err = metrics.MeanReduction(wrhtAll, btAll); err != nil {
		return Fig5Result{}, err
	}
	return out, nil
}

// Fig6Result bundles the node-scaling subfigures with the headline
// average reductions (paper: 65.23%, 43.81%, 82.22%).
type Fig6Result struct {
	Figures []*metrics.Figure
	VsRing  float64
	VsHRing float64
	VsBT    float64
}

// Fig6 reproduces Figure 6: the four algorithms on optical rings of
// N ∈ {1024, 2048, 3072, 4096} nodes at w=64 (H-Ring m=5), one subfigure
// per DNN, normalized by WRHT on ResNet50 at N=1024.
func Fig6(o Options) (Fig6Result, error) { return newEngine(o, "fig6").fig6() }

func (e *engine) fig6() (Fig6Result, error) {
	const w = 64
	ns := []int{1024, 2048, 3072, 4096}
	models := dnn.Workloads()
	baseModel, err := baselineModel(models, baselineWorkload)
	if err != nil {
		return Fig6Result{}, err
	}
	basePr, err := e.wrht(ns[0], w, 0)
	if err != nil {
		return Fig6Result{}, err
	}
	base, err := e.opticalTime(basePr, baseModel) // WRHT, ResNet50, N=1024
	if err != nil {
		return Fig6Result{}, err
	}
	// One sweep point per (workload, node count, algorithm).
	times, err := sweep(e, len(models)*len(ns)*numOptAlgos, func(i int) (float64, error) {
		model := models[i/(len(ns)*numOptAlgos)]
		n := ns[(i/numOptAlgos)%len(ns)]
		return e.optAlgoTime(i%numOptAlgos, n, w, model)
	})
	if err != nil {
		return Fig6Result{}, err
	}

	var out Fig6Result
	var wrhtAll, ringAll, hringAll, btAll []float64
	for mi, model := range models {
		fig := &metrics.Figure{
			Title:  fmt.Sprintf("Figure 6 (%s): communication time vs nodes, w=64", model.Name),
			XLabel: "nodes",
			YLabel: "normalized communication time",
		}
		wrhtS := metrics.Series{Name: "WRHT"}
		ringS := metrics.Series{Name: "Ring"}
		hringS := metrics.Series{Name: "H-Ring"}
		btS := metrics.Series{Name: "BT"}
		for ni, n := range ns {
			fig.XTicks = append(fig.XTicks, fmt.Sprint(n))
			p := (mi*len(ns) + ni) * numOptAlgos
			tw, tr, th, tb := times[p], times[p+1], times[p+2], times[p+3]
			wrhtS.Y = append(wrhtS.Y, tw/base)
			ringS.Y = append(ringS.Y, tr/base)
			hringS.Y = append(hringS.Y, th/base)
			btS.Y = append(btS.Y, tb/base)
			wrhtAll = append(wrhtAll, tw)
			ringAll = append(ringAll, tr)
			hringAll = append(hringAll, th)
			btAll = append(btAll, tb)
		}
		fig.Series = []metrics.Series{ringS, hringS, btS, wrhtS}
		out.Figures = append(out.Figures, fig)
	}
	if out.VsRing, err = metrics.MeanReduction(wrhtAll, ringAll); err != nil {
		return Fig6Result{}, err
	}
	if out.VsHRing, err = metrics.MeanReduction(wrhtAll, hringAll); err != nil {
		return Fig6Result{}, err
	}
	if out.VsBT, err = metrics.MeanReduction(wrhtAll, btAll); err != nil {
		return Fig6Result{}, err
	}
	return out, nil
}

// Fig7Result bundles the optical-vs-electrical subfigures with the
// paper's headline reductions (O-Ring vs E-Ring 48.74%; WRHT vs E-Ring
// 61.23%; WRHT vs E-RD 55.51%).
type Fig7Result struct {
	Figures      []*metrics.Figure
	ORingVsERing float64
	WRHTVsERing  float64
	WRHTVsERD    float64
}

// Fig7 reproduces Figure 7: Ring and recursive halving/doubling on the
// electrical fat-tree versus Ring and WRHT on the optical ring, for
// N ∈ {128, 256, 512, 1024} and w=64, one subfigure per DNN, normalized
// by WRHT on ResNet50 at N=128.
func Fig7(o Options) (Fig7Result, error) {
	return fig7At(o, []int{128, 256, 512, 1024})
}

// fig7At runs the Fig-7 comparison over an explicit node list (the test
// suite uses a smaller sweep to keep the flow simulation fast).
func fig7At(o Options, ns []int) (Fig7Result, error) { return newEngine(o, "fig7").fig7(ns) }

func (e *engine) fig7(ns []int) (Fig7Result, error) {
	const w = 64
	const numAlgos = 4 // E-Ring, E-RD, O-Ring, WRHT
	models := dnn.Workloads()
	baseModel, err := baselineModel(models, baselineWorkload)
	if err != nil {
		return Fig7Result{}, err
	}
	basePr, err := e.wrht(ns[0], w, 0)
	if err != nil {
		return Fig7Result{}, err
	}
	base, err := e.opticalTime(basePr, baseModel)
	if err != nil {
		return Fig7Result{}, err
	}

	// Networks and RD schedules per N, built once up front and shared
	// read-only across all models and workers. E-Ring streams instead:
	// materialized at N=1024 it alone would hold 2046 steps × 1024
	// transfers.
	type nets struct {
		nw *electrical.Network
		rd *core.Schedule
	}
	byN := map[int]nets{}
	for _, n := range ns {
		nw, err := electrical.NewNetwork(n, e.opts.Electrical)
		if err != nil {
			return Fig7Result{}, fmt.Errorf("exp: fig 7 network (N=%d): %w", n, err)
		}
		rd, err := collective.BuildRD(n)
		if err != nil {
			return Fig7Result{}, fmt.Errorf("exp: fig 7 RD schedule (N=%d): %w", n, err)
		}
		byN[n] = nets{nw: nw, rd: rd}
	}

	// One sweep point per (workload, node count, algorithm). The
	// electrical points dominate the runtime, so fanning them out is
	// where the pool pays off.
	times, err := sweep(e, len(models)*len(ns)*numAlgos, func(i int) (float64, error) {
		model := models[i/(len(ns)*numAlgos)]
		n := ns[(i/numAlgos)%len(ns)]
		nn := byN[n]
		switch i % numAlgos {
		case 0:
			return e.electricalTime(nn.nw, func() core.StepSource { return collective.StreamRing(n) }, model)
		case 1:
			return e.electricalTime(nn.nw, nn.rd.Source, model)
		case 2:
			return e.opticalTime(e.ring(n), model)
		default:
			pr, err := e.wrht(n, w, 0)
			if err != nil {
				return 0, err
			}
			return e.opticalTime(pr, model)
		}
	})
	if err != nil {
		return Fig7Result{}, err
	}

	var out Fig7Result
	var wrhtAll, oringAll, eringAll, erdAll []float64
	for mi, model := range models {
		fig := &metrics.Figure{
			Title:  fmt.Sprintf("Figure 7 (%s): electrical vs optical, w=64", model.Name),
			XLabel: "nodes",
			YLabel: "normalized communication time",
		}
		eringS := metrics.Series{Name: "E-Ring"}
		erdS := metrics.Series{Name: "E-RD"}
		oringS := metrics.Series{Name: "O-Ring"}
		wrhtS := metrics.Series{Name: "WRHT"}
		for ni, n := range ns {
			fig.XTicks = append(fig.XTicks, fmt.Sprint(n))
			p := (mi*len(ns) + ni) * numAlgos
			te, td, to, tw := times[p], times[p+1], times[p+2], times[p+3]
			eringS.Y = append(eringS.Y, te/base)
			erdS.Y = append(erdS.Y, td/base)
			oringS.Y = append(oringS.Y, to/base)
			wrhtS.Y = append(wrhtS.Y, tw/base)
			eringAll = append(eringAll, te)
			erdAll = append(erdAll, td)
			oringAll = append(oringAll, to)
			wrhtAll = append(wrhtAll, tw)
		}
		fig.Series = []metrics.Series{eringS, erdS, oringS, wrhtS}
		out.Figures = append(out.Figures, fig)
	}
	if out.ORingVsERing, err = metrics.MeanReduction(oringAll, eringAll); err != nil {
		return Fig7Result{}, err
	}
	if out.WRHTVsERing, err = metrics.MeanReduction(wrhtAll, eringAll); err != nil {
		return Fig7Result{}, err
	}
	if out.WRHTVsERD, err = metrics.MeanReduction(wrhtAll, erdAll); err != nil {
		return Fig7Result{}, err
	}
	return out, nil
}

// Constraints reproduces the §4.4 analysis: the maximum feasible grouped
// nodes m' under the default optical budget for varying pass-through
// loss, on a 1024-node ring.
func Constraints() *metrics.Table {
	t := &metrics.Table{
		Title:   "§4.4 constraints: max grouped nodes m' vs per-interface loss (N=1024)",
		Headers: []string{"P_pass (dB)", "m'", "L_max(m')", "SNR(dB)", "BER ok"},
	}
	for _, pass := range []float64{0.005, 0.01, 0.02, 0.05, 0.1} {
		b := phys.DefaultBudget()
		b.PassLossDB = pass
		m := b.MaxGroupSize(1024, 129)
		lm := phys.MaxCommLength(1024, m)
		row := []string{fmt.Sprintf("%.3f", pass)}
		if m == 0 {
			row = append(row, "-", "-", "-", "-")
		} else {
			row = append(row,
				fmt.Sprint(m), fmt.Sprint(lm),
				fmt.Sprintf("%.1f", b.SNRdB(lm)),
				fmt.Sprint(b.CrosstalkOK(lm)))
		}
		t.AddRow(row...)
	}
	return t
}
