package train

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/fabric"
	"wrht/internal/obs"
	"wrht/internal/optical"
	"wrht/internal/workload"
)

func TestTimelineBasicAccounting(t *testing.T) {
	tl := Timeline{Workers: 4, Iterations: 10, ComputeSec: 0.08, CommSec: 0.02}
	res := tl.Run()
	if math.Abs(res.TotalSec-10*(0.08+0.02)) > 1e-9 {
		t.Fatalf("total = %g, want 1.0", res.TotalSec)
	}
	if math.Abs(res.CommFraction-0.2) > 1e-9 {
		t.Fatalf("comm fraction = %g, want 0.2", res.CommFraction)
	}
	if math.Abs(res.ComputeSec-0.8) > 1e-9 || math.Abs(res.CommSec-0.2) > 1e-9 {
		t.Fatalf("split wrong: %+v", res)
	}
}

func TestTimelineStragglerSkew(t *testing.T) {
	// With 10% skew the barrier waits for the slowest worker: per
	// iteration compute becomes ComputeSec × 1.1.
	tl := Timeline{Workers: 8, Iterations: 5, ComputeSec: 0.1, CommSec: 0.01, Skew: 0.1}
	res := tl.Run()
	want := 5 * (0.1*1.1 + 0.01)
	if math.Abs(res.TotalSec-want) > 1e-9 {
		t.Fatalf("total = %g, want %g", res.TotalSec, want)
	}
}

func TestTimelineZeroIterations(t *testing.T) {
	res := Timeline{Workers: 2, Iterations: 0, ComputeSec: 1, CommSec: 1}.Run()
	if res.TotalSec != 0 || res.CommFraction != 0 {
		t.Fatalf("empty timeline: %+v", res)
	}
}

func TestTimelinePanicsOnBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		tl   Timeline
	}{
		{"zero workers", Timeline{Workers: 0, Iterations: 1}},
		{"negative iterations", Timeline{Workers: 1, Iterations: -1}},
		{"negative compute", Timeline{Workers: 4, Iterations: 1, ComputeSec: -0.1, CommSec: 0.01}},
		{"negative comm", Timeline{Workers: 4, Iterations: 1, ComputeSec: 0.1, CommSec: -0.01}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for %+v", tc.tl)
				}
			}()
			tc.tl.Run()
		})
	}
}

// TestTimelineGolden pins the timeline's totals and its Perfetto trace
// bytes with ==: the barrier loop must reproduce, bit for bit, the
// event ordering and float accumulation it has always had.
func TestTimelineGolden(t *testing.T) {
	tr := obs.NewTracer()
	skewed := Timeline{
		Workers: 8, Iterations: 5, ComputeSec: 0.1, CommSec: 0.01, Skew: 0.1,
		Trace: tr, TraceProcess: "golden N=8", TraceWorkers: 3,
	}.Run()
	if want := (TimelineResult{
		TotalSec: 0.6000000000000001, ComputeSec: 0.55, CommSec: 0.05, CommFraction: 0.08333333333333333,
	}); skewed != want {
		t.Errorf("skewed timeline = %+v, want %+v", skewed, want)
	}
	var got bytes.Buffer
	if _, err := tr.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "timeline_skew.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("skewed timeline trace differs from testdata/timeline_skew.trace.json (len %d vs %d)", got.Len(), len(want))
	}

	w := workload.New(dnn.ResNet50(), workload.TitanXP(), 16)
	epoch := EpochTimeline(w, 64, 1281167, 0.0123).Run()
	if want := (TimelineResult{
		TotalSec: 122.42989197032364, ComputeSec: 107.03029197032556,
		CommSec: 15.399599999999804, CommFraction: 0.12578300733723252,
	}); epoch != want {
		t.Errorf("epoch timeline = %+v, want %+v", epoch, want)
	}
}

func TestEpochTimelineCommShareGrowsWithStepHeavyAlgorithms(t *testing.T) {
	// The paper's [35] motivation: at 1024 nodes, Ring's 2046 steps make
	// communication dominate; WRHT reduces the share.
	const n = 1024
	w := workload.New(dnn.ResNet50(), workload.TitanXP(), 16)
	p := optical.DefaultParams()
	commFor := func(pr core.Profile) float64 {
		f, err := p.Fabric()
		if err != nil {
			t.Fatal(err)
		}
		res, err := fabric.Engine{Fabric: f}.RunProfile(pr, w.GradBytes)
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	wrhtProf, err := collective.WRHTProfile(core.Config{N: n, Wavelengths: 64})
	if err != nil {
		t.Fatal(err)
	}
	wrhtRes := EpochTimeline(w, n, 1281167, commFor(wrhtProf)).Run()
	ringRes := EpochTimeline(w, n, 1281167, commFor(collective.RingProfile(n))).Run()
	btRes := EpochTimeline(w, n, 1281167, commFor(collective.BTProfile(n))).Run()
	if !(wrhtRes.CommFraction < ringRes.CommFraction && ringRes.CommFraction < btRes.CommFraction) {
		t.Fatalf("comm shares out of order: wrht %.2f ring %.2f bt %.2f",
			wrhtRes.CommFraction, ringRes.CommFraction, btRes.CommFraction)
	}
	if ringRes.CommFraction < 0.3 || ringRes.CommFraction > 0.95 {
		t.Fatalf("Ring comm share %.2f outside the paper's 50-90%% ballpark", ringRes.CommFraction)
	}
}

func TestCommTimeForProfile(t *testing.T) {
	pr, err := collective.WRHTProfile(core.Config{N: 64, Wavelengths: 8})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := CommTimeForProfile(optical.DefaultParams(), pr, dnn.ResNet50())
	if err != nil || tm <= 0 {
		t.Fatalf("comm time: %v %g", err, tm)
	}
}

func TestTimelineTraceSpans(t *testing.T) {
	render := func() (*obs.Tracer, TimelineResult) {
		tr := obs.NewTracer()
		tl := Timeline{
			Workers: 16, Iterations: 3, ComputeSec: 0.08, CommSec: 0.02,
			Trace: tr, TraceProcess: "test N=16", TraceWorkers: 4,
		}
		return tr, tl.Run()
	}
	tr, res := render()
	plain := Timeline{Workers: 16, Iterations: 3, ComputeSec: 0.08, CommSec: 0.02}.Run()
	if res != plain {
		t.Fatalf("tracing changed the result: %+v vs %+v", res, plain)
	}
	// 4 traced workers × 3 iterations compute spans + 3 all-reduce spans.
	if got, want := tr.Events(), 4*3+3; got != want {
		t.Fatalf("trace has %d events, want %d", got, want)
	}
	var a, b bytes.Buffer
	if _, err := tr.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	tr2, _ := render()
	if _, err := tr2.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("timeline trace is not byte-stable across runs")
	}
}
