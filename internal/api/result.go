package api

import (
	"encoding/json"

	"wrht/internal/exp"
	"wrht/internal/fabric"
	"wrht/internal/metrics"
)

// StepCost mirrors fabric.StepCost with stable JSON names.
type StepCost struct {
	Setup         float64 `json:"setup"`
	Serialization float64 `json:"serialization"`
	OEO           float64 `json:"oeo"`
	RouterDelay   float64 `json:"router_delay"`
	Total         float64 `json:"total"`
	MaxBytes      float64 `json:"max_bytes"`
}

// StepReport mirrors fabric.StepReport; the phase is serialized by
// name ("reduce", "all-to-all", "broadcast").
type StepReport struct {
	Phase      string   `json:"phase"`
	Cost       StepCost `json:"cost"`
	Overlapped float64  `json:"overlapped,omitempty"`
}

// SimResult mirrors fabric.Result: the fabric breakdown of one
// engine run. All times are seconds of simulated time — nothing here
// depends on the host clock.
type SimResult struct {
	Fabric       string       `json:"fabric"`
	Algorithm    string       `json:"algorithm"`
	Steps        int          `json:"steps"`
	Time         float64      `json:"time_seconds"`
	TransferTime float64      `json:"transfer_seconds"`
	OverheadTime float64      `json:"overhead_seconds"`
	RouterTime   float64      `json:"router_seconds"`
	OverlapSaved float64      `json:"overlap_saved_seconds,omitempty"`
	PerStep      []StepReport `json:"per_step,omitempty"`
}

// SimResultFrom converts an engine result into its API mirror.
func SimResultFrom(r fabric.Result) SimResult {
	out := SimResult{
		Fabric:       r.Fabric,
		Algorithm:    r.Algorithm,
		Steps:        r.Steps,
		Time:         r.Time,
		TransferTime: r.TransferTime,
		OverheadTime: r.OverheadTime,
		RouterTime:   r.RouterTime,
		OverlapSaved: r.OverlapSaved,
	}
	for _, sr := range r.PerStep {
		out.PerStep = append(out.PerStep, StepReport{
			Phase: sr.Phase.String(),
			Cost: StepCost{
				Setup:         sr.Cost.Setup,
				Serialization: sr.Cost.Serialization,
				OEO:           sr.Cost.OEO,
				RouterDelay:   sr.Cost.RouterDelay,
				Total:         sr.Cost.Total,
				MaxBytes:      sr.Cost.MaxBytes,
			},
			Overlapped: sr.Overlapped,
		})
	}
	return out
}

// BuildResponse reports one schedule construction.
type BuildResponse struct {
	Version string `json:"version"`
	// Kind echoes the (normalized) requested kind; Algorithm is the
	// built schedule's algorithm name.
	Kind      string `json:"kind"`
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	// Wavelengths echoes the budget the schedule was validated against
	// (0 = not validated: no budget was given).
	Wavelengths int  `json:"wavelengths,omitempty"`
	Steps       int  `json:"steps"`
	Transfers   int  `json:"transfers"`
	Validated   bool `json:"validated"`
	// Streamed reports the stream-and-consume construction path.
	Streamed bool `json:"streamed,omitempty"`
}

// SimulateResponse reports one timed run.
type SimulateResponse struct {
	Version      string    `json:"version"`
	Backend      string    `json:"backend"`
	PayloadBytes float64   `json:"payload_bytes"`
	Result       SimResult `json:"result"`
	// Trace is the run's simulated-time Perfetto timeline (Chrome
	// Trace Event JSON), present when the request asked for it.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// CrossFabricCell is one (algorithm, mode) cell of the crossfabric
// sweep; mode is "optical", "optical+overlap" or "electrical".
type CrossFabricCell struct {
	Algorithm string    `json:"algorithm"`
	Mode      string    `json:"mode"`
	Result    SimResult `json:"result"`
}

// CrossFabricResult is the crossfabric sweep payload: every cell of
// the one-engine-two-backends comparison, sorted by algorithm then
// mode so the encoding is deterministic.
type CrossFabricResult struct {
	N            int               `json:"n"`
	Wavelengths  int               `json:"wavelengths"`
	PayloadBytes float64           `json:"payload_bytes"`
	Cells        []CrossFabricCell `json:"cells"`
}

// OverlapPoint mirrors exp.OverlapPoint: the opportunistic baseline
// versus the IR pass pipeline at one ring size.
type OverlapPoint struct {
	N              int     `json:"n"`
	Wavelengths    int     `json:"wavelengths"`
	BaselineSteps  int     `json:"baseline_steps"`
	PassSteps      int     `json:"pass_steps"`
	BaselineHidden int     `json:"baseline_hidden"`
	PassHidden     int     `json:"pass_hidden"`
	BaselineSaved  float64 `json:"baseline_saved_seconds"`
	PassSaved      float64 `json:"pass_saved_seconds"`
	BaselineTime   float64 `json:"baseline_seconds"`
	PassTime       float64 `json:"pass_seconds"`
}

// OverlapPointFrom converts a sweep point into its API mirror.
func OverlapPointFrom(p exp.OverlapPoint) OverlapPoint {
	return OverlapPoint{
		N:              p.N,
		Wavelengths:    p.W,
		BaselineSteps:  p.BaselineSteps,
		PassSteps:      p.PassSteps,
		BaselineHidden: p.BaselineHidden,
		PassHidden:     p.PassHidden,
		BaselineSaved:  p.BaselineSaved,
		PassSaved:      p.PassSaved,
		BaselineTime:   p.BaselineTime,
		PassTime:       p.PassTime,
	}
}

// FaultsPoint mirrors exp.DegradationPoint: one (ring size,
// dead-wavelength count) cell of the degradation sweep.
type FaultsPoint struct {
	N                    int     `json:"n"`
	Dead                 int     `json:"dead"`
	EffectiveWavelengths int     `json:"effective_wavelengths"`
	Steps                int     `json:"steps"`
	StaticTime           float64 `json:"static_seconds"`
	Slowdown             float64 `json:"slowdown"`
	InjectedTime         float64 `json:"injected_seconds"`
	Reschedules          int     `json:"reschedules"`
}

// FaultsPointFrom converts a degradation point into its API mirror.
func FaultsPointFrom(p exp.DegradationPoint) FaultsPoint {
	return FaultsPoint{
		N:                    p.N,
		Dead:                 p.Dead,
		EffectiveWavelengths: p.EffW,
		Steps:                p.Steps,
		StaticTime:           p.StaticTime,
		Slowdown:             p.Slowdown,
		InjectedTime:         p.InjectedTime,
		Reschedules:          p.Reschedules,
	}
}

// SweepResponse reports one named sweep; exactly one of the payload
// fields is populated, matching the request's sweep name.
type SweepResponse struct {
	Version     string             `json:"version"`
	Sweep       string             `json:"sweep"`
	CrossFabric *CrossFabricResult `json:"crossfabric,omitempty"`
	Overlap     []OverlapPoint     `json:"overlap,omitempty"`
	Faults      []FaultsPoint      `json:"faults,omitempty"`
}

// PlanPoint mirrors exp.PlanPoint: one planned and cross-checked grid
// point of the all-to-all planner sweep.
type PlanPoint struct {
	Fabric      string  `json:"fabric"`
	R           int     `json:"r"`
	Wavelengths int     `json:"wavelengths"`
	AMicro      float64 `json:"a_micro"`
	Chosen      string  `json:"chosen"`
	ChosenSteps int     `json:"chosen_steps"`
	Predicted   float64 `json:"predicted_seconds"`
	Simulated   float64 `json:"simulated_seconds"`
	Argmin      bool    `json:"argmin"`
	OneShot     float64 `json:"one_shot_seconds,omitempty"`
	Fallback    float64 `json:"fallback_seconds,omitempty"`
}

// PlanPointFrom converts a planner grid point into its API mirror.
func PlanPointFrom(p exp.PlanPoint) PlanPoint {
	return PlanPoint{
		Fabric:      p.Fabric,
		R:           p.R,
		Wavelengths: p.W,
		AMicro:      p.AMicro,
		Chosen:      p.Chosen,
		ChosenSteps: p.ChosenSteps,
		Predicted:   p.Predicted,
		Simulated:   p.Simulated,
		Argmin:      p.Argmin,
		OneShot:     p.OneShot,
		Fallback:    p.Fallback,
	}
}

// RescuePoint mirrors exp.RescuePoint: the planner rescue of one
// fallback configuration.
type RescuePoint struct {
	N             int     `json:"n"`
	Wavelengths   int     `json:"wavelengths"`
	FinalR        int     `json:"final_r"`
	Requirement   int     `json:"requirement"`
	FallbackSteps int     `json:"fallback_steps"`
	PlannedSteps  int     `json:"planned_steps"`
	FallbackTime  float64 `json:"fallback_seconds"`
	PlannedTime   float64 `json:"planned_seconds"`
	Speedup       float64 `json:"speedup"`
}

// RescuePointFrom converts a rescue point into its API mirror.
func RescuePointFrom(p exp.RescuePoint) RescuePoint {
	return RescuePoint{
		N:             p.N,
		Wavelengths:   p.W,
		FinalR:        p.FinalR,
		Requirement:   p.Requirement,
		FallbackSteps: p.FallbackSteps,
		PlannedSteps:  p.PlannedSteps,
		FallbackTime:  p.FallbackTime,
		PlannedTime:   p.PlannedTime,
		Speedup:       p.Speedup,
	}
}

// PlanResponse reports the planner grid sweep plus the rescue table.
type PlanResponse struct {
	Version string        `json:"version"`
	Points  []PlanPoint   `json:"points"`
	Rescue  []RescuePoint `json:"rescue,omitempty"`
}

// FigureSeries mirrors metrics.Series: one named line of a figure, Y
// indexed like the figure's x ticks.
type FigureSeries struct {
	Name string    `json:"name"`
	Y    []float64 `json:"y"`
}

// Figure mirrors metrics.Figure: one subplot of the paper's normalized
// line charts with its raw series, in figure order.
type Figure struct {
	Name    string         `json:"name"`
	Title   string         `json:"title"`
	XLabel  string         `json:"x_label"`
	YLabel  string         `json:"y_label"`
	XTicks  []string       `json:"x_ticks"`
	Series  []FigureSeries `json:"series"`
	Comment string         `json:"comment,omitempty"`
}

// FigureFrom converts a rendered figure into its API mirror under name
// ("fig4", "fig5-0", ...).
func FigureFrom(name string, f *metrics.Figure) Figure {
	out := Figure{
		Name:    name,
		Title:   f.Title,
		XLabel:  f.XLabel,
		YLabel:  f.YLabel,
		XTicks:  f.XTicks,
		Comment: f.Comment,
	}
	for _, s := range f.Series {
		out.Series = append(out.Series, FigureSeries{Name: s.Name, Y: s.Y})
	}
	return out
}

// FiguresResponse carries the raw series of the figure subcommands
// (wrhtsim fig4–fig7 and all with -json).
type FiguresResponse struct {
	Version string   `json:"version"`
	Figures []Figure `json:"figures"`
}
