// Package wrht is a Go implementation of WRHT (Wavelength Reused
// Hierarchical Tree), the all-reduce scheme for optical ring
// interconnects from
//
//	Dai, Chen, Huang, Zhang. "WRHT: Efficient All-reduce for Distributed
//	DNN Training in Optical Interconnect Systems." ICPP 2023.
//
// together with everything needed to reproduce the paper's evaluation:
// the baseline collectives (Ring, hierarchical Ring, binary tree,
// recursive halving/doubling), a TeraRack-style optical-ring simulator
// (Eq 6 timing, wavelength-conflict validation, §4.4 physical
// constraints), a flow-level electrical fat-tree simulator, the four DNN
// workload models, and a real data-plane executor that runs any schedule
// on in-process workers.
//
// # Quick start
//
//	sched, err := wrht.Build(wrht.KindWRHT, 15, wrht.WithWavelengths(2))
//	// sched.NumSteps() == 3 (the paper's Fig-2 motivating example)
//	out, err := wrht.AllReduce(sched, vectors, true) // real float32 data
//	res, err := wrht.Simulate(wrht.Optical, sched, 100e6)
//
// Build (build.go) is the single schedule-construction entrypoint —
// kind plus functional options (WithWavelengths, WithGroupSize,
// WithFaults, …) — and Simulate (simulate.go) the single simulation
// entrypoint over both fabrics; fault injection and degraded-mode
// scheduling are exposed through faults.go. The helpers below are the
// public route to what those two do not cover: analytic step profiles,
// the step-count analysis, the §4.4 constraints, the Table-2 defaults,
// the workload models and the data-plane and MRR-level executors.
//
// The package is a facade over the implementation packages under
// internal/; the experiment harness behind `cmd/wrhtsim` and the root
// benchmarks lives in internal/exp.
package wrht

import (
	"wrht/internal/cluster"
	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/electrical"
	"wrht/internal/optical"
	"wrht/internal/phys"
	"wrht/internal/tensor"
)

// Core schedule model (see internal/core for full documentation).
type (
	// Config parameterizes WRHT schedule construction: ring size N,
	// wavelength budget, optional explicit group size m and the §4.4
	// MaxGroupSize clamp.
	Config = core.Config
	// Schedule is an explicit bulk-synchronous collective schedule.
	Schedule = core.Schedule
	// Step is one communication step (one MRR reconfiguration).
	Step = core.Step
	// Transfer is one wavelength-assigned circuit within a step.
	Transfer = core.Transfer
	// Profile is the analytic step profile used for O(1)-per-step timing
	// at paper scale.
	Profile = core.Profile
	// Vector is a float32 gradient vector.
	Vector = tensor.Vector
	// Model is a DNN workload (layer table with parameters and FLOPs).
	Model = dnn.Model
	// OpticalParams is the Table-2 optical system configuration.
	OpticalParams = optical.Params
	// ElectricalParams is the Table-2 electrical system configuration.
	ElectricalParams = electrical.Params
	// Budget is the §4.4 optical link budget (insertion loss, crosstalk).
	Budget = phys.Budget
)

// Analytic step profiles for timing at arbitrary scale.
func WRHTProfile(cfg Config) (Profile, error) { return collective.WRHTProfile(cfg) }
func RingProfile(n int) Profile               { return collective.RingProfile(n) }
func BTProfile(n int) Profile                 { return collective.BTProfile(n) }
func HRingProfile(n, m, w int) Profile        { return collective.HRingProfile(n, m, w) }

// Steps returns the analytic WRHT step structure (θ, levels, whether the
// final all-to-all is used) without building transfers.
func Steps(cfg Config) (core.WRHTSteps, error) { return core.StepsWRHT(cfg) }

// LowerBoundSteps returns Lemma 1's bound 2⌈log_{2w+1}N⌉.
func LowerBoundSteps(n, w int) int { return core.LowerBoundSteps(n, w) }

// AllReduce executes the schedule on real data: worker i contributes
// inputs[i], and the returned slice holds every worker's final vector
// (the elementwise sum, divided by len(inputs) when average is set).
// The inputs are not modified.
func AllReduce(s *Schedule, inputs []Vector, average bool) ([]Vector, error) {
	cl, err := cluster.New(inputs)
	if err != nil {
		return nil, err
	}
	if err := cl.AllReduce(s, average); err != nil {
		return nil, err
	}
	return cl.Vectors(), nil
}

// DefaultOpticalParams returns the Table-2 optical configuration
// (64 wavelengths, 40 Gb/s each, 25 µs reconfiguration, 72 B packets).
func DefaultOpticalParams() OpticalParams { return optical.DefaultParams() }

// DefaultElectricalParams returns the Table-2 electrical configuration
// (two-level fat-tree of 32-port routers, 40 Gb/s links, 25 µs per hop).
func DefaultElectricalParams() ElectricalParams { return electrical.DefaultParams() }

// DefaultBudget returns a representative TeraRack-class optical link
// budget for the §4.4 constraint analysis.
func DefaultBudget() Budget { return phys.DefaultBudget() }

// MaxGroupSize returns m′, the largest grouped-node count satisfying the
// insertion-loss and crosstalk constraints on an n-node ring, capped at
// cap (use 2·wavelengths+1). Feed it into Config.MaxGroupSize.
func MaxGroupSize(b Budget, n, cap int) int { return b.MaxGroupSize(n, cap) }

// Workload models of §5.1.
func BEiTLarge() Model { return dnn.BEiTLarge() }
func VGG16() Model     { return dnn.VGG16() }
func AlexNet() Model   { return dnn.AlexNet() }
func ResNet50() Model  { return dnn.ResNet50() }

// Workloads returns the four paper workloads in figure order.
func Workloads() []Model { return dnn.Workloads() }

// VerifyMRR runs the micro-ring-resonator-level control-plane check on
// every step of the schedule (§3.2): each wavelength must be modulated
// once, reach its receiver unshadowed, and collide with nothing.
func VerifyMRR(s *Schedule) error { return optical.VerifySchedule(s) }

// WDMHRingProfile returns the analytic step profile of the
// WDM-enhanced hierarchical ring (KindWDMHRing).
func WDMHRingProfile(n, m, w int) Profile { return collective.WDMHRingProfile(n, m, w) }
