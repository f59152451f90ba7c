// Package optical is the in-house optical interconnect system simulator
// of §5.1: it executes collective schedules on a TeraRack-style WDM ring
// (§3.2, Table 2) and reports communication time under the Eq-6 model.
//
// The simulator is step-driven, mirroring the circuit-switched operation
// of the real system: before every communication step the control plane
// reconfigures the micro-ring resonators (cost a = 25 µs); during the
// step every transfer owns a (direction, wavelength) circuit and streams
// its payload at the per-wavelength line rate (40 Gb/s), so the step
// lasts as long as its largest payload; per-packet O/E/O conversion
// (497 fs per 72-byte packet) is charged on the critical circuit.
package optical

import (
	"fmt"
	"math"

	"wrht/internal/core"
)

// Params holds the optical-system parameters of Table 2.
type Params struct {
	// Wavelengths is the per-waveguide wavelength count (64).
	Wavelengths int
	// BandwidthBps is the per-wavelength line rate in bits per second
	// (40 Gb/s).
	BandwidthBps float64
	// ReconfigDelay is the MRR reconfiguration delay charged before each
	// step, in seconds (25 µs).
	ReconfigDelay float64
	// OEOPerPacket is the O/E/O conversion delay per packet, in seconds
	// (497 fs).
	OEOPerPacket float64
	// PacketBytes is the packet size used for O/E/O accounting (72 B).
	PacketBytes int
	// FibersPerDirection is the physical ring multiplicity (TeraRack
	// routes traffic over two fiber rings per direction). The conflict
	// model conservatively uses a single fiber per direction unless the
	// engine is run with Options.UseFiberMultiplicity, which widens the
	// circuit budget to Wavelengths × FibersPerDirection and rejects
	// multiplicities below one.
	FibersPerDirection int
}

// DefaultParams returns the Table-2 optical configuration.
func DefaultParams() Params {
	return Params{
		Wavelengths:        64,
		BandwidthBps:       40e9,
		ReconfigDelay:      25e-6,
		OEOPerPacket:       497e-15,
		PacketBytes:        72,
		FibersPerDirection: 2,
	}
}

// TimeParams converts the optical parameters to the Eq-6 constants used
// by the closed-form analysis in internal/core.
func (p Params) TimeParams() core.TimeParams {
	return core.TimeParams{
		BytesPerSec:     p.BandwidthBps / 8,
		StepOverheadSec: p.ReconfigDelay,
	}
}

func (p Params) validate() error {
	if p.Wavelengths < 1 {
		return fmt.Errorf("optical: wavelengths %d < 1", p.Wavelengths)
	}
	if p.BandwidthBps <= 0 {
		return fmt.Errorf("optical: bandwidth %g <= 0", p.BandwidthBps)
	}
	if p.PacketBytes < 1 {
		return fmt.Errorf("optical: packet size %d < 1", p.PacketBytes)
	}
	return nil
}

// transferParts returns the serialization and O/E/O components of one
// payload's transfer time.
func (p Params) transferParts(bytes float64) (ser, oeo float64) {
	if bytes <= 0 {
		return 0, 0
	}
	packets := math.Ceil(bytes / float64(p.PacketBytes))
	return bytes * 8 / p.BandwidthBps, packets * p.OEOPerPacket
}

// transferTime returns the serialization plus O/E/O time of one payload.
func (p Params) transferTime(bytes float64) float64 {
	ser, oeo := p.transferParts(bytes)
	return ser + oeo
}

// FeasibleWavelengths reports whether the profile's per-step wavelength
// requirement fits the configured budget.
func (p Params) FeasibleWavelengths(pr core.Profile) bool {
	for _, g := range pr.Groups {
		if g.Wavelengths > p.Wavelengths {
			return false
		}
	}
	return true
}

// EffectiveWavelengths returns the per-direction circuit capacity
// including fiber multiplicity: TeraRack routes traffic over
// FibersPerDirection parallel fiber rings per direction (§3.2), so a
// WRHT configuration may treat the budget as Wavelengths × fibers. The
// single-fiber conflict model stays conservative; this accessor feeds
// the double-ring ablation.
func (p Params) EffectiveWavelengths() int {
	f := p.FibersPerDirection
	if f < 1 {
		f = 1
	}
	return p.Wavelengths * f
}
