// Package electrical simulates the electrical packet-switched baseline
// system of §5.1: a two-level fat-tree of 32-port routers (Table 2)
// carrying the same collective schedules the optical simulator runs.
// It substitutes for the paper's SimGrid 3.3 setup with the same class
// of model SimGrid uses: flow-level simulation with max–min fair
// bandwidth sharing on links plus a fixed per-router forwarding delay.
//
// Two capacity constraints shape each flow's rate:
//
//   - every directed link carries at most LinkBps, and
//   - optionally, every router forwards at most RouterAggBps aggregate,
//     shared max–min among the flows traversing it (an oversubscription
//     ablation; Table 2's "router full bisection bandwidth" reads as
//     full bisection, so the default leaves this off).
//
// What makes the electrical system lose to circuit-switched optics in
// Fig 7 is (a) per-router forwarding latency on every hop versus one
// MRR reconfiguration per optical step, and (b) per-packet protocol
// headers: with Table 2's 72-byte packets, Ethernet/IP/TCP framing
// costs ~58 bytes per packet, cutting goodput to ~55% of the line rate,
// while the optical data plane carries payloads on a reserved circuit.
package electrical

import (
	"fmt"
	"math"
	"sync"

	"wrht/internal/core"
	"wrht/internal/topo"
)

// Params holds the electrical-system parameters of Table 2.
type Params struct {
	// Radix is the router port count (32).
	Radix int
	// LinkBps is the per-link line rate in bits per second (40 Gb/s).
	LinkBps float64
	// RouterAggBps is the aggregate forwarding capacity of one router in
	// bits per second, shared by all flows traversing it. Zero (the
	// default) disables the constraint, modelling full-bisection routers
	// per Table 2; positive values model oversubscribed routers (used by
	// the ablation benchmarks).
	RouterAggBps float64
	// RouterDelay is the forwarding latency per router traversal in
	// seconds (25 µs).
	RouterDelay float64
	// PacketBytes is the packet payload size (72 B); payloads are
	// packetised and rounded up to whole packets.
	PacketBytes int
	// HeaderBytes is the per-packet framing overhead added on the wire
	// (Ethernet 18 B + IPv4 20 B + TCP 20 B = 58 B). With 72-byte
	// packets this is the dominant electrical handicap.
	HeaderBytes int
}

// DefaultParams returns the Table-2 electrical configuration.
func DefaultParams() Params {
	return Params{
		Radix:       32,
		LinkBps:     40e9,
		RouterDelay: 25e-6,
		PacketBytes: 72,
		HeaderBytes: 58,
	}
}

// Network is a fat-tree instance ready to time collective schedules.
// It is safe for concurrent use: every step solve borrows its scratch
// from the network's pool.
type Network struct {
	Params Params
	Tree   topo.FatTree

	solvers sync.Pool // of *solver sized for Tree
}

// NewNetwork builds the fat-tree for n hosts. It rejects parameters the
// solver cannot time: an odd or too-small radix, a link rate that is
// not positive and finite, a negative or NaN router capacity, a router
// delay that is not non-negative and finite, and negative packet or
// header sizes.
func NewNetwork(n int, p Params) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("electrical: host count %d < 1", n)
	}
	if p.Radix < 2 || p.Radix%2 != 0 {
		return nil, fmt.Errorf("electrical: radix %d must be even and >= 2", p.Radix)
	}
	if !(p.LinkBps > 0) || math.IsInf(p.LinkBps, 1) {
		return nil, fmt.Errorf("electrical: link rate %g must be positive and finite", p.LinkBps)
	}
	if !(p.RouterAggBps >= 0) {
		return nil, fmt.Errorf("electrical: router aggregate rate %g < 0", p.RouterAggBps)
	}
	if !(p.RouterDelay >= 0) || math.IsInf(p.RouterDelay, 1) {
		return nil, fmt.Errorf("electrical: router delay %g must be non-negative and finite", p.RouterDelay)
	}
	if p.PacketBytes < 0 {
		return nil, fmt.Errorf("electrical: packet size %d < 0", p.PacketBytes)
	}
	if p.HeaderBytes < 0 {
		return nil, fmt.Errorf("electrical: header size %d < 0", p.HeaderBytes)
	}
	return &Network{Params: p, Tree: topo.NewFatTree(n, p.Radix)}, nil
}

// solver is the scratch state of one step solve. The step's flows are
// stored as struct-of-arrays in transfer order; the capacity
// constraints live in dense arrays indexed by constraint id (link ids
// 0..NumLinks-1, then router ids offset by NumLinks). A constraint's
// state is valid only while its stamp equals the current epoch, so each
// progressive-filling call resets exactly the constraints it touches.
type solver struct {
	bytes   []float64 // remaining payload per flow
	latency []float64 // router pipeline latency per flow
	rate    []float64 // max–min fair rate per flow, bytes/s
	done    []bool
	off     []int // flow i crosses constraints ids[off[i]:off[i+1]]
	ids     []int

	capLeft []float64 // remaining capacity per constraint, bytes/s
	count   []int     // unfrozen flows crossing each constraint
	stamp   []uint32
	epoch   uint32
	touched []int // constraints stamped in the current epoch
}

// borrow takes a scratch solver sized for the network's tree from the
// pool; stepDuration puts it back.
func (nw *Network) borrow() *solver {
	n := nw.Tree.NumLinks() + nw.Tree.NumRouters()
	if s, _ := nw.solvers.Get().(*solver); s != nil && len(s.stamp) == n {
		return s
	}
	return &solver{
		capLeft: make([]float64, n),
		count:   make([]int, n),
		stamp:   make([]uint32, n),
	}
}

// load routes the step's transfers into the flow arrays: payloads are
// packetised and wire-inflated, and router constraints are attached
// only when the router-aggregate ablation is on.
func (s *solver) load(nw *Network, st core.Step, elems int) {
	p := nw.Params
	numLinks := nw.Tree.NumLinks()
	s.bytes, s.latency, s.rate, s.done = s.bytes[:0], s.latency[:0], s.rate[:0], s.done[:0]
	s.ids, s.off = s.ids[:0], append(s.off[:0], 0)
	for _, t := range st.Transfers {
		b := float64(t.Chunk.Bytes(elems))
		if p.PacketBytes > 0 && b > 0 {
			packets := math.Ceil(b / float64(p.PacketBytes))
			b = packets * float64(p.PacketBytes+p.HeaderBytes)
		}
		path := nw.Tree.Route(t.Src, t.Dst)
		for _, l := range path.Links[:path.NLinks] {
			s.ids = append(s.ids, l)
		}
		if p.RouterAggBps > 0 {
			for _, r := range path.Routers[:path.NRouters] {
				s.ids = append(s.ids, numLinks+r)
			}
		}
		s.off = append(s.off, len(s.ids))
		s.bytes = append(s.bytes, b)
		s.latency = append(s.latency, float64(path.NRouters)*p.RouterDelay)
		s.rate = append(s.rate, 0)
		s.done = append(s.done, false)
	}
}

// stepDuration solves the fluid model for one step: repeatedly compute
// max–min fair rates for the unfinished flows, advance to the next flow
// completion, and repeat. The step ends when the last flow has drained
// and cleared its router pipeline latency; drain is the instant the last
// byte left the wire, so end−drain is the residual router-pipeline tail.
//
// Results are bit-identical to the map-based solver this replaced (the
// oracle of TestDenseSolverMatchesLegacy): every floating-point
// operation is the same and runs in the same order. Flows are visited in
// transfer order; only the bottleneck minimum scans constraints in a
// different order, and a minimum does not depend on order.
func (nw *Network) stepDuration(st core.Step, elems int) (end, drain float64) {
	s := nw.borrow()
	defer nw.solvers.Put(s)
	s.load(nw, st, elems)
	linkCap := nw.Params.LinkBps / 8
	routerCap := nw.Params.RouterAggBps / 8
	numLinks := nw.Tree.NumLinks()
	var now float64
	active := 0
	for i, b := range s.bytes {
		if b > 0 {
			active++
		} else if s.latency[i] > end {
			end = s.latency[i] // zero-byte flow still pays latency
		}
	}
	for active > 0 {
		s.fairShare(linkCap, routerCap, numLinks)
		// Next completion.
		dt := math.Inf(1)
		for i, r := range s.rate {
			if s.done[i] || r <= 0 {
				continue
			}
			if t := s.bytes[i] / r; t < dt {
				dt = t
			}
		}
		if math.IsInf(dt, 1) {
			panic("electrical: active flows with zero rate")
		}
		now += dt
		const eps = 1e-9
		for i := range s.bytes {
			if s.done[i] {
				continue
			}
			s.bytes[i] -= s.rate[i] * dt
			if s.bytes[i] <= eps*math.Max(1, s.rate[i]*dt) {
				s.bytes[i] = 0
				s.done[i] = true
				active--
				if fin := now + s.latency[i]; fin > end {
					end = fin
				}
			}
		}
	}
	return end, now
}

// fairShare computes max–min fair rates (bytes/s) for the unfinished
// flows by progressive filling over the link and router constraints
// they cross; constraint ids below numLinks are links of capacity
// linkCap, the rest routers of capacity routerCap.
func (s *solver) fairShare(linkCap, routerCap float64, numLinks int) {
	if s.epoch++; s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
	for i := range s.bytes {
		if s.done[i] {
			continue
		}
		s.rate[i] = 0
		for _, c := range s.ids[s.off[i]:s.off[i+1]] {
			if s.stamp[c] != s.epoch {
				s.stamp[c] = s.epoch
				s.capLeft[c] = linkCap
				if c >= numLinks {
					s.capLeft[c] = routerCap
				}
				s.count[c] = 0
				s.touched = append(s.touched, c)
			}
			s.count[c]++
		}
	}
	for {
		// Find the tightest constraint among those with unfrozen flows.
		bottleneck := math.Inf(1)
		for _, c := range s.touched {
			if n := s.count[c]; n > 0 {
				if v := s.capLeft[c] / float64(n); v < bottleneck {
					bottleneck = v
				}
			}
		}
		if math.IsInf(bottleneck, 1) {
			return // all flows frozen
		}
		// Freeze every unfrozen flow crossing a binding constraint at the
		// bottleneck share.
		progressed := false
		for i := range s.bytes {
			if s.frozen(i) {
				continue
			}
			cs := s.ids[s.off[i]:s.off[i+1]]
			binding := false
			for _, c := range cs {
				if n := s.count[c]; n > 0 && s.capLeft[c]/float64(n) <= bottleneck*(1+1e-12) {
					binding = true
					break
				}
			}
			if !binding {
				continue
			}
			s.rate[i] = bottleneck
			progressed = true
			for _, c := range cs {
				s.capLeft[c] -= bottleneck
				s.count[c]--
			}
		}
		if !progressed {
			// Numerical guard: freeze everything at the bottleneck.
			for i := range s.bytes {
				if !s.frozen(i) {
					s.rate[i] = bottleneck
				}
			}
			return
		}
	}
}

// frozen reports whether flow i is out of the current filling: done, or
// already holding a positive rate.
func (s *solver) frozen(i int) bool { return s.done[i] || s.rate[i] > 0 }
