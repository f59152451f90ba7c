package topo

import "fmt"

// FatTree is the two-level fat-tree of 32-port routers used for the
// electrical baseline system (§5.1, Table 2): edge routers attach hosts
// on half their ports and connect the other half upward to core routers.
// With 32-port routers an edge serves 16 hosts and has 16 uplinks, so a
// 1024-host cluster uses 64 edge and 32 core routers at full bisection.
type FatTree struct {
	Hosts        int // number of hosts (compute nodes)
	Radix        int // router port count (32 in Table 2)
	HostsPerEdge int // Radix/2
	Edges        int // number of edge routers
	Cores        int // number of core routers
	LinksPerPair int // parallel links between an (edge, core) pair
}

// NewFatTree builds a two-level full-bisection fat-tree for n hosts using
// routers of the given radix. n is rounded up to a whole number of edge
// routers. It panics if radix < 2 or n < 1.
func NewFatTree(n, radix int) FatTree {
	if radix < 2 || radix%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree radix %d must be even and >= 2", radix))
	}
	if n < 1 {
		panic(fmt.Sprintf("topo: fat-tree host count %d < 1", n))
	}
	hpe := radix / 2
	edges := (n + hpe - 1) / hpe
	// Full bisection: edges*hpe uplinks total, each core offers radix
	// downlinks, so cores = ceil(edges*hpe/radix). Each edge spreads its
	// hpe uplinks across the cores round-robin, which caps the usable
	// core count at hpe: beyond ~radix²/4 hosts a two-level topology of
	// fixed-radix routers cannot reach more cores, so the model keeps
	// hpe (idealised wider) cores and the shared router-aggregate
	// capacity becomes the binding constraint — exactly the Table-2
	// "router full bisection bandwidth" bottleneck.
	cores := (edges*hpe + radix - 1) / radix
	if cores < 1 {
		cores = 1
	}
	if cores > hpe {
		cores = hpe
	}
	links := 1
	if cores < hpe {
		links = (hpe + cores - 1) / cores
	}
	return FatTree{
		Hosts:        n,
		Radix:        radix,
		HostsPerEdge: hpe,
		Edges:        edges,
		Cores:        cores,
		LinksPerPair: links,
	}
}

// EdgeOf returns the edge router index serving host h.
func (f FatTree) EdgeOf(h int) int { return h / f.HostsPerEdge }

// Uplink identifies one directed edge<->core link by the uplink slot
// (0..HostsPerEdge-1) it uses on the edge router.
type Uplink struct {
	Edge int
	Slot int
}

// CoreOf returns the core router reached through uplink slot s of any
// edge router (uplinks are spread round-robin over cores).
func (f FatTree) CoreOf(s int) int { return s % f.Cores }

// Route lengths: an inter-edge route crosses host->edge->core->edge->host.
const (
	MaxPathRouters = 3
	MaxPathLinks   = 4
)

// Path describes the route of a flow: the routers traversed and the
// directed links crossed. Links are identified by opaque integer ids so
// the flow-level simulator can map them to capacity state. The ids live
// in fixed-size arrays, so routing allocates nothing; only the first
// NRouters and NLinks entries are meaningful. Router ids: edge routers
// are 0..Edges-1, core routers Edges..Edges+Cores-1.
type Path struct {
	Routers  [MaxPathRouters]int // router ids traversed, for latency accounting
	Links    [MaxPathLinks]int   // directed link ids traversed, for bandwidth sharing
	NRouters int
	NLinks   int
}

// Link id layout (all directed):
//
//	host h up:    0*S + h
//	host h down:  1*S + h
//	edge e slot s up (edge->core):   2*S + e*HostsPerEdge + s
//	edge e slot s down (core->edge): 3*S + e*HostsPerEdge + s
//
// where S = stride, a number larger than any per-class index.
func (f FatTree) stride() int { return max(f.Hosts, f.Edges*f.HostsPerEdge) + 1 }

// NumLinks returns an upper bound on link ids produced by Route,
// suitable for sizing dense arrays.
func (f FatTree) NumLinks() int { return 4 * f.stride() }

// Route returns the shortest path from host src to host dst. Flows
// within one edge router go host->edge->host (one router); flows between
// edges go host->edge->core->edge->host (three routers). The uplink slot
// is chosen deterministically from the source host so that distinct
// hosts on an edge spread over distinct uplinks (SimGrid-style static
// shortest-path routing, Table 2).
//
// Route allocates nothing and reads each tree field once instead of
// calling the value-receiver helpers (stride, EdgeOf, CoreOf), each of
// which would copy the tree: it runs once per flow of every fat-tree
// step the fluid model solves.
func (f FatTree) Route(src, dst int) Path {
	hosts, hpe, edges, cores := f.Hosts, f.HostsPerEdge, f.Edges, f.Cores
	if src < 0 || src >= hosts || dst < 0 || dst >= hosts {
		panic(fmt.Sprintf("topo: fat-tree route %d->%d out of range [0,%d)", src, dst, hosts))
	}
	if src == dst {
		return Path{}
	}
	s := max(hosts, edges*hpe) + 1
	se, de := src/hpe, dst/hpe
	if se == de {
		return Path{
			Routers:  [MaxPathRouters]int{se},
			Links:    [MaxPathLinks]int{0*s + src, 1*s + dst},
			NRouters: 1, NLinks: 2,
		}
	}
	slot := src - se*hpe
	core := slot % cores
	// The downlink from the core to the destination edge must be a slot
	// congruent to the core index (those are the parallel links between
	// this core and the destination edge). Spread flows over them by a
	// mix of source slot and source edge so that hosts of one edge and
	// same-slot hosts of different edges land on different links.
	lpp := max(1, f.LinksPerPair)
	dslot := core + cores*((slot/cores+se)%lpp)
	if dslot >= hpe {
		dslot = core
	}
	return Path{
		Routers: [MaxPathRouters]int{se, edges + core, de},
		Links: [MaxPathLinks]int{
			0*s + src,
			2*s + se*hpe + slot,
			3*s + de*hpe + dslot,
			1*s + dst,
		},
		NRouters: MaxPathRouters, NLinks: MaxPathLinks,
	}
}

// NumRouters returns the total router count (edge + core).
func (f FatTree) NumRouters() int { return f.Edges + f.Cores }
