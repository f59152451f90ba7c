package topo

import (
	"testing"
	"testing/quick"
)

func TestFatTreeShape(t *testing.T) {
	cases := []struct {
		hosts, radix      int
		edges, cores, hpe int
	}{
		{1024, 32, 64, 16, 16}, // cores capped at hpe; see NewFatTree doc
		{512, 32, 32, 16, 16},
		{128, 32, 8, 4, 16},
		{16, 32, 1, 1, 16},
	}
	for _, c := range cases {
		f := NewFatTree(c.hosts, c.radix)
		if f.Edges != c.edges || f.Cores != c.cores || f.HostsPerEdge != c.hpe {
			t.Errorf("NewFatTree(%d,%d) = edges %d cores %d hpe %d, want %d %d %d",
				c.hosts, c.radix, f.Edges, f.Cores, f.HostsPerEdge, c.edges, c.cores, c.hpe)
		}
	}
}

func TestRouteIntraEdge(t *testing.T) {
	f := NewFatTree(1024, 32)
	p := f.Route(3, 7) // both on edge 0
	if p.NRouters != 1 || p.Routers[0] != 0 {
		t.Fatalf("intra-edge route routers = %v", p.Routers)
	}
	if p.NLinks != 2 {
		t.Fatalf("intra-edge route links = %v", p.Links)
	}
}

func TestRouteInterEdge(t *testing.T) {
	f := NewFatTree(1024, 32)
	p := f.Route(3, 900)
	if p.NRouters != 3 {
		t.Fatalf("inter-edge route routers = %v", p.Routers)
	}
	if p.Routers[0] != f.EdgeOf(3) || p.Routers[2] != f.EdgeOf(900) {
		t.Fatalf("route endpoints wrong: %v", p.Routers)
	}
	core := p.Routers[1]
	if core < f.Edges || core >= f.Edges+f.Cores {
		t.Fatalf("middle router %d is not a core", core)
	}
	if p.NLinks != 4 {
		t.Fatalf("inter-edge route links = %v", p.Links)
	}
}

func TestRouteSelf(t *testing.T) {
	f := NewFatTree(64, 32)
	p := f.Route(5, 5)
	if p != (Path{}) {
		t.Fatalf("self route should be empty, got %+v", p)
	}
}

func TestRouteLinkIDsWithinBounds(t *testing.T) {
	f := NewFatTree(256, 32)
	limit := f.NumLinks()
	q := func(sRaw, dRaw uint16) bool {
		s, d := int(sRaw)%256, int(dRaw)%256
		p := f.Route(s, d)
		for _, l := range p.Links[:p.NLinks] {
			if l < 0 || l >= limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(q, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteAllocatesNothing(t *testing.T) {
	f := NewFatTree(1024, 32)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for _, d := range []int{7, 900} {
			p := f.Route(3, d)
			sink += p.Links[p.NLinks-1] + p.Routers[p.NRouters-1]
		}
	})
	if allocs != 0 {
		t.Fatalf("Route allocates %.0f times per call pair, want 0", allocs)
	}
	_ = sink
}

func TestRouteSpreadsUplinks(t *testing.T) {
	// The 16 hosts of one edge sending to another edge must use 16
	// distinct uplinks (static spreading avoids artificial collisions).
	f := NewFatTree(1024, 32)
	seen := map[int]bool{}
	for h := 0; h < 16; h++ {
		p := f.Route(h, 512+h)
		up := p.Links[1]
		if seen[up] {
			t.Fatalf("uplink %d reused by host %d", up, h)
		}
		seen[up] = true
	}
}

func TestRoutePanicsOutOfRange(t *testing.T) {
	f := NewFatTree(16, 32)
	defer func() {
		if recover() == nil {
			t.Fatal("Route out of range did not panic")
		}
	}()
	f.Route(0, 99)
}

func TestNewFatTreePanics(t *testing.T) {
	for _, c := range []struct{ n, radix int }{{0, 32}, {16, 3}, {16, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFatTree(%d,%d) did not panic", c.n, c.radix)
				}
			}()
			NewFatTree(c.n, c.radix)
		}()
	}
}

func TestTorusRings(t *testing.T) {
	tor := NewTorus(3, 4)
	if tor.N() != 12 {
		t.Fatalf("N = %d", tor.N())
	}
	ring, ids := tor.RowRing(1)
	if ring.N != 4 || ids[0] != 4 || ids[3] != 7 {
		t.Fatalf("RowRing(1) = %v %v", ring, ids)
	}
	cring, cids := tor.ColRing(2)
	if cring.N != 3 || cids[0] != 2 || cids[2] != 10 {
		t.Fatalf("ColRing(2) = %v %v", cring, cids)
	}
	r, c := tor.Coord(7)
	if r != 1 || c != 3 || tor.Index(r, c) != 7 {
		t.Fatalf("Coord/Index roundtrip broken: %d %d", r, c)
	}
}

func TestMesh(t *testing.T) {
	m := NewMesh(2, 5)
	if m.N() != 10 {
		t.Fatalf("N = %d", m.N())
	}
	if lo, hi := LineSegments(4, 1); lo != 1 || hi != 4 {
		t.Fatalf("LineSegments(4,1) = %d,%d", lo, hi)
	}
	r, c := m.Coord(7)
	if r != 1 || c != 2 || m.Index(r, c) != 7 {
		t.Fatalf("mesh coord roundtrip: %d %d", r, c)
	}
}
