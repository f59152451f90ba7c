package core

import (
	"testing"

	"wrht/internal/tensor"
	"wrht/internal/topo"
)

func TestTorusScheduleStepsMatchAnalysis(t *testing.T) {
	cases := []struct{ r, c, w, m int }{
		{4, 4, 2, 0}, {8, 8, 4, 0}, {3, 15, 2, 5}, {16, 16, 64, 0}, {1, 8, 2, 0}, {8, 1, 2, 0},
	}
	for _, cse := range cases {
		tor := topo.NewTorus(cse.r, cse.c)
		s, err := BuildWRHTTorus(tor, cse.w, cse.m)
		if err != nil {
			t.Fatalf("%dx%d: %v", cse.r, cse.c, err)
		}
		want, err := StepsWRHTTorus(tor, cse.w, cse.m)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumSteps() != want {
			t.Errorf("%dx%d: built %d steps, analysis %d", cse.r, cse.c, s.NumSteps(), want)
		}
		if err := ValidateTorus(s, tor, cse.w); err != nil {
			t.Errorf("%dx%d: %v", cse.r, cse.c, err)
		}
	}
}

func TestTorusBeatsFlatRingOnSteps(t *testing.T) {
	// A 32×32 torus with few wavelengths needs far fewer steps than the
	// same 1024 nodes on a single ring (the §6.1 motivation).
	tor := topo.NewTorus(32, 32)
	torSteps, err := StepsWRHTTorus(tor, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := StepsWRHT(Config{N: 1024, Wavelengths: 4})
	if err != nil {
		t.Fatal(err)
	}
	if torSteps > flat.Total {
		t.Errorf("torus steps %d > flat ring steps %d", torSteps, flat.Total)
	}
}

func TestValidateTorusRejectsDiagonal(t *testing.T) {
	tor := topo.NewTorus(4, 4)
	s := &Schedule{Ring: topo.NewRing(16), Steps: []Step{{
		Transfers: []Transfer{{Src: 0, Dst: 5, Chunk: whole()}}, // (0,0)->(1,1)
	}}}
	if err := ValidateTorus(s, tor, 0); err == nil {
		t.Fatal("diagonal transfer accepted")
	}
}

// TestValidate2DRejectsMalformedTransfers runs the per-transfer checks
// the ring validator applies through both 2-D validators: every row
// must be rejected by ValidateTorus and by ValidateMesh.
func TestValidate2DRejectsMalformedTransfers(t *testing.T) {
	tor := topo.NewTorus(2, 5)
	cases := []struct {
		name string
		tr   Transfer
	}{
		{"node outside grid", Transfer{Src: 0, Dst: 20, Chunk: whole(), Dir: topo.CW}},
		{"negative node", Transfer{Src: -1, Dst: 4, Chunk: whole(), Dir: topo.CW}},
		{"invalid chunk", Transfer{Src: 0, Dst: 1, Chunk: tensor.Chunk{Index: 5, Of: 2}, Dir: topo.CW}},
		{"self transfer cw", Transfer{Src: 3, Dst: 3, Chunk: whole(), Dir: topo.CW}},
		{"self transfer ccw", Transfer{Src: 3, Dst: 3, Chunk: whole(), Dir: topo.CCW}},
		{"negative wavelength", Transfer{Src: 0, Dst: 1, Chunk: whole(), Dir: topo.CW, Wavelength: -1}},
	}
	for _, c := range cases {
		s := &Schedule{Ring: topo.NewRing(tor.N()), Steps: []Step{{Transfers: []Transfer{c.tr}}}}
		if err := ValidateTorus(s, tor, 0); err == nil {
			t.Errorf("%s: ValidateTorus accepted %v", c.name, c.tr)
		}
		if err := ValidateMesh(s, topo.Mesh(tor), 0); err == nil {
			t.Errorf("%s: ValidateMesh accepted %v", c.name, c.tr)
		}
	}
}
