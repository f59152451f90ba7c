package ir

import (
	"testing"

	"wrht/internal/core"
)

// BenchmarkIRPipeline measures the full lower → passes → raise path on the N=1024 golden config (CI runs it at
// -benchtime=1x as a smoke test).
func BenchmarkIRPipeline(b *testing.B) {
	s, err := core.BuildWRHT(core.Config{N: 1024, Wavelengths: 64})
	if err != nil {
		b.Fatal(err)
	}
	passes := testPasses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Lower(s, 64)
		if err != nil {
			b.Fatal(err)
		}
		if err := (Pipeline{Passes: passes}).Run(p); err != nil {
			b.Fatal(err)
		}
		if p.Raise() == nil {
			b.Fatal("pipeline lost the program")
		}
	}
}
