package exp

import (
	"fmt"
	"math/rand"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/dnn"
	"wrht/internal/fabric"
	"wrht/internal/metrics"
)

// Stragglers studies a question the paper's deterministic model cannot
// ask: how sensitive is each all-reduce to per-circuit jitter? Every
// transfer's duration is multiplied by (1 + |N(0, sigma)|) on a
// jittered optical ring, and because steps are barriers, an algorithm
// with many small steps (Ring) absorbs jitter differently from one with
// few large steps (WRHT): Ring pays max-of-N on every one of its 2(N−1)
// steps but each straggle is small, while WRHT pays max-of-N on 3 steps
// of full-gradient size. Trials stay sequential — they share one seeded
// RNG, and reproducibility for a fixed seed is part of the contract.
func Stragglers(o Options, model dnn.Model, n, w int, sigma float64, trials int, seed int64) (*metrics.Table, error) {
	t := &metrics.Table{
		Title: fmt.Sprintf("Straggler sensitivity: %s, N=%d, w=%d, per-transfer jitter ~|N(0,%.2f)| (%d trials)",
			model.Name, n, w, sigma, trials),
		Headers: []string{"Algorithm", "clean (ms)", "mean jittered (ms)", "slowdown"},
	}
	d := float64(model.GradBytes())
	scheds := []*core.Schedule{}
	if s, err := core.BuildWRHT(core.Config{N: n, Wavelengths: w}); err == nil {
		scheds = append(scheds, s)
	}
	scheds = append(scheds, collective.BuildRing(n), collective.BuildBT(n))
	rng := rand.New(rand.NewSource(seed))
	clean, err := o.Optical.Fabric()
	if err != nil {
		return nil, fmt.Errorf("exp: stragglers: %w", err)
	}
	jittered, err := o.Optical.JitteredFabric(func(nominal float64) float64 {
		f := rng.NormFloat64() * sigma
		if f < 0 {
			f = -f
		}
		return nominal * (1 + f)
	})
	if err != nil {
		return nil, fmt.Errorf("exp: stragglers: %w", err)
	}
	for _, s := range scheds {
		base, err := fabric.Engine{Fabric: clean}.RunSchedule(s, d)
		if err != nil {
			return nil, fmt.Errorf("exp: stragglers (%s): %w", s.Algorithm, err)
		}
		var sum float64
		for tr := 0; tr < trials; tr++ {
			res, err := fabric.Engine{Fabric: jittered}.RunSchedule(s, d)
			if err != nil {
				return nil, fmt.Errorf("exp: stragglers (%s, trial %d): %w", s.Algorithm, tr, err)
			}
			sum += res.Time
		}
		mean := sum / float64(trials)
		t.AddRow(s.Algorithm,
			fmt.Sprintf("%.2f", base.Time*1e3),
			fmt.Sprintf("%.2f", mean*1e3),
			fmt.Sprintf("%.3fx", mean/base.Time))
	}
	return t, nil
}
