package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data []float64
		want [3]float64
		med  float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}, 1.5},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}, 2},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}, 3},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}, 55},
		{[]float64{2.5, 1.1, 9.7, 3.3, 3.3, 8.1, 0.4}, [3]float64{1.1, 3.3, 8.1}, 3.3},
	}
	for _, c := range cases {
		q := quartiles(c.data)
		for i := range q {
			if !near(q[i], c.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, q, c.want)
				break
			}
		}
		if m := median(c.data); !near(m, c.med) {
			t.Errorf("median(%v) = %g, want %g", c.data, m, c.med)
		}
	}
	if s := spread([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}); !near(s, 1) {
		t.Errorf("spread = %g, want (82.5-27.5)/55 = 1", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if p := percentile(xs, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", p)
	}
	if n := beyond(xs, percentile(xs, 99)); n != 10 {
		t.Errorf("%d samples beyond p99 of 1..1000, want 10", n)
	}
	if p := percentile(xs, 50); p != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", p)
	}
	if p := percentile([]float64{3, 1, 2}, 99); p != 3 {
		t.Errorf("p99 of 3 samples = %g, want the maximum 3", p)
	}
	if p := percentile(nil, 99); p != 0 {
		t.Errorf("p99 of no samples = %g, want 0", p)
	}
}
