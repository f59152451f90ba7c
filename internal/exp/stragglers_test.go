package exp

import (
	"reflect"
	"testing"

	"wrht/internal/dnn"
)

// TestStragglersGolden pins the straggler table `wrhtsim all` prints
// (ResNet50, N=256, w=64, σ=0.2, 20 trials, seed 1) cell for cell. The
// jitter is drawn from one seeded stream in transfer order, so any
// change to how or how often a trial draws shows up here.
func TestStragglersGolden(t *testing.T) {
	tab, err := Stragglers(Defaults(), dnn.ResNet50(), 256, 64, 0.2, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	const title = "Straggler sensitivity: ResNet50, N=256, w=64, per-transfer jitter ~|N(0,0.20)| (20 trials)"
	if tab.Title != title {
		t.Errorf("title = %q, want %q", tab.Title, title)
	}
	want := [][]string{
		{"wrht", "61.48", "90.89", "1.478x"},
		{"ring", "53.53", "78.32", "1.463x"},
		{"bt", "327.88", "450.76", "1.375x"},
	}
	if !reflect.DeepEqual(tab.Rows, want) {
		t.Errorf("rows = %q, want %q", tab.Rows, want)
	}
}
