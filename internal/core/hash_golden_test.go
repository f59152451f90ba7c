package core_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wrht/internal/collective"
	"wrht/internal/core"
	"wrht/internal/fault"
	"wrht/internal/rwa"
	"wrht/internal/topo"
)

var updateHashes = flag.Bool("update-schedule-hashes", false, "rewrite testdata/schedule_hashes.txt")

// hashRow accumulates the Schedule.WriteTo bytes of every build in one
// golden row; a failed build contributes only an "error" marker, so the
// set of rejected configurations is pinned but not their message text.
type hashRow struct {
	key string
	h   hash.Hash
}

func newHashRow(format string, args ...any) *hashRow {
	return &hashRow{key: fmt.Sprintf(format, args...), h: sha256.New()}
}

func (r *hashRow) add(label string, s *core.Schedule, err error) {
	fmt.Fprintf(r.h, "%s\n", label)
	if err != nil {
		fmt.Fprintf(r.h, "error\n")
		return
	}
	if _, err := s.WriteTo(r.h); err != nil {
		panic(err)
	}
}

func (r *hashRow) line() string {
	return fmt.Sprintf("%s\t%x", r.key, r.h.Sum(nil)[:8])
}

// scheduleHashRows builds the golden grid: every ring, line, torus,
// mesh, segment, WDM-HRing and degraded WRHT construction over the
// sizes below, one row per (family, size).
func scheduleHashRows() []string {
	var rows []string
	emit := func(r *hashRow) { rows = append(rows, r.line()) }

	type wrhtCase struct{ n, w, m int }
	var wrhtRows [][]wrhtCase
	for n := 1; n <= 70; n++ {
		var cs []wrhtCase
		for _, w := range []int{1, 2, 3, 4, 8, 16} {
			for _, m := range []int{0, 3, 5} {
				if m <= n {
					cs = append(cs, wrhtCase{n, w, m})
				}
			}
		}
		wrhtRows = append(wrhtRows, cs)
	}
	for _, n := range []int{200, 1024, 4096} {
		var cs []wrhtCase
		for _, w := range []int{4, 8, 64} {
			cs = append(cs, wrhtCase{n, w, 0})
		}
		wrhtRows = append(wrhtRows, cs)
	}
	variants := []struct {
		name  string
		build func(core.Config) (*core.Schedule, error)
	}{
		{"wrht", core.BuildWRHT},
		{"wrht-plan", func(c core.Config) (*core.Schedule, error) {
			c.PlanAllToAll = true
			return core.BuildWRHT(c)
		}},
		{"line", core.BuildWRHTLine},
		{"line-no-a2a", func(c core.Config) (*core.Schedule, error) {
			c.DisableAllToAll = true
			return core.BuildWRHTLine(c)
		}},
	}
	for _, v := range variants {
		for _, cs := range wrhtRows {
			r := newHashRow("%s N=%d", v.name, cs[0].n)
			for _, c := range cs {
				s, err := v.build(core.Config{N: c.n, Wavelengths: c.w, GroupSize: c.m})
				r.add(fmt.Sprintf("w=%d m=%d", c.w, c.m), s, err)
			}
			emit(r)
		}
	}
	for _, n := range []int{15, 40, 64} {
		r := newHashRow("wrht-randomfit N=%d", n)
		for _, w := range []int{2, 4, 8} {
			s, err := core.BuildWRHT(core.Config{N: n, Wavelengths: w, Strategy: rwa.RandomFit, Seed: 11})
			r.add(fmt.Sprintf("w=%d", w), s, err)
		}
		emit(r)
	}

	grid2D := func(rows, cols int, ws, ms []int) {
		t := topo.Torus{Rows: rows, Cols: cols}
		tr, mr := newHashRow("torus %dx%d", rows, cols), newHashRow("mesh %dx%d", rows, cols)
		for _, w := range ws {
			for _, m := range ms {
				label := fmt.Sprintf("w=%d m=%d", w, m)
				s, err := core.BuildWRHTTorus(t, w, m)
				tr.add(label, s, err)
				s, err = core.BuildWRHTMesh(topo.Mesh(t), w, m)
				mr.add(label, s, err)
			}
		}
		emit(tr)
		emit(mr)
	}
	for rows := 1; rows <= 12; rows++ {
		for cols := 1; cols <= 12; cols++ {
			grid2D(rows, cols, []int{1, 2, 4, 8}, []int{0, 3})
		}
	}
	for _, d := range [][2]int{{32, 32}, {16, 64}, {64, 16}} {
		grid2D(d[0], d[1], []int{4, 8, 64}, []int{0})
	}

	for i, parts := range [][]int{
		{10, 11, 12, 13, 14, 15, 16, 17},
		{3, 7, 20, 21, 40},
		{0, 2, 3, 5, 8, 13, 21, 22, 23, 30, 34, 41, 50, 55, 60, 63},
	} {
		r := newHashRow("segment set=%d", i)
		for _, w := range []int{1, 2, 4, 8} {
			s, err := core.BuildWRHTSegment(64, parts, w, 0)
			r.add(fmt.Sprintf("w=%d", w), s, err)
		}
		emit(r)
	}

	for _, nm := range [][2]int{{8, 4}, {16, 4}, {100, 10}, {64, 8}, {60, 12}, {96, 32}} {
		r := newHashRow("wdm-hring n=%d m=%d", nm[0], nm[1])
		for _, w := range []int{1, 2, 4, 8, 64} {
			s, err := collective.BuildWDMHRing(nm[0], nm[1], w)
			r.add(fmt.Sprintf("w=%d", w), s, err)
		}
		emit(r)
	}

	for _, n := range []int{16, 64, 100} {
		for seed := int64(1); seed <= 4; seed++ {
			r := newHashRow("masked N=%d seed=%d", n, seed)
			for _, w := range []int{2, 4, 8} {
				sp := fault.Spec{Seed: seed, Nodes: int(seed % 3), Transceivers: 1, Wavelengths: 1, Segments: 1, WavelengthBudget: w}
				s, err := core.BuildWRHTMasked(core.Config{N: n, Wavelengths: w}, sp.Sample(n))
				r.add(fmt.Sprintf("w=%d", w), s, err)
			}
			emit(r)
		}
	}

	reqs := func(name string, f func(int) int) {
		var b strings.Builder
		for k := 0; k <= 80; k++ {
			if k > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprint(&b, f(k))
		}
		rows = append(rows, fmt.Sprintf("%s k=0..80\t%s", name, b.String()))
	}
	reqs("AllToAllRequirement", core.AllToAllRequirement)
	reqs("LineAllToAllRequirement", core.LineAllToAllRequirement)
	return rows
}

// TestScheduleHashGolden pins the exact bytes of every WRHT-family
// construction over a grid of sizes, budgets and group sizes, so a
// refactor of the grouping recursion, the all-to-all templates or the
// 2-D builders shows up as a named row. Regenerate with
// `go test ./internal/core -run ScheduleHashGolden -update-schedule-hashes`
// only for an intended schedule change.
func TestScheduleHashGolden(t *testing.T) {
	got := scheduleHashRows()
	path := filepath.Join("testdata", "schedule_hashes.txt")
	if *updateHashes {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-schedule-hashes): %v", err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 20 {
				t.Errorf("row %d:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 20 {
		t.Errorf("... %d rows differ in total", bad)
	}
}
