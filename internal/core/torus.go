package core

import (
	"fmt"

	"wrht/internal/rwa"
	"wrht/internal/topo"
)

// WRHT on a torus or a mesh (§6.1): the reduce stage of WRHT runs
// inside every row in parallel (all rows are structurally identical, so
// their representatives land in one column), the row representatives
// then run a full WRHT all-reduce on that column, and the row broadcast
// stage replays the row gathers in reverse. Row steps across different
// rows merge into single schedule steps because each row is its own
// waveguide — wavelengths are reused across rows exactly as they are
// across subgroups on the ring. A torus row or column is a ring; a mesh
// row or column is a line, which changes only the column's top exchange
// (the line all-to-all) and adds the no-wraparound rule to the
// validator. topo.Mesh converts to topo.Torus, so one builder (stream2D)
// and one validator (validate2D) serve both.

// BuildWRHTTorus constructs the WRHT all-reduce on an R×C torus with w
// wavelengths per waveguide and first-step group size m (0 = the
// Lemma-1 optimum 2w+1, clamped to the row length). Transfers carry
// global node ids (row·C + col); ValidateTorus checks per-waveguide
// wavelength feasibility. The construction streams through
// StreamWRHTTorus.
func BuildWRHTTorus(t topo.Torus, w, m int) (*Schedule, error) {
	src, err := StreamWRHTTorus(t, w, m)
	if err != nil {
		return nil, err
	}
	return Collect(src), nil
}

// torusStream streams the torus or mesh schedule from compact interned
// templates: the retained state is one CompactStep per row-template
// step (over a C-node row) and per column step (over an R-node column)
// — O(R + C) transfers' worth — while the merged row steps, which carry
// O(N) transfers each, only ever exist one at a time in the emission
// buffer.
type torusStream struct {
	t       topo.Torus
	alg     string
	ring    topo.Ring
	rowTmpl []CompactStep // L gathers then L broadcasts, column ids
	colTmpl []CompactStep // column-stage WRHT, row ids
	gathers int
	repCol  int
	k       int
	buf     Step
}

// StreamWRHTTorus returns a streaming producer of the torus schedule,
// bit-identical to BuildWRHTTorus's output (which is Collect over it).
func StreamWRHTTorus(t topo.Torus, w, m int) (StepSource, error) {
	return stream2D(t, w, m, false)
}

// stream2D builds the torus schedule stream, or the mesh one when line
// is set (rows and columns are lines, named "wrht-mesh").
func stream2D(t topo.Torus, w, m int, line bool) (StepSource, error) {
	kind := "torus"
	if line {
		kind = "mesh"
	}
	if t.Rows < 1 || t.Cols < 1 {
		return nil, fmt.Errorf("core: %s %dx%d invalid", kind, t.Rows, t.Cols)
	}
	ts := &torusStream{t: t, alg: "wrht-" + kind, ring: topo.NewRing(t.N())}
	template := func(cfg Config) ([]CompactStep, error) {
		src, err := newWRHTStream(cfg, line)
		if err != nil {
			return nil, err
		}
		var out []CompactStep
		for st, ok := src.Next(); ok; st, ok = src.Next() {
			out = append(out, CompactOf(*st))
		}
		return out, nil
	}

	// Row reduce/broadcast template on a C-node row (ids = columns). It
	// gathers to a single root, so its last gather names the
	// representative column.
	if t.Cols > 1 {
		var err error
		ts.rowTmpl, err = template(Config{N: t.Cols, Wavelengths: w, GroupSize: m, DisableAllToAll: true})
		if err != nil {
			return nil, fmt.Errorf("core: %s row stage: %w", kind, err)
		}
		ts.gathers = len(ts.rowTmpl) / 2
		ts.repCol = int(ts.rowTmpl[ts.gathers-1].Endpoints[0].Dst)
	}

	// Column stage: full WRHT all-reduce among the row representatives,
	// which all sit in the representative column.
	if t.Rows > 1 {
		colCfg := Config{N: t.Rows, Wavelengths: w, GroupSize: m}
		if colCfg.GroupSize > t.Rows {
			colCfg.GroupSize = 0
		}
		var err error
		ts.colTmpl, err = template(colCfg)
		if err != nil {
			return nil, fmt.Errorf("core: %s column stage: %w", kind, err)
		}
	}
	return ts, nil
}

func (ts *torusStream) Algorithm() string { return ts.alg }
func (ts *torusStream) Ring() topo.Ring   { return ts.ring }

// mergeRows expands one row-template step across every row into the
// emission buffer (each row is its own waveguide, so the template's
// wavelengths are reused across rows unchanged).
func (ts *torusStream) mergeRows(tmpl CompactStep) {
	ts.buf.Phase = tmpl.Phase
	ts.buf.Transfers = ts.buf.Transfers[:0]
	for r := 0; r < ts.t.Rows; r++ {
		tmpl.AppendTo(&ts.buf, func(col int) int { return ts.t.Index(r, col) })
	}
}

func (ts *torusStream) Next() (*Step, bool) {
	k := ts.k
	ts.k++
	switch {
	case k < ts.gathers:
		ts.mergeRows(ts.rowTmpl[k])
	case k < ts.gathers+len(ts.colTmpl):
		ts.colTmpl[k-ts.gathers].ExpandInto(&ts.buf, func(row int) int { return ts.t.Index(row, ts.repCol) })
	case k < len(ts.rowTmpl)+len(ts.colTmpl):
		// Row broadcast stage (reverse of the gathers).
		ts.mergeRows(ts.rowTmpl[k-len(ts.colTmpl)])
	default:
		return nil, false
	}
	return &ts.buf, true
}

// ValidateTorus checks a torus schedule: every transfer must stay within
// one row or one column ring, and per (ring, direction) the wavelength
// assignment must be conflict-free and within the budget (0 disables the
// budget check). Wavelength reuse across distinct rows/columns is free —
// they are separate waveguides.
func ValidateTorus(s *Schedule, t topo.Torus, wavelengths int) error {
	return validate2D(s.Source(), t, wavelengths, false)
}

// validate2D is the torus and mesh validator over a step stream,
// holding one step at a time. Every transfer first passes the checks
// StepValidator applies (checkTransfer), then must stay inside one row
// or column; with line set (a mesh) it must also not wrap, and its
// segments are then exactly the ring arc ArcOf returns. The
// per-domain request/arc/assignment scratch and the domain-bucketing
// map are reused across steps, so validation allocates O(max step)
// regardless of the step count. Each (row/column, index) domain is
// validated by Reset+replay on one shared index per dimension rather
// than the ring validator's delta updates: persisting delta state would
// need one occupancy index per row and column — O(N) words per domain,
// O(N·(R+C)) total — which is exactly the memory class this path exists
// to avoid, while per-domain replay stays near-linear in the domain's
// transfer count.
func validate2D(src StepSource, t topo.Torus, wavelengths int, line bool) error {
	kind := "torus"
	if line {
		kind = "mesh"
	}
	type domain struct {
		row bool
		idx int
	}
	rowRing, colRing := topo.NewRing(t.Cols), topo.NewRing(t.Rows)
	rowIx, colIx := rwa.NewIndex(rowRing), rwa.NewIndex(colRing)
	byDomain := map[domain][]int{}
	var reqs []rwa.Request
	var asn rwa.Assignment
	var arcs []topo.Arc
	// ends returns a transfer's domain and its positions along it.
	ends := func(tr *Transfer) (dom domain, a, b int, ok bool) {
		sr, sc := t.Coord(tr.Src)
		dr, dc := t.Coord(tr.Dst)
		switch {
		case sr == dr:
			return domain{row: true, idx: sr}, sc, dc, true
		case sc == dc:
			return domain{row: false, idx: sc}, sr, dr, true
		}
		return domain{}, 0, 0, false
	}
	for si := 0; ; si++ {
		st, ok := src.Next()
		if !ok {
			return nil
		}
		for dom := range byDomain {
			byDomain[dom] = byDomain[dom][:0]
		}
		for ti := range st.Transfers {
			tr := &st.Transfers[ti]
			if err := checkTransfer(tr, t.N()); err != nil {
				return fmt.Errorf("core: %s step %d transfer %d: %w", kind, si, ti, err)
			}
			dom, a, b, ok := ends(tr)
			if !ok {
				return fmt.Errorf("core: %s step %d transfer %d crosses both dimensions: %v", kind, si, ti, *tr)
			}
			if line && (tr.Dir == topo.CW) != (b > a) {
				return fmt.Errorf("core: %s step %d transfer %d travels %v but %d->%d (would need wraparound)", kind, si, ti, tr.Dir, a, b)
			}
			byDomain[dom] = append(byDomain[dom], ti)
		}
		for dom, tis := range byDomain {
			if len(tis) == 0 {
				continue
			}
			ring, ix := rowRing, rowIx
			if !dom.row {
				ring, ix = colRing, colIx
			}
			reqs, asn, arcs = reqs[:0], asn[:0], arcs[:0]
			for _, ti := range tis {
				tr := &st.Transfers[ti]
				_, a, b, _ := ends(tr)
				reqs = append(reqs, rwa.Request{Src: a, Dst: b, Dir: tr.Dir})
				asn = append(asn, tr.Wavelength)
				arcs = append(arcs, ring.ArcOf(a, b, tr.Dir))
			}
			if err := ix.Validate(reqs, arcs, asn, wavelengths); err != nil {
				return fmt.Errorf("core: %s step %d (%v ring %d): %w", kind, si, dom.row, dom.idx, err)
			}
		}
	}
}

// StepsWRHTTorus returns the analytic step count of the torus scheme:
// 2·L_row (row gathers + broadcasts) plus the column all-reduce θ.
func StepsWRHTTorus(t topo.Torus, w, m int) (int, error) {
	rowSteps := 0
	if t.Cols > 1 {
		cfg := Config{N: t.Cols, Wavelengths: w, GroupSize: m, DisableAllToAll: true}
		st, err := StepsWRHT(cfg)
		if err != nil {
			return 0, err
		}
		rowSteps = st.Total
	}
	colSteps := 0
	if t.Rows > 1 {
		cfg := Config{N: t.Rows, Wavelengths: w, GroupSize: m}
		if cfg.GroupSize > t.Rows {
			cfg.GroupSize = 0
		}
		st, err := StepsWRHT(cfg)
		if err != nil {
			return 0, err
		}
		colSteps = st.Total
	}
	return rowSteps + colSteps, nil
}
