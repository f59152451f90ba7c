package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"wrht/internal/api"
)

// Request is one generated wrhtd request: the endpoint it goes to, its
// traffic class (for the mix report and the per-class spans) and the
// exact JSON body sent on the wire.
type Request struct {
	Endpoint string
	Class    string
	Body     []byte
}

// class is one entry of a workload's traffic mix: a relative weight,
// the request shapes it cycles through and a function that turns one
// shape into a request body with a fresh random payload.
type class struct {
	name     string
	endpoint string
	weight   int
	shapes   []shape
	body     func(sh shape, r *rand.Rand) any
}

// shape is one combination of a class's categorical parameters.
type shape []int

// product enumerates every combination of the given value lists.
func product(lists ...[]int) []shape {
	out := []shape{{}}
	for _, l := range lists {
		var next []shape
		for _, prefix := range out {
			for _, v := range l {
				next = append(next, append(append(shape{}, prefix...), v))
			}
		}
		out = next
	}
	return out
}

// Request kinds indexed by shape entries.
var (
	electricalKinds = []string{"ring", "rd", "bt", "wrht"}
	buildKinds      = []string{"wrht", "bt", "rd", "torus", "hring"}
	planRs          = [][]int{{8}, {16}, {8, 16}}
)

// buildShapes are the materialized /v1/build shapes (kind, size,
// wavelengths): six WRHT, three each of BT and RD, six square tori and
// six H-Rings. H-Ring always carries a group size that divides n (the
// daemon rejects it otherwise).
var buildShapes = append(append(append(append(
	product([]int{0}, []int{64, 256, 1024, 4096}, []int{8}),
	product([]int{0}, []int{256, 4096}, []int{64})...),
	product([]int{1, 2}, []int{64, 256, 1024}, []int{0})...),
	product([]int{3}, []int{8, 16, 32}, []int{8, 64})...),
	product([]int{4}, []int{64, 256, 1024}, []int{8, 64})...)

// electricalShapes are the fat-tree simulation shapes (kind, size,
// wavelengths): Ring, RD and BT at four sizes, and WRHT at the same
// sizes alternating between 8 and 64 wavelengths.
var electricalShapes = append(product([]int{0, 1, 2}, []int{32, 64, 128, 256}, []int{0}),
	shape{3, 32, 8}, shape{3, 64, 64}, shape{3, 128, 8}, shape{3, 256, 64})

// mixes holds the traffic mix of each serving workload. Every request
// the mix can draw is well formed and accepted by the daemon; the
// generator test asserts that for every shape.
var mixes = map[string][]class{
	"serve-optical": {
		{"sim-wrht", "simulate", 30, product([]int{64, 256, 1024, 4096}, []int{8, 64}, []int{0, 1}), func(sh shape, r *rand.Rand) any {
			return api.SimulateRequest{
				Backend:      "optical",
				Build:        api.BuildRequest{Kind: "wrht", N: sh[0], Wavelengths: sh[1]},
				PayloadBytes: payloadBytes(r),
				Overlap:      sh[2] == 1,
			}
		}},
		{"sim-ring", "simulate", 10, product([]int{64, 128, 256}), func(sh shape, r *rand.Rand) any {
			return api.SimulateRequest{
				Backend:      "optical",
				Build:        api.BuildRequest{Kind: "ring", N: sh[0]},
				PayloadBytes: payloadBytes(r),
			}
		}},
		{"build", "build", 30, buildShapes, func(sh shape, r *rand.Rand) any { return buildRequest(sh) }},
		{"build-stream", "build", 3, product([]int{8, 64}), func(sh shape, r *rand.Rand) any {
			return api.BuildRequest{Kind: "wrht", N: 16384, Wavelengths: sh[0], Stream: true}
		}},
		{"plan", "plan", 10, product([]int{0, 1, 2}, []int{8, 16}, []int{5, 25, 100}), func(sh shape, r *rand.Rand) any {
			return api.PlanRequest{
				Rs:          planRs[sh[0]],
				Wavelengths: sh[1],
				AMicros:     []float64{float64(sh[2])},
				PayloadMB:   payloadMB(r),
				NoRescue:    true,
			}
		}},
		{"sweep-overlap", "sweep", 4, product([]int{8, 64}), func(sh shape, r *rand.Rand) any {
			return api.SweepRequest{Sweep: "overlap", Ns: []int{1024}, Wavelengths: sh[0], PayloadMB: payloadMB(r)}
		}},
		{"sweep-faults", "sweep", 3, product([]int{8, 16}), func(sh shape, r *rand.Rand) any {
			return api.SweepRequest{Sweep: "faults", Ns: []int{64}, Wavelengths: sh[0], PayloadMB: payloadMB(r)}
		}},
	},
	"serve-fattree": {
		{"sim-electrical", "simulate", 80, electricalShapes, func(sh shape, r *rand.Rand) any {
			b := api.BuildRequest{Kind: electricalKinds[sh[0]], N: sh[1], Wavelengths: sh[2]}
			return api.SimulateRequest{Backend: "electrical", Build: b, PayloadBytes: payloadBytes(r)}
		}},
		{"sweep-crossfabric", "sweep", 20, product([]int{64, 128}, []int{8, 64}), func(sh shape, r *rand.Rand) any {
			return api.SweepRequest{Sweep: "crossfabric", N: sh[0], Wavelengths: sh[1], PayloadMB: payloadMB(r)}
		}},
	},
}

// buildRequest turns a build shape (kind, size, wavelengths) into a
// /v1/build request.
func buildRequest(sh shape) api.BuildRequest {
	kind, n, w := buildKinds[sh[0]], sh[1], sh[2]
	switch kind {
	case "torus":
		return api.BuildRequest{Kind: kind, N: n * n, Rows: n, Cols: n, Wavelengths: w}
	case "hring":
		return api.BuildRequest{Kind: kind, N: n, GroupSize: 8, Wavelengths: w}
	}
	return api.BuildRequest{Kind: kind, N: n, Wavelengths: w}
}

// payloadBytes draws a whole-byte per-node payload from [1, 500] MB, so
// two requests almost never share a coalescing key.
func payloadBytes(r *rand.Rand) float64 { return float64(1_000_000 + r.Int63n(499_000_001)) }

// payloadMB draws a sweep payload from [1, 500] MB at kB resolution.
func payloadMB(r *rand.Rand) float64 { return math.Round((1+499*r.Float64())*1000) / 1000 }

// deck deals the indices 0..n-1 in a random order, reshuffling after
// each full pass, so every index comes up equally often over any
// stretch of n draws.
type deck struct {
	order []int
	pos   int
}

func newDeck(n int) *deck { return &deck{order: make([]int, n), pos: n} }

func (d *deck) deal(r *rand.Rand) int {
	if d.pos == len(d.order) {
		for i := range d.order {
			d.order[i] = i
		}
		r.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.pos = 0
	}
	d.pos++
	return d.order[d.pos-1]
}

// Generator draws a workload's request sequence from a seed: the same
// seed always yields the same sequence. Classes are dealt from a deck
// holding each class as often as its weight, and each class deals its
// shapes from a deck of its own, so every seed sends the same mix of
// work in a different order with different payloads; only the seed
// changes, not how much work a run holds.
type Generator struct {
	rng     *rand.Rand
	classes []class
	// classDeck deals indices into slots, which holds each class index
	// weight times; shapeDecks deal each class's shapes.
	classDeck  *deck
	slots      []int
	shapeDecks []*deck
}

// NewGenerator returns the generator of a serving workload.
func NewGenerator(workload string, seed int64) (*Generator, error) {
	cs, ok := mixes[workload]
	if !ok {
		return nil, fmt.Errorf("no request mix for workload %q", workload)
	}
	g := &Generator{rng: rand.New(rand.NewSource(seed)), classes: cs}
	for i, c := range cs {
		for k := 0; k < c.weight; k++ {
			g.slots = append(g.slots, i)
		}
		g.shapeDecks = append(g.shapeDecks, newDeck(len(c.shapes)))
	}
	g.classDeck = newDeck(len(g.slots))
	return g, nil
}

// Next draws the next request of the sequence.
func (g *Generator) Next() Request {
	i := g.slots[g.classDeck.deal(g.rng)]
	c := g.classes[i]
	sh := c.shapes[g.shapeDecks[i].deal(g.rng)]
	body, err := json.Marshal(c.body(sh, g.rng))
	if err != nil {
		panic(err) // request structs of scalars and slices always marshal
	}
	return Request{Endpoint: c.endpoint, Class: c.name, Body: body}
}
