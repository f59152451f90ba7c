package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"testing"

	"wrht"
	"wrht/internal/api"
	"wrht/internal/exp"
)

func sequence(t *testing.T, workload string, seed int64, n int) []Request {
	t.Helper()
	g, err := NewGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for wl := range mixes {
		a, b := sequence(t, wl, 7, 500), sequence(t, wl, 7, 500)
		for i := range a {
			if a[i].Endpoint != b[i].Endpoint || a[i].Class != b[i].Class || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s: seed 7 request %d differs between two generators", wl, i)
			}
		}
		c := sequence(t, wl, 8, 500)
		same := 0
		for i := range a {
			if bytes.Equal(a[i].Body, c[i].Body) {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: seeds 7 and 8 give the same sequence", wl)
		}
	}
}

func TestGeneratorUnknownWorkload(t *testing.T) {
	if _, err := NewGenerator("repro", 1); err == nil {
		t.Fatal("repro has no request mix, want an error")
	}
}

// TestEveryClassAccepted executes a request of every shape of every
// class in-process,
// through the executor wrhtd calls, and requires each to succeed: the
// generator must never emit a request the daemon rejects.
func TestEveryClassAccepted(t *testing.T) {
	o := exp.Defaults()
	for wl, cs := range mixes {
		rng := rand.New(rand.NewSource(1))
		for _, c := range cs {
			for _, sh := range c.shapes {
				body, err := json.Marshal(c.body(sh, rng))
				if err != nil {
					t.Fatal(err)
				}
				rq := Request{Endpoint: c.endpoint, Class: c.name, Body: body}
				if _, err := expected(o, rq); err != nil {
					t.Errorf("%s class %s: %v", wl, c.name, err)
				}
			}
		}
	}
}

// TestHRingCarriesGroupSize pins the rule the daemon enforces: hring
// without group_size is a 422, so the generator always sets it.
func TestHRingCarriesGroupSize(t *testing.T) {
	if _, aerr := wrht.ServeBuild(api.BuildRequest{Kind: "hring", N: 64, Wavelengths: 8}); aerr == nil {
		t.Fatal("hring without group_size was accepted; the rule this test pins changed")
	}
	seen := 0
	for _, rq := range sequence(t, "serve-optical", 3, 2000) {
		if rq.Endpoint != "build" {
			continue
		}
		req, err := decode(rq.Endpoint, rq.Body)
		if err != nil {
			t.Fatal(err)
		}
		if b := req.(api.BuildRequest); b.Kind == "hring" {
			seen++
			if b.GroupSize == 0 || b.N%b.GroupSize != 0 {
				t.Fatalf("hring request without a dividing group_size: %s", rq.Body)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no hring build in 2000 requests")
	}
}

// TestMixShares checks that any stretch of requests holds each class in
// proportion to its weight: the class deck deals every class exactly
// weight times per pass.
func TestMixShares(t *testing.T) {
	for wl, cs := range mixes {
		total := 0
		for _, c := range cs {
			total += c.weight
		}
		seq := sequence(t, wl, 1, 3*total)
		count := map[string]int{}
		for _, rq := range seq {
			count[rq.Class]++
		}
		for _, c := range cs {
			if count[c.name] != 3*c.weight {
				t.Errorf("%s class %s: %d of %d requests, want %d", wl, c.name, count[c.name], len(seq), 3*c.weight)
			}
		}
	}
}

// TestSeedDigest recomputes, in-process, the expected responses to the
// first requests of seed 1 and checks them against the digest recorded
// when the benchmark was defined: a change to any simulated number
// fails here as it fails the benchmark run.
func TestSeedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("executes 200 requests per workload")
	}
	o := exp.Defaults()
	for wl, want := range serveDigests {
		var sums [][32]byte
		for _, rq := range sequence(t, wl, 1, digestPrefix) {
			b, err := expected(o, rq)
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, sha256.Sum256(b))
		}
		if got := digest(sums); got != want {
			t.Errorf("%s seed 1 digest %s, want %s", wl, got, want)
		}
	}
}
