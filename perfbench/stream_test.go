package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// streamText renders the first n operations of every client of every
// workload for one seed.
func streamText(t *testing.T, seed uint64, n int) map[string]string {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	_, initial, err := rstMirror(spec.Churn.RSTSF)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	render := func(name string, s stream) {
		var b strings.Builder
		for i := 0; i < n; i++ {
			op := s.Next()
			b.WriteString(op.Shape + ": " + strings.Join(op.SQL, "; "))
			b.WriteByte('\n')
		}
		out[name] += b.String()
	}
	a, sv, c := spec.Analytic, spec.Served, spec.Churn
	for client := 0; client < a.Clients; client++ {
		render("analytic", newCycleStream(seed, client, a.Weights))
	}
	for client := 0; client < sv.Clients; client++ {
		render("served", newCycleStream(seed, client, sv.Weights))
	}
	for client := 0; client < c.Clients; client++ {
		render("churn", newChurnStream(seed, client, c, initial))
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	a, b := streamText(t, 42, 500), streamText(t, 42, 500)
	for w := range a {
		if a[w] != b[w] {
			t.Errorf("%s: seed 42 gave two different streams", w)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := streamText(t, 1, 50), streamText(t, 2, 50)
	for w := range a {
		if a[w] == b[w] {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w)
		}
	}
}

// TestHeldOutSeed checks that spec.json names a held-out seed and that
// none of the recorded runs used it: it is kept for checking claims
// made after the benchmark was tuned.
func TestHeldOutSeed(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.HeldOutSeed == 0 {
		t.Fatal("spec.json names no held_out_seed")
	}
	data, err := os.ReadFile("runs.json")
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		Seed uint64 `json:"seed"`
	}
	var runs struct {
		EndToEnd map[string][]run `json:"end_to_end"`
		Repeat   map[string][]run `json:"repeat"`
		Repeat2  map[string][]run `json:"repeat2"`
		Trace    map[string][]run `json:"trace"`
	}
	if err := json.Unmarshal(data, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs.EndToEnd) == 0 {
		t.Fatal("runs.json records no end-to-end runs")
	}
	for _, byWorkload := range []map[string][]run{runs.EndToEnd, runs.Repeat, runs.Repeat2, runs.Trace} {
		for w, rs := range byWorkload {
			for _, r := range rs {
				if r.Seed == spec.HeldOutSeed {
					t.Errorf("runs.json %s used the held-out seed %d", w, r.Seed)
				}
			}
		}
	}
}

// TestCycleMix checks that every cycle of a cycle stream holds each
// shape exactly its weight's number of times.
func TestCycleMix(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	weights := spec.Analytic.Weights
	size := 0
	for _, w := range weights {
		size += w.Count
	}
	s := newCycleStream(7, 0, weights)
	for cycle := 0; cycle < 5; cycle++ {
		got := map[string]int{}
		for i := 0; i < size; i++ {
			got[s.Next().Shape]++
		}
		for _, w := range weights {
			if got[w.Shape] != w.Count {
				t.Fatalf("cycle %d: %s drawn %d times, want %d", cycle, w.Shape, got[w.Shape], w.Count)
			}
		}
	}
}

// TestFixedDecksIgnoreTheSeed checks that fixed decks, which draw the
// churn hot set, deal the same choices and strata on every seed.
func TestFixedDecksIgnoreTheSeed(t *testing.T) {
	a, b := newStratified(newRng(1, 0)), newStratified(newRng(2, 0))
	a.fixed, b.fixed = true, true
	for i := 0; i < 40; i++ {
		if x, y := a.pick("cmp", cmpOps), b.pick("cmp", cmpOps); x != y {
			t.Fatalf("draw %d: comparisons %s and %s", i, x, y)
		}
		if x, y := a.between("lit", 0, 2999), b.between("lit", 0, 2999); x*strata/3000 != y*strata/3000 {
			t.Fatalf("draw %d: literals %d and %d fall in different strata", i, x, y)
		}
	}
}

// keyOwner is the client that owns a key of s: generated keys are dealt
// out by remainder, inserted ones come from the client's own range.
func keyOwner(key int64, clients int) int {
	if key < 1_000_000 {
		return int(key) % clients
	}
	return int(key/1_000_000) - 1
}

// TestChurnKeepsSizes checks that a churn client's writes leave it
// owning as many rows as it started with, and that its writes touch
// only keys it owns.
func TestChurnKeepsSizes(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	_, initial, err := rstMirror(spec.Churn.RSTSF)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Churn
	for client := 0; client < cfg.Clients; client++ {
		s := newChurnStream(3, client, cfg, initial)
		start := len(s.owned)
		writes := 0
		for i := 0; i < 2000; i++ {
			op := s.Next()
			for _, m := range op.Muts {
				writes++
				if keyOwner(m.Key, cfg.Clients) != client {
					t.Fatalf("client %d wrote key %d it does not own", client, m.Key)
				}
			}
		}
		if writes == 0 {
			t.Fatalf("client %d drew no writes in 2000 ops", client)
		}
		if got := len(s.owned); got != start {
			t.Fatalf("client %d owns %d rows after its writes, want %d", client, got, start)
		}
	}
}
