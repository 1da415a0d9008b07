package main

import (
	"math/rand"
	"testing"
	"time"

	"disqo/internal/types"
)

func TestPercentileNearestRank(t *testing.T) {
	// 1..100 ms shuffled: the nearest-rank p-th percentile of a uniform
	// grid is the p-th value.
	xs := make([]time.Duration, 100)
	for i := range xs {
		xs[i] = time.Duration(i+1) * time.Millisecond
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{1, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want*time.Millisecond {
			t.Errorf("p%g of 1..100ms = %v, want %v", c.p, got, c.want*time.Millisecond)
		}
	}
	// Rank is ceil(p/100 * n): p95 of 20 samples is the 19th.
	twenty := make([]time.Duration, 20)
	for i := range twenty {
		twenty[i] = time.Duration(20 - i)
	}
	if got := percentile(twenty, 95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
	if got := percentile(twenty, 50); got != 10 {
		t.Errorf("p50 of 1..20 = %v, want 10", got)
	}
	if got := percentile([]time.Duration{7}, 95); got != 7 {
		t.Errorf("p95 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
}

func TestDigestExact(t *testing.T) {
	one := [][]types.Value{{types.NewInt(1)}}
	oneF := [][]types.Value{{types.NewFloat(1)}}
	if digest(nil, one) == digest(nil, oneF) {
		t.Error("INT 1 and FLOAT 1 share a digest")
	}
	ab := [][]types.Value{{types.NewInt(1)}, {types.NewInt(2)}}
	ba := [][]types.Value{{types.NewInt(2)}, {types.NewInt(1)}}
	if digest(nil, ab) == digest(nil, ba) {
		t.Error("row order does not change the digest")
	}
	if digest([]string{"a"}, one) == digest([]string{"b"}, one) {
		t.Error("column names do not change the digest")
	}
	if digest(nil, [][]types.Value{{types.Null()}}) == digest(nil, [][]types.Value{{types.NewString("")}}) {
		t.Error("NULL and '' share a digest")
	}
}
