package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestMetricsMatchBenchmarkJSON runs every workload briefly, untraced
// and traced, and checks that each run passes its correctness checks
// and prints exactly the metrics BENCHMARK.json lists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	runners := map[string]func(*bench) error{"analytic": runAnalytic, "churn": runChurn, "served": runServed}
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range bj.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range bj.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			b := &bench{spec: spec, seed: 1, window: 300 * time.Millisecond, traced: traced,
				workdir: t.TempDir(), res: newResult()}
			run, ok := runners[w.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
			}
			if err := run(b); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if b.res.failed > 0 {
				t.Errorf("%s traced=%v: %d failed: %v", w.Name, traced, b.res.failed, b.res.failures)
			}
			got := map[string]string{}
			for _, m := range b.res.metrics {
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s traced=%v: metric %s printed twice", w.Name, traced, m.Name)
				}
				got[m.Name] = m.Unit
			}
			for name, unit := range want {
				if got[name] != unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, name, got[name], unit)
				}
			}
			var extra []string
			for name := range got {
				if _, ok := want[name]; !ok {
					extra = append(extra, name)
				}
			}
			sort.Strings(extra)
			if len(extra) > 0 {
				t.Errorf("%s traced=%v: metrics missing from BENCHMARK.json: %v", w.Name, traced, extra)
			}
		}
	}
}
