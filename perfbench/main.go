// Command perfbench is the repository's benchmark. One run sets up one
// workload, drives it closed loop for a fixed time through the public
// API (and, for served, the network front end), checks every answer it
// can against a reference, and prints its metrics. With --trace 1 the
// same run also replays the head of its stream through each layer's
// public calls with a span around each, and prints per-layer metrics.
//
//	go run . --workload analytic --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a readable report goes to
// standard error and a full one, spans included, to --workdir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// run returns the exit code: 0 for a correct run, 1 when a check
// failed (the result is still printed) and 2 when the run could not
// complete (nothing is printed on standard output).
func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "analytic, churn or served")
	seed := fs.Uint64("seed", 1, "seed of the generated SQL stream")
	seconds := fs.Float64("seconds", 30, "length of the timed window")
	trace := fs.Int("trace", 0, "1 replays the stream traced and prints per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for data dirs and reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b := &bench{
		spec:    spec,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		workdir: *workdir,
		res:     newResult(),
	}
	switch *workload {
	case "analytic":
		err = runAnalytic(b)
	case "churn":
		err = runChurn(b)
	case "served":
		err = runServed(b)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := b.finish(*workload); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if b.res.failed > 0 {
		return 1
	}
	return 0
}

// bench is one run's settings and its accumulating result.
type bench struct {
	spec    benchSpec
	seed    uint64
	window  time.Duration
	traced  bool
	workdir string
	res     *result
	// rec holds the traced replay's spans (trace runs only).
	rec *recorder
}

type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

type result struct {
	attempted int
	failed    int
	failures  []string
	metrics   []metric
	// notes carries report-only detail: shape shares, sample counts,
	// check outcomes.
	notes map[string]any
}

func newResult() *result { return &result{notes: make(map[string]any)} }

// fail counts one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// add records a metric with the number of samples behind it.
func (r *result) add(name, unit string, v float64, samples int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, Samples: samples})
}

// finish writes the full report to the workdir, the readable report to
// standard error, and the result line to standard output.
func (b *bench) finish(workload string) error {
	r := b.res
	mode := "end-to-end"
	if b.traced {
		mode = "per-layer"
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d window=%s (%s metrics)\n", workload, b.seed, b.window, mode)
	for _, m := range r.metrics {
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "  FAIL:", f)
	}

	full := map[string]any{
		"workload": workload, "seed": b.seed, "seconds": b.window.Seconds(), "traced": b.traced,
		"attempted": r.attempted, "failed": r.failed, "failures": r.failures,
		"metrics": r.metrics, "notes": r.notes,
	}
	if b.rec != nil {
		full["spans"] = b.rec.spans
	}
	data, err := json.MarshalIndent(full, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%v.json", workload, b.seed, b.traced)
	if err := os.WriteFile(filepath.Join(b.workdir, name), data, 0o644); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
