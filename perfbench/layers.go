package main

import (
	"runtime"
	"time"

	"disqo/internal/algebra"
	"disqo/internal/catalog"
	"disqo/internal/exec"
	"disqo/internal/physical"
	"disqo/internal/rewrite"
	"disqo/internal/sqlparser"
	"disqo/internal/storage"
	"disqo/internal/translate"
)

// Span names of the layer calls, in the order DB.Query makes them.
const (
	spanParse     = "sqlparser.Parse"
	spanTranslate = "translate.Translate"
	spanRewrite   = "rewrite.Rewrite"
	spanLower     = "physical.Lower"
	spanRun       = "exec.Run"
)

// Span names of the public calls the replay makes.
const (
	apiQuery       = "disqo.Query"
	apiClientQuery = "disqo.Client.Query"
)

// replayOut is what one read cost layer by layer when the benchmark
// made the layer calls itself.
type replayOut struct {
	digest uint64
	stats  exec.Stats
	rules  int // rewrite rules applied: len(Rewriter.Trace)
	nodes  int // physical.CountNodes of the lowered plan
	// times holds each layer call's wall time, keyed by span name.
	times map[string]time.Duration
	// allocs and allocBytes are the MemStats deltas around
	// Executor.Run; only the untraced replay measures them.
	allocs, allocBytes uint64
}

// replay runs sql through the layer calls DB.Query makes under its
// defaults (unnested strategy, vectorized path, every uncorrelated
// subplan memoized), against a snapshot of cat. It runs the executor
// with one worker, so operator spans nest on one goroutine and a
// layer's time is the work it did; the exec counters do not depend on
// the worker count. With rec nil it times each call and measures
// Executor.Run's allocations. With rec set it records a root span for
// the operation, a span around each call, and operator spans from the
// executor's Tracer hook under the Run span.
func replay(cat *catalog.Catalog, sql string, rec *recorder, op int) (out replayOut, err error) {
	out.times = make(map[string]time.Duration, 5)
	root := -1
	if rec != nil {
		root = rec.begin("replay", op, -1)
	}
	var ot *opTracer
	step := func(name string, fn func() error) error {
		if rec == nil {
			t := time.Now()
			err := fn()
			out.times[name] = time.Since(t)
			return err
		}
		id := rec.begin(name, op, root)
		if ot != nil && name == spanRun {
			ot.root = id
		}
		err := fn()
		rec.end(id)
		out.times[name] = rec.duration(id)
		return err
	}
	if rec != nil {
		defer rec.end(root)
	}

	snap := cat.Snapshot()
	var stmt *sqlparser.SelectStmt
	if err = step(spanParse, func() (err error) {
		stmt, err = sqlparser.Parse(sql)
		return err
	}); err != nil {
		return out, err
	}
	var canonical, plan algebra.Op
	if err = step(spanTranslate, func() (err error) {
		canonical, err = translate.New(snap).Translate(stmt)
		return err
	}); err != nil {
		return out, err
	}
	rw := rewrite.New(snap, rewrite.AllCaps())
	if err = step(spanRewrite, func() (err error) {
		plan, err = rw.Rewrite(canonical)
		return err
	}); err != nil {
		return out, err
	}
	out.rules = len(rw.Trace)

	opt := exec.Options{Cache: exec.CacheAll, Path: exec.PathVector, Workers: 1}
	if rec != nil {
		ot = &opTracer{rec: rec, op: op}
		opt.Tracer = ot
	}
	ex := exec.New(snap, opt)
	defer ex.Close()
	var phys physical.Node
	if err = step(spanLower, func() (err error) {
		phys, err = ex.Plan(plan)
		return err
	}); err != nil {
		return out, err
	}
	out.nodes = physical.CountNodes(phys)

	var ms0, ms1 runtime.MemStats
	if rec == nil {
		runtime.ReadMemStats(&ms0)
	}
	var rel *storage.Relation
	if err = step(spanRun, func() (err error) {
		rel, err = ex.Run(plan)
		return err
	}); err != nil {
		return out, err
	}
	if rec == nil {
		runtime.ReadMemStats(&ms1)
		out.allocs = ms1.Mallocs - ms0.Mallocs
		out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	}
	out.digest = digest(rel.Schema.Attrs(), rel.Tuples)
	out.stats = ex.Stats()
	return out, nil
}

// layerTime is the summed wall time of the layer calls.
func (o replayOut) layerTime() time.Duration {
	var t time.Duration
	for _, d := range o.times {
		t += d
	}
	return t
}
