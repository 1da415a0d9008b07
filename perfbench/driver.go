package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"disqo"
	"disqo/internal/catalog"
	"disqo/internal/exec"
	"disqo/internal/types"
)

// system is one set-up workload target. do runs one operation for a
// client and times it; keep asks for the result's digest.
type system interface {
	do(client int, op Op, keep bool) opRecord
	close() error
}

// opRecord is one completed operation.
type opRecord struct {
	client, seq int
	op          Op
	lat         time.Duration   // the whole operation
	stmts       []time.Duration // each statement of a write
	err         error
	digest      uint64
	stats       exec.Stats
	elapsed     time.Duration // Result.Elapsed of a read
}

// queryRecord fills a read's record from a result.
func queryRecord(op Op, lat time.Duration, res *disqo.Result, err error, keep bool) opRecord {
	rec := opRecord{op: op, lat: lat, err: err}
	if err != nil {
		return rec
	}
	rec.stats, rec.elapsed = res.Stats, res.Elapsed
	if keep {
		rec.digest = digest(res.Columns, res.Rows)
	}
	return rec
}

// setUp builds the system b.spec says Setups times and returns the last,
// closing the others, with the median set-up time in seconds.
func setUp(n int, build func(i int) (system, error)) (system, float64, error) {
	var times []float64
	var sys system
	for i := 0; i < n; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		t := time.Now()
		s, err := build(i)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		sys = s
	}
	return sys, medianFloat(times), nil
}

// sample is what a window keeps of every operation. Full records are
// kept only for each client's first operations: the window's own
// memory must stay small beside the live heap it measures.
type sample struct {
	shape  string
	write  bool
	failed bool
	lat    time.Duration // the whole operation
	front  time.Duration // a read's wall time not spent executing
}

// window is the outcome of driving clients closed loop.
type window struct {
	samples             []sample
	stmts               []time.Duration // each statement of every successful write
	recs                []opRecord      // each client's first keep operations
	errs                []string
	wall                time.Duration
	mallocs, allocBytes uint64
}

// drive runs one closed loop per client: each sends its next operation
// when the previous one has returned, until the time limit passes (or,
// with limit 0, until it has sent count operations). Each client's
// first keep operations are kept in full, with their result digests.
func drive(sys system, streams []stream, limit time.Duration, count, keep int) window {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(limit)
	per := make([]window, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &per[c]
			for seq := 0; ; seq++ {
				if limit > 0 && !time.Now().Before(deadline) || limit == 0 && seq == count {
					return
				}
				rec := sys.do(c, streams[c].Next(), seq < keep)
				rec.client, rec.seq = c, seq
				s := sample{shape: rec.op.Shape, write: rec.op.Write, failed: rec.err != nil, lat: rec.lat}
				switch {
				case rec.err != nil:
					w.errs = append(w.errs, fmt.Sprintf("%s op %d of client %d: %v", rec.op.Shape, seq, c, rec.err))
				case rec.op.Write:
					w.stmts = append(w.stmts, rec.stmts...)
				default:
					s.front = rec.lat - rec.elapsed
				}
				w.samples = append(w.samples, s)
				if seq < keep {
					w.recs = append(w.recs, rec)
				}
			}
		}(c)
	}
	wg.Wait()
	w := window{wall: time.Since(start)}
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	for _, c := range per {
		w.samples = append(w.samples, c.samples...)
		w.stmts = append(w.stmts, c.stmts...)
		w.recs = append(w.recs, c.recs...)
		w.errs = append(w.errs, c.errs...)
	}
	return w
}

// reads returns the latencies of the window's successful reads.
func (w window) reads() []time.Duration {
	var xs []time.Duration
	for _, s := range w.samples {
		if !s.write && !s.failed {
			xs = append(xs, s.lat)
		}
	}
	return xs
}

// frontend returns, per successful read, the wall time not spent
// executing (DB.Query wall minus Result.Elapsed): planning, caches,
// admission and telemetry.
func (w window) frontend() []time.Duration {
	var xs []time.Duration
	for _, s := range w.samples {
		if !s.write && !s.failed {
			xs = append(xs, s.front)
		}
	}
	return xs
}

// countOps adds the window's operations to attempted and its errors to
// failed.
func (b *bench) countOps(w window) {
	b.res.attempted += len(w.samples)
	for _, e := range w.errs {
		b.res.fail("%s", e)
	}
}

// endToEnd adds the end-to-end metrics of an untraced window. It
// empties the window first: its samples are the benchmark's own memory,
// which must not count in the live heap the system holds.
func (b *bench) endToEnd(setupS float64, setups int, w *window) {
	r := b.res
	n := len(w.samples)
	ok := n - len(w.errs)
	reads := w.reads()
	r.add("setup_s", "s", setupS, setups)
	r.add("throughput_ops_s", "1/s", float64(ok)/w.wall.Seconds(), ok)
	r.add("read_p50_ms", "ms", ms(percentile(reads, 50)), len(reads))
	r.add("read_p95_ms", "ms", ms(percentile(reads, 95)), len(reads))
	r.add("allocs_per_op", "count", ratio(float64(w.mallocs), float64(n)), n)
	r.add("alloc_bytes_per_op", "B", ratio(float64(w.allocBytes), float64(n)), n)
	b.shapeShares(*w)
	*w = window{}
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	r.add("live_heap_mb", "MiB", float64(heap.HeapAlloc)/(1<<20), 1)
}

// shapeShares notes each shape's share of the window's operations and
// of its summed latency.
func (b *bench) shapeShares(w window) {
	type share struct {
		Ops       int     `json:"ops"`
		OpShare   float64 `json:"op_share"`
		Time      float64 `json:"time_s"`
		TimeShare float64 `json:"time_share"`
		P50ms     float64 `json:"p50_ms"`
	}
	lats := map[string][]time.Duration{}
	var total time.Duration
	for _, s := range w.samples {
		lats[s.shape] = append(lats[s.shape], s.lat)
		total += s.lat
	}
	out := map[string]share{}
	for shape, xs := range lats {
		var t time.Duration
		for _, x := range xs {
			t += x
		}
		out[shape] = share{
			Ops: len(xs), OpShare: ratio(float64(len(xs)), float64(len(w.samples))),
			Time: t.Seconds(), TimeShare: ratio(float64(t), float64(total)),
			P50ms: ms(percentile(xs, 50)),
		}
	}
	b.res.notes["shapes"] = out
}

// headOps returns the first n operations of fresh copies of the
// measured streams, clients interleaved round robin.
type step struct {
	client, seq int
	op          Op
}

func headOps(streams []stream, n int) []step {
	var steps []step
	for seq := 0; len(steps) < n; seq++ {
		for c, s := range streams {
			if len(steps) < n {
				steps = append(steps, step{client: c, seq: seq, op: s.Next()})
			}
		}
	}
	return steps
}

// replayed is what the traced replay measured.
type replayed struct {
	ops   int // operations replayed
	reads int
	// apiTime sums the public call of every operation; execInOp the
	// part of it that execution took (Result.Elapsed of reads the
	// result cache did not answer).
	apiTime, execInOp time.Duration
	layer             map[string]time.Duration // layer calls, traced
	plain, traced     time.Duration            // summed layer calls
	rules, nodes      int
	stats             exec.Stats // summed; PeakTuples is the max
	allocs, allocB    uint64
	api               []opRecord
}

// replayTrace replays steps serially: each operation through the
// system's public call, under a span named api, and each read again
// through the layer calls against mirror, untraced and then traced.
// Writes are applied to mirror after the public call, so mirror holds
// what the system holds. Every replayed read must return the public
// call's rows, and its work counters must match the public call's
// where the call executed. then, when set, runs after each read.
func (b *bench) replayTrace(sys system, db *disqo.DB, mirror *catalog.Catalog, api string, steps []step, then func(i int, s step, rec opRecord)) (replayed, error) {
	remote := api == apiClientQuery
	b.rec = newRecorder()
	out := replayed{layer: map[string]time.Duration{}}
	for i, s := range steps {
		before := db.CacheStats().Result
		var rec opRecord
		b.rec.call(api, i, -1, func() { rec = sys.do(s.client, s.op, true) })
		rec.client, rec.seq = s.client, s.seq
		out.api = append(out.api, rec)
		out.ops++
		b.res.attempted++
		if rec.err != nil {
			b.res.fail("replay op %d (%s): %v", i, s.op.Shape, rec.err)
			continue
		}
		out.apiTime += rec.lat
		if s.op.Write {
			if err := applyMuts(mirror, s.op.Muts); err != nil {
				return out, err
			}
			continue
		}
		now := db.CacheStats().Result
		executed := now.Hits == before.Hits && now.Waits == before.Waits
		if executed {
			out.execInOp += rec.elapsed
		}
		plain, err := replay(mirror, s.op.SQL[0], nil, i)
		if err != nil {
			return out, fmt.Errorf("replay %s: %w", s.op.Shape, err)
		}
		traced, err := replay(mirror, s.op.SQL[0], b.rec, i)
		if err != nil {
			return out, fmt.Errorf("traced replay %s: %w", s.op.Shape, err)
		}
		if plain.digest != rec.digest || traced.digest != rec.digest {
			b.res.fail("replay op %d (%s): layer calls returned other rows than the public call", i, s.op.Shape)
		}
		if executed && !sameCounters(plain.stats, rec.stats, remote) || !sameCounters(plain.stats, traced.stats, false) {
			b.res.fail("replay op %d (%s): exec counters drifted: %+v vs %+v", i, s.op.Shape, plain.stats, rec.stats)
		}
		out.reads++
		for name, d := range traced.times {
			out.layer[name] += d
		}
		out.plain += plain.layerTime()
		out.traced += traced.layerTime()
		out.rules += plain.rules
		out.nodes += plain.nodes
		addStats(&out.stats, plain.stats)
		out.allocs += plain.allocs
		out.allocB += plain.allocBytes
		if then != nil {
			then(i, s, rec)
		}
	}
	return out, nil
}

// sameCounters compares the exec counters that must repeat exactly for
// the same plan over the same data. A served result carries no peak
// tuple count, so remote leaves it out.
func sameCounters(a, b exec.Stats, remote bool) bool {
	return a.Comparisons == b.Comparisons && a.TuplesOut == b.TuplesOut &&
		a.SubqueryEvals == b.SubqueryEvals && (remote || a.PeakTuples == b.PeakTuples)
}

func addStats(sum *exec.Stats, s exec.Stats) {
	sum.Comparisons += s.Comparisons
	sum.TuplesOut += s.TuplesOut
	sum.SubqueryEvals += s.SubqueryEvals
	sum.HashJoins += s.HashJoins
	sum.NLJoins += s.NLJoins
	sum.SortedGroups += s.SortedGroups
	sum.OpEvals += s.OpEvals
	if s.PeakTuples > sum.PeakTuples {
		sum.PeakTuples = s.PeakTuples
	}
}

// applyMuts applies churn writes to a bare catalog the way DB.Exec
// commits them: INSERT appends, DELETE and UPDATE keep row order.
func applyMuts(cat *catalog.Catalog, muts []mutation) error {
	for _, m := range muts {
		if m.Kind == "insert" {
			if err := cat.InsertRows("s", intRow(m.Row)); err != nil {
				return err
			}
			continue
		}
		tbl, err := cat.Lookup("s")
		if err != nil {
			return err
		}
		rows := make([][]types.Value, 0, len(tbl.Rel.Tuples))
		for _, row := range tbl.Rel.Tuples {
			if row[0].Int() != m.Key {
				rows = append(rows, row)
			} else if m.Kind == "update" {
				rows = append(rows, intRow(m.Row))
			}
		}
		if err := cat.ReplaceRows("s", rows); err != nil {
			return err
		}
	}
	return nil
}

func intRow(r [4]int64) []types.Value {
	return []types.Value{types.NewInt(r[0]), types.NewInt(r[1]), types.NewInt(r[2]), types.NewInt(r[3])}
}

// opKinds are the physical operator types whose self time is reported:
// those the workloads' plans contain. Any other kind a replay meets is
// named in the report's unreported_op_kinds note. The executor never
// evaluates BypassFilter or BypassJoin itself (their Stream nodes are),
// so they have no self time.
var opKinds = []string{
	"Scan", "Filter", "Stream", "Project", "Rename", "Map", "Number",
	"HashJoin", "OuterJoin", "Group", "BinaryGroupHash", "Union",
	"Distinct", "Sort",
}

// replayMetrics adds the per-layer metrics the traced replay gives:
// layer call times and exec counters per replayed read, operator self
// times, and the tracing overhead (traced minus untraced layer calls,
// as a share of untraced).
func (b *bench) replayMetrics(rp replayed) {
	r := b.res
	n := float64(rp.reads)
	per := func(d time.Duration) float64 { return ratio(us(d), n) }
	r.add("sqlparser.parse_us", "us", per(rp.layer[spanParse]), rp.reads)
	r.add("translate.translate_us", "us", per(rp.layer[spanTranslate]), rp.reads)
	r.add("rewrite.rewrite_us", "us", per(rp.layer[spanRewrite]), rp.reads)
	r.add("rewrite.rules_per_op", "count", ratio(float64(rp.rules), n), rp.reads)
	r.add("physical.lower_us", "us", per(rp.layer[spanLower]), rp.reads)
	r.add("physical.nodes_per_op", "count", ratio(float64(rp.nodes), n), rp.reads)
	r.add("exec.run_ms", "ms", ratio(ms(rp.layer[spanRun]), n), rp.reads)
	r.add("exec.run_share", "ratio", ratio(float64(rp.execInOp), float64(rp.apiTime)), rp.ops)
	s := rp.stats
	r.add("exec.subquery_evals_per_op", "count", ratio(float64(s.SubqueryEvals), n), rp.reads)
	r.add("exec.tuples_out_per_op", "count", ratio(float64(s.TuplesOut), n), rp.reads)
	r.add("exec.comparisons_per_op", "count", ratio(float64(s.Comparisons), n), rp.reads)
	r.add("exec.op_evals_per_op", "count", ratio(float64(s.OpEvals), n), rp.reads)
	r.add("exec.hash_joins_per_op", "count", ratio(float64(s.HashJoins), n), rp.reads)
	r.add("exec.nl_joins_per_op", "count", ratio(float64(s.NLJoins), n), rp.reads)
	r.add("exec.sorted_groups_per_op", "count", ratio(float64(s.SortedGroups), n), rp.reads)
	r.add("exec.peak_tuples_max", "count", float64(s.PeakTuples), rp.reads)
	r.add("exec.allocs_per_run", "count", ratio(float64(rp.allocs), n), rp.reads)
	r.add("exec.alloc_bytes_per_run", "B", ratio(float64(rp.allocB), n), rp.reads)

	self := selfTimes(b.rec.spans)
	kinds := map[string]time.Duration{}
	layers := map[string]time.Duration{}
	for i, sp := range b.rec.spans {
		if k, ok := strings.CutPrefix(sp.Name, "exec.op."); ok {
			kinds[k] += self[i]
		}
		layers[layerOf(sp.Name)] += self[i]
	}
	for _, k := range opKinds {
		r.add("exec.op."+k+".self_ms", "ms", ratio(ms(kinds[k]), n), rp.reads)
	}
	var other []string
	for k := range kinds {
		if !slices.Contains(opKinds, k) {
			other = append(other, k)
		}
	}
	sort.Strings(other)
	r.notes["unreported_op_kinds"] = other
	selfMS := map[string]float64{}
	for l, d := range layers {
		selfMS[l] = ms(d)
	}
	r.notes["layer_self_ms_total"] = selfMS
	r.add("trace.overhead_share", "ratio", ratio(float64(rp.traced-rp.plain), float64(rp.plain)), rp.reads)
}

// wireAcc sums what the served replay measured of the wire codec and
// the gap between served and embedded latency of the same reads.
type wireAcc struct {
	encode, decode time.Duration
	bytes, rows    int
	gap            time.Duration
	ops            int
}

// wireMetrics adds the wire and server metrics; zero for workloads that
// do not serve.
func (b *bench) wireMetrics(a wireAcc) {
	r := b.res
	r.add("wire.encode_us_per_row", "us", ratio(us(a.encode), float64(a.rows)), a.rows)
	r.add("wire.decode_us_per_row", "us", ratio(us(a.decode), float64(a.rows)), a.rows)
	r.add("wire.bytes_per_row", "B", ratio(float64(a.bytes), float64(a.rows)), a.rows)
	r.add("wire.gap_share", "ratio", ratio(float64(a.encode+a.decode), float64(a.gap)), a.ops)
	r.add("server.overhead_ms", "ms", ratio(ms(a.gap), float64(a.ops)), a.ops)
}
