package main

import (
	"os"
	"time"

	"disqo"
)

// embedded drives a DB in-process: reads through DB.Query, each write
// statement through DB.Exec.
type embedded struct {
	db  *disqo.DB
	dir string // data directory removed by close; empty for a volatile DB
}

func (e *embedded) do(_ int, op Op, keep bool) opRecord {
	if !op.Write {
		t := time.Now()
		res, err := e.db.Query(op.SQL[0])
		return queryRecord(op, time.Since(t), res, err, keep)
	}
	rec := opRecord{op: op}
	t0 := time.Now()
	for _, sql := range op.SQL {
		t := time.Now()
		_, err := e.db.Exec(sql)
		rec.stmts = append(rec.stmts, time.Since(t))
		if err != nil {
			rec.err = err
			break
		}
	}
	rec.lat = time.Since(t0)
	return rec
}

func (e *embedded) close() error {
	err := e.db.Close()
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// counters are the DB's cumulative counters the per-layer metrics are
// deltas of.
type counters struct {
	cache disqo.CacheStats
	adm   disqo.AdmissionStats
	wal   disqo.WALStats
}

func readCounters(db *disqo.DB) counters {
	c := counters{cache: db.CacheStats(), adm: db.WorkloadStats().Admission}
	c.wal, _ = db.WALStats()
	return c
}

// counterMetrics adds the per-layer metrics that come from the DB's own
// counters over the untraced window, and from the window's samples:
// front-end time per read (DB.Query wall minus Result.Elapsed), write
// statement latency, both cache tiers, admission, and the WAL.
// frontend holds the front-end time of each sampled read.
func (b *bench) counterMetrics(before, after counters, w window, frontend []time.Duration, recovery time.Duration) {
	r := b.res
	var sum time.Duration
	for _, d := range frontend {
		sum += d
	}
	r.add("disqo.frontend_us", "us", ratio(us(sum), float64(len(frontend))), len(frontend))
	writes := w.stmts
	r.add("disqo.write_p50_ms", "ms", ms(percentile(writes, 50)), len(writes))
	r.add("disqo.write_p95_ms", "ms", ms(percentile(writes, 95)), len(writes))

	p0, p1 := before.cache.Plan, after.cache.Plan
	planLookups := (p1.Hits + p1.Misses) - (p0.Hits + p0.Misses)
	r.add("cache.plan_lookups", "count", float64(planLookups), 1)
	r.add("cache.plan_hit_ratio", "ratio", ratio(float64(p1.Hits-p0.Hits), float64(planLookups)), int(planLookups))
	r0, r1 := before.cache.Result, after.cache.Result
	resLookups := (r1.Hits + r1.Misses + r1.Waits) - (r0.Hits + r0.Misses + r0.Waits)
	r.add("cache.result_lookups", "count", float64(resLookups), 1)
	r.add("cache.result_hit_ratio", "ratio", ratio(float64(r1.Hits-r0.Hits), float64(resLookups)), int(resLookups))
	r.add("cache.result_invalidations_per_write", "count", ratio(float64(r1.Invalidations-r0.Invalidations), float64(len(writes))), len(writes))
	r.add("cache.result_evictions", "count", float64(r1.Evictions-r0.Evictions), 1)
	r.add("cache.flight_waits", "count", float64(r1.Waits-r0.Waits), 1)

	reads := len(w.reads())
	r.add("admission.queue_wait_us_per_op", "us", ratio(us(after.adm.QueueWait-before.adm.QueueWait), float64(reads)), reads)
	r.add("admission.shed", "count", float64(after.adm.Shed-before.adm.Shed), 1)

	w0, w1 := before.wal, after.wal
	syncs := float64(w1.Syncs - w0.Syncs)
	r.add("wal.syncs_per_write", "count", ratio(syncs, float64(len(writes))), len(writes))
	r.add("wal.bytes_per_write", "B", ratio(float64(w1.AppendedBytes-w0.AppendedBytes), float64(len(writes))), len(writes))
	fsyncs := w1.Fsync.Count - w0.Fsync.Count
	r.add("wal.fsync_mean_us", "us", ratio(us(w1.Fsync.Sum-w0.Fsync.Sum), float64(fsyncs)), int(fsyncs))
	r.add("wal.checkpoints", "count", float64(w1.Truncations-w0.Truncations), 1)
	r.add("wal.recovery_ms", "ms", ms(recovery), 1)
}
