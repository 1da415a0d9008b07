package main

import (
	"disqo"
	"disqo/internal/catalog"
	"disqo/internal/datagen"
)

// warmupSalt seeds the warm-up streams apart from the measured ones, so
// warm-up never fills a cache with a text the window then reads.
const warmupSalt = 0x5eed

// runAnalytic drives one client through the paper's shapes on an
// embedded DB with default options.
func runAnalytic(b *bench) error {
	cfg := b.spec.Analytic
	build := func(int) (system, error) {
		db, err := disqo.Open()
		if err != nil {
			return nil, err
		}
		if err := db.LoadRST(cfg.RSTSF, cfg.RSTSF, cfg.RSTSF); err != nil {
			db.Close()
			return nil, err
		}
		if err := db.LoadTPCH(cfg.TPCHSF); err != nil {
			db.Close()
			return nil, err
		}
		return &embedded{db: db}, nil
	}
	streams := func(seed uint64) []stream {
		s := make([]stream, cfg.Clients)
		for c := range s {
			s[c] = newCycleStream(seed, c, cfg.Weights)
		}
		return s
	}

	sys, setupS, err := setUp(cfg.Setups, build)
	if err != nil {
		return err
	}
	defer sys.close()
	db := sys.(*embedded).db
	b.countOps(drive(sys, streams(b.seed^warmupSalt), 0, cfg.WarmupOps, 0))
	before := readCounters(db)
	w := drive(sys, streams(b.seed), b.window, 0, max(cfg.CheckOps, cfg.TraceOps))
	after := readCounters(db)
	b.countOps(w)
	b.checkRowPath(db, w, cfg.CheckOps)
	if !b.traced {
		b.endToEnd(setupS, cfg.Setups, &w)
		return nil
	}

	// The replay runs on a second, fresh DB, so its public calls meet
	// the caches as the window's did; the mirror is a bare catalog the
	// same generators load.
	sys2, err := build(0)
	if err != nil {
		return err
	}
	defer sys2.close()
	mirror := catalog.New()
	if err := datagen.LoadRST(mirror, datagen.RSTConfig{SFR: cfg.RSTSF, SFS: cfg.RSTSF, SFT: cfg.RSTSF}); err != nil {
		return err
	}
	if err := datagen.LoadTPCH(mirror, datagen.TPCHConfig{SF: cfg.TPCHSF}); err != nil {
		return err
	}
	rp, err := b.replayTrace(sys2, sys2.(*embedded).db, mirror, apiQuery, headOps(streams(b.seed), cfg.TraceOps), nil)
	if err != nil {
		return err
	}
	b.checkCounterRepeat(w, rp)
	b.replayMetrics(rp)
	b.counterMetrics(before, after, w, w.frontend(), 0)
	b.wireMetrics(wireAcc{})
	return nil
}

// checkRowPath re-runs each client's first n successful reads on the
// row interpreter, the engine's differential reference, and requires
// byte-identical rows. The result cache keys on the execution path, so
// these run rather than hit the vectorized entries.
func (b *bench) checkRowPath(db *disqo.DB, w window, n int) {
	for _, r := range w.recs {
		if r.op.Write || r.err != nil || r.seq >= n {
			continue
		}
		b.res.attempted++
		res, err := db.Query(r.op.SQL[0], disqo.WithExecutionPath(disqo.PathRow))
		switch {
		case err != nil:
			b.res.fail("row-path check of %s: %v", r.op.Shape, err)
		case digest(res.Columns, res.Rows) != r.digest:
			b.res.fail("row-path check of %s: rows differ from the vectorized run: %s", r.op.Shape, r.op.SQL[0])
		}
	}
}

// checkCounterRepeat requires the exec counters of each replayed read
// to equal those the window measured for the same operation: with one
// client they are deterministic, and drift means a counter or a plan
// changed between two runs of the same code.
func (b *bench) checkCounterRepeat(w window, rp replayed) {
	seen := map[[2]int]opRecord{}
	for _, r := range w.recs {
		seen[[2]int{r.client, r.seq}] = r
	}
	compared := 0
	for _, a := range rp.api {
		r, ok := seen[[2]int{a.client, a.seq}]
		if !ok || a.err != nil || r.err != nil || a.op.Write {
			continue
		}
		compared++
		b.res.attempted++
		if !sameCounters(r.stats, a.stats, false) || r.digest != a.digest {
			b.res.fail("counter drift on %s op %d: window %+v, replay %+v", a.op.Shape, a.seq, r.stats, a.stats)
		}
	}
	b.res.notes["counter_repeat_compared"] = compared
}
