package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"disqo"
	"disqo/internal/catalog"
	"disqo/internal/datagen"
)

// runChurn drives closed-loop clients of reads and writes against a
// durable embedded DB: the default fsync-per-statement policy, auto-checkpoints
// every CheckpointEvery log records. Afterwards the DB is closed and
// recovered from its data directory, and the recovered state must be
// the state every acknowledged write produced.
func runChurn(b *bench) error {
	cfg := b.spec.Churn
	sf := cfg.RSTSF
	open := func(dir string) (*disqo.DB, error) {
		return disqo.Open(disqo.WithDataDir(dir), disqo.WithCheckpointEvery(cfg.CheckpointEvery))
	}
	build := func(name string) (system, error) {
		dir := filepath.Join(b.workdir, name)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		db, err := open(dir)
		if err != nil {
			return nil, err
		}
		if err := db.LoadRST(sf, sf, sf); err != nil {
			db.Close()
			return nil, err
		}
		return &embedded{db: db, dir: dir}, nil
	}
	_, initial, err := rstMirror(sf)
	if err != nil {
		return err
	}
	streams := func() ([]stream, []*churnStream) {
		s := make([]stream, cfg.Clients)
		cs := make([]*churnStream, cfg.Clients)
		for c := range s {
			cs[c] = newChurnStream(b.seed, c, cfg, initial)
			s[c] = cs[c]
		}
		return s, cs
	}

	sys, setupS, err := setUp(cfg.Setups, func(i int) (system, error) { return build(fmt.Sprintf("churn-%d", i)) })
	if err != nil {
		return err
	}
	defer sys.close()
	e := sys.(*embedded)
	// Warm-up is the head of the measured streams, not a stream of its
	// own: each client's writes must continue from the keys it owns.
	ss, owners := streams()
	b.countOps(drive(sys, ss, 0, cfg.WarmupOps, 0))
	before := readCounters(e.db)
	w := drive(sys, ss, b.window, 0, 0)
	after := readCounters(e.db)
	b.countOps(w)
	// The end-to-end metrics, the live heap among them, are taken on the
	// DB that ran the window, caches still hot, before recovery replaces
	// it.
	if !b.traced {
		b.endToEnd(setupS, cfg.Setups, &w)
	}
	b.checkHotReads(e.db, churnHotSet(b.seed, cfg)[:cfg.CheckOps])

	// Recovery: close, reopen from the data directory, and compare.
	fp := e.db.StateFingerprint()
	if err := e.db.Close(); err != nil {
		return err
	}
	t := time.Now()
	reopened, err := open(e.dir)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	recovery := time.Since(t)
	e.db = reopened
	b.res.attempted++
	if got := e.db.StateFingerprint(); got != fp {
		b.res.fail("recovered state fingerprint %x, want %x", got, fp)
	}
	b.checkChurnState(e.db, owners, len(initial), sf)
	if !b.traced {
		return nil
	}

	// The replay interleaves the clients' streams on a fresh DB and
	// mirrors each write onto the bare catalog, so every replayed read
	// sees the rows the public call saw.
	sys2, err := build("churn-replay")
	if err != nil {
		return err
	}
	defer sys2.close()
	db2 := sys2.(*embedded).db
	mirror, _, err := rstMirror(sf)
	if err != nil {
		return err
	}
	rs, _ := streams()
	rp, err := b.replayTrace(sys2, db2, mirror, apiQuery, headOps(rs, cfg.TraceOps), nil)
	if err != nil {
		return err
	}
	b.checkMirror(db2, mirror)
	b.replayMetrics(rp)
	b.counterMetrics(before, after, w, w.frontend(), recovery)
	b.wireMetrics(wireAcc{})
	return nil
}

// rstMirror loads RST into a bare catalog and returns it with the rows
// of s.
func rstMirror(sf float64) (*catalog.Catalog, [][4]int64, error) {
	cat := catalog.New()
	if err := datagen.LoadRST(cat, datagen.RSTConfig{SFR: sf, SFS: sf, SFT: sf}); err != nil {
		return nil, nil, err
	}
	s, err := cat.Lookup("s")
	if err != nil {
		return nil, nil, err
	}
	rows := make([][4]int64, len(s.Rel.Tuples))
	for i, t := range s.Rel.Tuples {
		rows[i] = [4]int64{t[0].Int(), t[1].Int(), t[2].Int(), t[3].Int()}
	}
	return cat, rows, nil
}

// checkHotReads runs each query on both execution paths against the
// final state and requires byte-identical rows.
func (b *bench) checkHotReads(db *disqo.DB, sqls []string) {
	for _, sql := range sqls {
		b.res.attempted++
		vec, err := db.Query(sql)
		if err != nil {
			b.res.fail("hot read check: %v", err)
			continue
		}
		row, err := db.Query(sql, disqo.WithExecutionPath(disqo.PathRow))
		if err != nil {
			b.res.fail("hot read check on the row path: %v", err)
			continue
		}
		if digest(vec.Columns, vec.Rows) != digest(row.Columns, row.Rows) {
			b.res.fail("hot read check: row path differs from vectorized path: %s", sql)
		}
	}
}

// checkChurnState requires r, s and t to have kept their sizes and s to
// hold exactly the rows the clients' acknowledged writes left.
func (b *bench) checkChurnState(db *disqo.DB, owners []*churnStream, sSize int, sf float64) {
	want := int(sf * datagen.RSTRowsPerSF)
	for _, tbl := range []string{"r", "s", "t"} {
		b.res.attempted++
		n, err := db.RowCount(tbl)
		if err != nil || n != want {
			b.res.fail("table %s has %d rows after recovery (err %v), want %d", tbl, n, err, want)
		}
	}
	var expect [][4]int64
	for _, o := range owners {
		for _, row := range o.owned {
			expect = append(expect, row)
		}
	}
	b.res.attempted++
	res, err := db.Query("SELECT * FROM s")
	if err != nil {
		b.res.fail("reading s after recovery: %v", err)
		return
	}
	got := make([][4]int64, len(res.Rows))
	for i, row := range res.Rows {
		got[i] = [4]int64{row[0].Int(), row[1].Int(), row[2].Int(), row[3].Int()}
	}
	if len(expect) != sSize || !sameRowSet(got, expect) {
		b.res.fail("s after recovery holds %d rows that differ from the %d acknowledged writes left", len(got), len(expect))
	}
}

func sameRowSet(a, b [][4]int64) bool {
	if len(a) != len(b) {
		return false
	}
	less := func(x [][4]int64) func(i, j int) bool {
		return func(i, j int) bool {
			for k := 0; k < 4; k++ {
				if x[i][k] != x[j][k] {
					return x[i][k] < x[j][k]
				}
			}
			return false
		}
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkMirror requires the replay DB and the mirror to hold the same s,
// row for row.
func (b *bench) checkMirror(db *disqo.DB, mirror *catalog.Catalog) {
	b.res.attempted++
	res, err := db.Query("SELECT * FROM s")
	if err != nil {
		b.res.fail("reading s after the replay: %v", err)
		return
	}
	s, err := mirror.Lookup("s")
	if err != nil {
		b.res.fail("mirror: %v", err)
		return
	}
	if digest(nil, res.Rows) != digest(nil, s.Rel.Tuples) {
		b.res.fail("the mirror catalog's s differs from the replay DB's after %d rows", len(res.Rows))
	}
}
