package main

import (
	"context"
	"encoding/json"
	"net"
	"sync/atomic"
	"time"

	"disqo"
	"disqo/internal/server"
	"disqo/internal/wire"
)

// served is an in-process server on loopback with one disqo.Client per
// benchmark client, set up as harness.ServeSweep sets it up: the DB
// opened without caches, so every query executes.
type served struct {
	db      *disqo.DB
	srv     *server.Server
	done    chan error
	clients []*disqo.Client
	sent    atomic.Int64
}

func startServed(sf float64, clients int) (*served, error) {
	db, err := disqo.Open(disqo.WithoutCache())
	if err != nil {
		return nil, err
	}
	if err := db.LoadRST(sf, sf, sf); err != nil {
		db.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		db.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	s := &served{db: db, srv: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	for i := 0; i < clients; i++ {
		c, err := disqo.Dial(ln.Addr().String())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

func (s *served) do(client int, op Op, keep bool) opRecord {
	s.sent.Add(1)
	t := time.Now()
	res, err := s.clients[client].Query(op.SQL[0])
	return queryRecord(op, time.Since(t), res, err, keep)
}

// close stops the clients, drains the server and waits for Serve to
// return, then closes the DB.
func (s *served) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// runServed drives closed-loop clients over loopback against RST,
// read-only.
func runServed(b *bench) error {
	cfg := b.spec.Served
	streams := func(seed uint64) []stream {
		s := make([]stream, cfg.Clients)
		for c := range s {
			s[c] = newCycleStream(seed, c, cfg.Weights)
		}
		return s
	}
	sys, setupS, err := setUp(cfg.Setups, func(int) (system, error) { return startServed(cfg.RSTSF, cfg.Clients) })
	if err != nil {
		return err
	}
	defer sys.close()
	sv := sys.(*served)
	b.countOps(drive(sys, streams(b.seed^warmupSalt), 0, cfg.WarmupOps, 0))
	before := readCounters(sv.db)
	sent0, req0 := sv.sent.Load(), sv.srv.Stats().Requests
	w := drive(sys, streams(b.seed), b.window, 0, max(cfg.CheckOps, cfg.TraceOps))
	after := readCounters(sv.db)
	b.countOps(w)
	b.res.attempted++
	if sent, req := sv.sent.Load()-sent0, int64(sv.srv.Stats().Requests-req0); sent != req {
		b.res.fail("server completed %d requests, clients sent %d", req, sent)
	}
	b.checkServedRows(sv.db, w, cfg.CheckOps)
	if !b.traced {
		b.endToEnd(setupS, cfg.Setups, &w)
		return nil
	}

	sys2, err := startServed(cfg.RSTSF, cfg.Clients)
	if err != nil {
		return err
	}
	defer sys2.close()
	mirror, _, err := rstMirror(cfg.RSTSF)
	if err != nil {
		return err
	}
	var acc wireAcc
	var frontend []time.Duration
	twin := func(i int, s step, rec opRecord) {
		// The embedded twin: the same query on the server's own DB,
		// then the response framing the server does and the client
		// undoes, each under its own span.
		var res *disqo.Result
		var err error
		var emb time.Duration
		b.rec.call(apiQuery, i, -1, func() {
			t := time.Now()
			res, err = sys2.db.Query(s.op.SQL[0])
			emb = time.Since(t)
		})
		b.res.attempted++
		if err != nil {
			b.res.fail("embedded twin of %s: %v", s.op.Shape, err)
			return
		}
		if digest(res.Columns, res.Rows) != rec.digest {
			b.res.fail("served rows of %s differ from embedded rows", s.op.Shape)
		}
		frontend = append(frontend, emb-res.Elapsed)
		var data []byte
		enc := b.rec.call("wire.Encode", i, -1, func() {
			data, err = json.Marshal(&wire.Response{ID: 1, OK: true, Columns: res.Columns,
				Rows:  wire.EncodeRows(res.Rows),
				Stats: &wire.Stats{ElapsedUS: res.Elapsed.Microseconds(), Rows: len(res.Rows)}})
		})
		if err != nil {
			b.res.fail("wire encode of %s: %v", s.op.Shape, err)
			return
		}
		var back wire.Response
		dec := b.rec.call("wire.Decode", i, -1, func() {
			if err = json.Unmarshal(data, &back); err == nil {
				wire.DecodeRows(back.Rows)
			}
		})
		if err != nil {
			b.res.fail("wire decode of %s: %v", s.op.Shape, err)
			return
		}
		acc.encode += b.rec.duration(enc)
		acc.decode += b.rec.duration(dec)
		acc.bytes += len(data) + 1
		acc.rows += len(res.Rows)
		acc.gap += rec.lat - emb
		acc.ops++
	}
	rp, err := b.replayTrace(sys2, sys2.db, mirror, apiClientQuery, headOps(streams(b.seed), cfg.TraceOps), twin)
	if err != nil {
		return err
	}
	b.replayMetrics(rp)
	b.counterMetrics(before, after, w, frontend, 0)
	b.wireMetrics(acc)
	return nil
}

// checkServedRows re-runs each client's first n reads embedded, on the
// vectorized and on the row path, and requires the served rows to be
// byte-identical to both.
func (b *bench) checkServedRows(db *disqo.DB, w window, n int) {
	for _, r := range w.recs {
		if r.err != nil || r.seq >= n {
			continue
		}
		for _, path := range []disqo.ExecutionPath{disqo.PathVector, disqo.PathRow} {
			b.res.attempted++
			res, err := db.Query(r.op.SQL[0], disqo.WithExecutionPath(path))
			switch {
			case err != nil:
				b.res.fail("embedded check of %s on path %v: %v", r.op.Shape, path, err)
			case digest(res.Columns, res.Rows) != r.digest:
				b.res.fail("served rows of %s differ from embedded rows on path %v", r.op.Shape, path)
			}
		}
	}
}
