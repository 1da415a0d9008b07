package main

import (
	"fmt"
	"math"
	"strings"
)

// rng is splitmix64: tiny, and stable across Go releases, so a seed
// names the same SQL stream on every toolchain.
type rng struct{ state uint64 }

func newRng(seed uint64, stream uint64) *rng {
	r := &rng{state: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// stratified is where a shape's literals come from. Each literal slot,
// named by a key, is drawn from a deck: the slot's choices, or eight
// equal strata of its range, dealt in a shuffled order and dealt anew
// once used up. A run's literals then cover each range evenly whatever
// the seed, so the work a run does varies less with the seed than
// independent draws would make it.
type stratified struct {
	r     *rng
	decks map[string][]int
	// fixed deals every deck in one order whatever the seed: the n-th
	// draw of a slot then always takes the same choice or stratum, and
	// the seed picks only the value inside the stratum.
	fixed bool
}

const strata = 8

func newStratified(r *rng) *stratified { return &stratified{r: r, decks: make(map[string][]int)} }

// deal returns the next card of key's deck of n cards.
func (s *stratified) deal(key string, n int) int {
	d := s.decks[key]
	if len(d) == 0 {
		d = make([]int, n)
		for i := range d {
			d[i] = i
		}
		for i := n - 1; i > 0 && !s.fixed; i-- {
			j := s.r.intn(i + 1)
			d[i], d[j] = d[j], d[i]
		}
	}
	s.decks[key] = d[:len(d)-1]
	return d[len(d)-1]
}

// pick returns one of xs.
func (s *stratified) pick(key string, xs []string) string { return xs[s.deal(key, len(xs))] }

// between returns an integer in [lo, hi].
func (s *stratified) between(key string, lo, hi int) int {
	n := hi - lo + 1
	if n <= strata {
		return lo + s.deal(key, n)
	}
	k := s.deal(key, strata)
	a, b := lo+k*n/strata, lo+(k+1)*n/strata
	return a + s.r.intn(b-a)
}

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// Op is one closed-loop operation: a read (one query) or a write (one
// or more statements issued back to back by the same client).
type Op struct {
	Shape string
	SQL   []string
	Write bool
	// Muts mirrors a write onto a bare catalog, one entry per statement.
	Muts []mutation
}

// mutation is the structured form of one churn write on table s.
type mutation struct {
	Kind string // "insert", "delete" or "update"
	Key  int64  // b1
	Row  [4]int64
}

// stream yields one client's operations. The same (seed, client) always
// yields the same operations.
type stream interface {
	Next() Op
}

// cmpOps are the comparison operators a scalar-subquery predicate draws.
var cmpOps = []string{"=", "<", ">", "<=", ">=", "<>"}

// shapeSQL renders one shape with literals from d. The RST columns are
// x1 a key, x2 in [0, rows/10), x3 in [0, 100) and x4 in [0, 3000).
func shapeSQL(shape string, d *stratified) string {
	cmp := func(slot string) string { return d.pick(shape+slot, cmpOps) }
	lit := func(slot string, lo, hi int) int { return d.between(shape+slot, lo, hi) }
	switch shape {
	case "q1": // Eqv. 2/3: disjunction of a scalar subquery and a local predicate
		return fmt.Sprintf("SELECT DISTINCT * FROM r WHERE a1 %s (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > %d",
			cmp(".cmp"), lit(".a4", 0, 2999))
	case "q1t": // Q1 correlated with t instead of s: no churn write touches it
		return fmt.Sprintf("SELECT DISTINCT * FROM r WHERE a1 %s (SELECT COUNT(DISTINCT *) FROM t WHERE a2 = c2) OR a4 > %d",
			cmp(".cmp"), lit(".a4", 0, 2999))
	case "q1.served": // Q1 sized for the wire: hundreds to thousands of rows
		return fmt.Sprintf("SELECT DISTINCT * FROM r WHERE a1 %s (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > %d",
			d.pick(shape+".cmp", []string{"=", "<", "<="}), lit(".a4", 2000, 2900))
	case "exists.served":
		return fmt.Sprintf("SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > %d) OR a4 > %d",
			lit(".b4", 2850, 2990), lit(".a4", 2000, 2900))
	case "q2": // Eqv. 4: disjunction inside the subquery
		return fmt.Sprintf("SELECT DISTINCT * FROM r WHERE a1 %s (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > %d)",
			cmp(".cmp"), lit(".b4", 0, 2999))
	case "q2.served": // Q2 with a result of a few rows: execution, not the wire
		return fmt.Sprintf("SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > %d)",
			lit(".b4", 0, 2999))
	case "q3": // tree: two subqueries under one disjunction
		return fmt.Sprintf("SELECT DISTINCT * FROM r WHERE a1 %s (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 AND b4 > %d) OR a3 %s (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)",
			cmp(".cmp1"), lit(".b4", 0, 2999), cmp(".cmp2"))
	case "q4": // linear, Eqv. 5, outer block restricted to a slice of r
		return fmt.Sprintf("SELECT DISTINCT * FROM r WHERE a1 < %d AND a1 %s (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))",
			lit(".slice", 1, 4), cmp(".cmp"))
	case "exists":
		return fmt.Sprintf("SELECT DISTINCT * FROM r WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > %d) OR a4 > %d",
			lit(".b4", 0, 2999), lit(".a4", 0, 2999))
	case "in":
		return fmt.Sprintf("SELECT DISTINCT * FROM r WHERE a2 IN (SELECT b2 FROM s WHERE b4 > %d) OR a4 > %d",
			lit(".b4", 0, 2999), lit(".a4", 0, 2999))
	case "all":
		return fmt.Sprintf("SELECT DISTINCT * FROM r WHERE a4 > ALL (SELECT b4 FROM s WHERE a2 = b2) OR a3 < %d",
			lit(".a3", 0, 99))
	case "q2d": // TPC-H Query 2d, the paper's introduction
		region := d.pick(shape+".region", []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"})
		return fmt.Sprintf(`SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment FROM part, supplier, partsupp, nation, region WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = %d AND p_type LIKE '%%%s' AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = '%s' AND (ps_supplycost = (SELECT MIN(ps_supplycost) FROM partsupp, supplier, nation, region WHERE s_suppkey = ps_suppkey AND p_partkey = ps_partkey AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = '%s') OR ps_availqty > %d) ORDER BY s_acctbal DESC, n_name, s_name, p_partkey`,
			lit(".size", 1, 50), d.pick(shape+".type", []string{"BRASS", "COPPER", "NICKEL", "STEEL", "TIN"}), region, region, lit(".availqty", 1, 9999))
	}
	panic("perfbench: unknown shape " + shape)
}

// cycleStream draws shapes from a fixed cycle holding each shape its
// weight's number of times, shuffled anew per cycle, so every window of
// a run sees the same mix whatever the seed. Literals are stratified.
type cycleStream struct {
	r     *rng
	lits  *stratified
	cycle []string
	pos   int
}

func newCycleStream(seed uint64, client int, weights []shapeWeight) *cycleStream {
	r := newRng(seed, uint64(client)+1)
	s := &cycleStream{r: r, lits: newStratified(r)}
	for _, w := range weights {
		for i := 0; i < w.Count; i++ {
			s.cycle = append(s.cycle, w.Shape)
		}
	}
	s.pos = len(s.cycle)
	return s
}

func (s *cycleStream) Next() Op {
	if s.pos == len(s.cycle) {
		for i := len(s.cycle) - 1; i > 0; i-- {
			j := s.r.intn(i + 1)
			s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i]
		}
		s.pos = 0
	}
	shape := s.cycle[s.pos]
	s.pos++
	return Op{Shape: shape, SQL: []string{shapeSQL(shape, s.lits)}}
}

// churnStream is one churn client: Zipf-skewed reads over a hot set of
// parameterized disjunctive queries shared by all clients, and writes to
// s on keys only this client owns. A write is an INSERT of a new key
// paired with a DELETE of the client's oldest key, or an UPDATE of b4 on
// a live key, so table sizes stay constant between operations.
type churnStream struct {
	r    *rng
	hot  []string
	zipf []float64 // cumulative Zipf weights over hot
	cfg  churnConfig
	live []int64 // owned keys, oldest first
	// owned holds the client's rows after every operation drawn so far:
	// what s must hold for this client once those writes committed.
	owned  map[int64][4]int64
	nextID int64
}

// churnHotSet draws the hot read set: the same for every client of a
// seed, so the clients share cache entries. Each query is a paper shape
// with its outer block restricted to a slice of SliceRows keys of r,
// the parameter that makes it a point query. The literals are dealt
// from fixed decks: a few hot queries take most reads, so each rank's
// comparison and literal stratum, and with them its cost, must not
// change with the seed; the seed moves the slices and the literals
// inside their strata.
func churnHotSet(seed uint64, cfg churnConfig) []string {
	r := newRng(seed, 0)
	lits := newStratified(r)
	lits.fixed = true
	hot := make([]string, cfg.HotSet)
	for i := range hot {
		sql := shapeSQL(cfg.HotShapes[i%len(cfg.HotShapes)], lits)
		lo := r.intn(cfg.rows() - cfg.SliceRows)
		hot[i] = strings.Replace(sql, " WHERE ",
			fmt.Sprintf(" WHERE a1 >= %d AND a1 < %d AND (", lo, lo+cfg.SliceRows), 1) + ")"
	}
	return hot
}

func newChurnStream(seed uint64, client int, cfg churnConfig, initial [][4]int64) *churnStream {
	s := &churnStream{
		r:      newRng(seed, uint64(client)+1),
		hot:    churnHotSet(seed, cfg),
		cfg:    cfg,
		owned:  make(map[int64][4]int64),
		nextID: int64(client+1) * 1_000_000,
	}
	sum := 0.0
	for i := range s.hot {
		sum += 1 / math.Pow(float64(i+1), cfg.ZipfS)
		s.zipf = append(s.zipf, sum)
	}
	for i := range s.zipf {
		s.zipf[i] /= sum
	}
	for _, row := range initial {
		if int(row[0])%cfg.Clients == client {
			s.live = append(s.live, row[0])
			s.owned[row[0]] = row
		}
	}
	return s
}

func (s *churnStream) Next() Op {
	if s.r.float() >= s.cfg.WriteOpShare {
		u := s.r.float()
		i := 0
		for i < len(s.zipf)-1 && s.zipf[i] < u {
			i++
		}
		return Op{Shape: fmt.Sprintf("hot%02d", i), SQL: []string{s.hot[i]}}
	}
	if s.r.float() < s.cfg.PairShare {
		row := [4]int64{s.nextID, int64(s.r.intn(s.cfg.rows() / 10)), int64(s.r.intn(100)), int64(s.r.intn(3000))}
		s.nextID++
		old := s.live[0]
		s.live = append(s.live[1:], row[0])
		delete(s.owned, old)
		s.owned[row[0]] = row
		return Op{Shape: "write.pair", Write: true,
			SQL: []string{
				fmt.Sprintf("INSERT INTO s VALUES (%d, %d, %d, %d)", row[0], row[1], row[2], row[3]),
				fmt.Sprintf("DELETE FROM s WHERE b1 = %d", old),
			},
			Muts: []mutation{{Kind: "insert", Key: row[0], Row: row}, {Kind: "delete", Key: old}},
		}
	}
	key := s.live[s.r.intn(len(s.live))]
	row := s.owned[key]
	row[3] = int64(s.r.intn(3000))
	s.owned[key] = row
	return Op{Shape: "write.update", Write: true,
		SQL:  []string{fmt.Sprintf("UPDATE s SET b4 = %d WHERE b1 = %d", row[3], key)},
		Muts: []mutation{{Kind: "update", Key: key, Row: row}},
	}
}
