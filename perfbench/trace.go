package main

import (
	"reflect"
	"strings"
	"sync"
	"time"

	"disqo/internal/physical"
)

// span is one timed call made by the traced replay. Spans of one
// operation share Op; Parent is the id of the enclosing span (-1 for
// the operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, op, parent int) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *recorder) duration(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].dur()
}

// call runs fn inside a span.
func (r *recorder) call(name string, op, parent int, fn func()) int {
	id := r.begin(name, op, parent)
	fn()
	r.end(id)
	return id
}

// selfTimes returns each span's duration minus its children's.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// kindOf names a physical operator by its Go type: *physical.HashJoin
// is "HashJoin".
func kindOf(n physical.Node) string {
	t := reflect.TypeOf(n)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// opTracer turns the executor's operator open/close events into spans
// named "exec.op.<Kind>", nested under the Executor.Run span. It keeps
// one stack of open spans, so it needs an executor with one worker:
// morsel workers would interleave their events.
type opTracer struct {
	rec   *recorder
	op    int
	root  int // the exec.Run span
	stack []int
}

func (t *opTracer) OpOpen(n physical.Node) {
	parent := t.root
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.stack = append(t.stack, t.rec.begin("exec.op."+kindOf(n), t.op, parent))
}

func (t *opTracer) OpMorsel(physical.Node, int, int) {}

func (t *opTracer) OpClose(physical.Node, int64, time.Duration) {
	if len(t.stack) == 0 {
		return
	}
	t.rec.end(t.stack[len(t.stack)-1])
	t.stack = t.stack[:len(t.stack)-1]
}

// layerOf maps a span name to the layer it times: the package prefix.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}
