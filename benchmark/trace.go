package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"panrucio/benchmark/quant"
)

// span is one interval the benchmark recorded around a call into a layer.
// Times are nanoseconds since the tracer started. Parent 0 marks a root;
// spans of one operation (a pipeline, a pass, a request) share Req. An
// aggregated span stands for Calls calls summed into one interval, as the
// simulator's per-call sinks are summed per virtual day.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Calls  int64  `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op returning span id 0.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add records a finished interval and returns its id.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time, calls int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: t.ns(start), End: t.ns(end),
		Parent: parent, Req: req, Calls: calls})
	return id
}

// begin opens a span now; finish stamps its end. Children may name its id
// as their parent in between.
func (t *tracer) begin(name string, parent int, req int64) int {
	return t.beginAt(name, parent, req, time.Now())
}

// beginAt opens a span that started at the given time.
func (t *tracer) beginAt(name string, parent int, req int64, start time.Time) int {
	return t.add(name, parent, req, start, start, 0)
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, req int64, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.finish(id)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (children may overlap each other; the
// covered part is their union, clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, k int) bool { return cs[i].Start < cs[k].Start })
		var covered, reach int64
		reach = s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// ledger sums self time by span name, per root operation: ledger[req][name].
type ledger map[int64]map[string]time.Duration

func buildLedger(spans []span) ledger {
	self := selfTimes(spans)
	l := ledger{}
	for _, s := range spans {
		m := l[s.Req]
		if m == nil {
			m = map[string]time.Duration{}
			l[s.Req] = m
		}
		m[s.Name] += self[s.ID]
	}
	return l
}

// medianSeconds is the median over operations of the self time of the
// named layers, summed within each operation.
func (l ledger) medianSeconds(names ...string) float64 {
	var xs []float64
	for _, m := range l {
		var sum time.Duration
		for _, n := range names {
			sum += m[n]
		}
		xs = append(xs, sum.Seconds())
	}
	return quant.Median(xs)
}

// unaccounted is the median over operations of the share of the root
// span's duration not covered by any child: time spent outside every
// layer the ledger names.
func unaccounted(spans []span, root string) float64 {
	self := selfTimes(spans)
	var xs []float64
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 && s.End > s.Start {
			xs = append(xs, float64(self[s.ID])/float64(s.End-s.Start))
		}
	}
	return quant.Median(xs)
}
