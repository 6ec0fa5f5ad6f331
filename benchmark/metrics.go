package main

import (
	"fmt"
	"runtime"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names with the same units; a test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; README.md defines what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"events_per_s", "events/s"},
	{"live_b_per_event", "B/event"},
}

// tail is the percentile repro, analyze and live report as tail_ms. On a
// shared two-core 2.1 GHz Xeon VM, higher percentiles were not steady
// enough to bound a regression: over seven seeds of the serve workload
// (~4,500 requests each), p99 ranged from 2.3 to 4.2 ms while p95 stayed
// between 0.53 and 0.62 ms. Lower ones can fall between two modes: the ~9%
// of analyze passes that overlap a GC cycle take ~1.7x as long, so p90 sat
// on the boundary and its spread over ten seeds reached 37%.
const tail = 0.95

// handlerEndpoints are the endpoint classes the serve workload requests.
var handlerEndpoints = []string{"meta", "layout", "experiment", "job", "match", "task", "pandaids"}

// perLayer are the traced run's metrics, named after the modules they
// time. A workload that does not exercise a layer reports it as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"simtime.events", "count"},
		{"sim.models_self_s", "s"},
		{"corruption.calls", "count"},
		{"corruption.self_s", "s"},
		{"corruption.keep_ratio", "ratio"},
		{"metastore.puts", "count"},
		{"metastore.put_s", "s"},
		{"metastore.put_ns_per_row", "ns/row"},
		{"metastore.freeze_s", "s"},
		{"metastore.sealed_segments", "count"},
		{"metastore.jobs_window_ms", "ms"},
		{"core.exact_ms", "ms"},
		{"core.rm1_ms", "ms"},
		{"core.rm2_ms", "ms"},
		{"core.jobs_per_s", "jobs/s"},
		{"core.jobs", "count"},
		{"core.rm2_match_ratio", "ratio"},
		{"analysis.render_ms", "ms"},
		{"analysis.checks_ms", "ms"},
		{"analysis.checks_passed", "count"},
	}
	for _, ep := range handlerEndpoints {
		defs = append(defs,
			metricDef{"serve.handler_us." + ep + ".p50", "us"},
			metricDef{"serve.handler_us." + ep + ".p99", "us"})
	}
	return append(defs,
		metricDef{"serve.wire_us_p50", "us"},
		metricDef{"serve.capacity_rps", "req/s"},
		metricDef{"serve.epochs", "count"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.handler_ms_p50", "ms"},
		metricDef{"serve.handler_ms_p95", "ms"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.gc_cycles", "1/op"},
		metricDef{"runtime.alloc_b_per_event", "B/event"},
		metricDef{"runtime.heap_mb", "MB"},
		metricDef{"loadgen.late_ms_p99", "ms"},
		metricDef{"bench.samples", "count"},
		metricDef{"bench.tail_pct", "%"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"trace.unaccounted_frac", "ratio"},
	)
}()

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	values            map[string]float64
	// notes are informational lines printed after the metrics: sample
	// counts and the percentiles behind each tail.
	notes []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// set records a catalogued metric; an unknown name is a bug.
func (o *outcome) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("benchmark: metric " + name + " is not in the catalog")
	}
	o.values[name] = v
}

// absent reports layers the workload does not exercise.
func (o *outcome) absent(names ...string) {
	for _, n := range names {
		o.set(n, 0)
	}
}

// count adds open-loop requests to the attempted and failed totals. Every
// request of the benchmark's mixes must succeed.
func (o *outcome) count(samples []sample) error {
	bad := 0
	for _, s := range samples {
		if !s.ok {
			bad++
		}
	}
	o.attempted += int64(len(samples))
	o.failed += int64(bad)
	if bad > 0 {
		return fmt.Errorf("%d of %d requests failed", bad, len(samples))
	}
	return nil
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// pick returns the catalogued metrics of one kind, erroring if the
// workload left any unset.
func (o *outcome) pick(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runtimeDelta measures the Go runtime across a phase of ops operations
// over a store of storedEvents events.
type runtimeDelta struct{ before runtime.MemStats }

func startRuntime() *runtimeDelta {
	d := &runtimeDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// finish sets the runtime.* metrics for the phase since startRuntime.
func (d *runtimeDelta) finish(o *outcome, ops int, storedEvents int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	ops = max(ops, 1)
	o.set("runtime.gc_cpu_frac", after.GCCPUFraction)
	// The benchmark's own heap measurements force collections; count the
	// program's.
	cycles := (after.NumGC - after.NumForcedGC) - (d.before.NumGC - d.before.NumForcedGC)
	o.set("runtime.gc_cycles", float64(cycles)/float64(ops))
	if storedEvents > 0 {
		o.set("runtime.alloc_b_per_event",
			float64(after.TotalAlloc-d.before.TotalAlloc)/float64(ops)/float64(storedEvents))
	} else {
		o.set("runtime.alloc_b_per_event", 0)
	}
	// HeapSys estimates the largest size the heap has had.
	o.set("runtime.heap_mb", float64(after.HeapSys)/(1<<20))
}
