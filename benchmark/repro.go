package main

import (
	"fmt"
	"runtime"
	"time"

	"panrucio/benchmark/quant"
	"panrucio/internal/analysis"
	"panrucio/internal/experiments"
	"panrucio/internal/sim"
)

// reproSetups is how many times the repro workload builds the simulated
// world to time its set-up. Construction takes tens of milliseconds, so
// more repetitions are cheap and steady the median.
const reproSetups = 31

// runRepro is the researcher's path: simulate the paper scenario, freeze
// the store, build the three matching passes, render every artifact and
// run the shape checks — over and over until the phase ends. The set-up
// it times is the construction of the simulated world (grid, models,
// seeded catalog), the part of sim.Run before the event loop starts.
//
// Traced, it alternates an untraced pipeline with one wired through the
// wrapped sinks, and requires the two to agree exactly.
func runRepro(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	var setup []float64
	for i := 0; i < reproSetups; i++ {
		runtime.GC() // each construction starts from the same heap
		t0 := time.Now()
		newWorld(p.cfg)
		setup = append(setup, time.Since(t0).Seconds())
	}
	o.set("setup_s", quant.Median(setup))

	var (
		ref                    *fingerprint
		wallMs, evRate, bPerEv []float64
		tracedMs               []float64
		sims                   []worldStats
		passes                 []passStats
		checksPassed           []float64
		stored                 int64
		rt                     = startRuntime()
		start                  = time.Now()
		ops                    int
	)
	for time.Since(start) < p.phase() || ops == 0 {
		for _, traced := range tracedOrder(tr) {
			ops++
			o.attempted++
			req := int64(ops)
			var t *tracer
			root := 0
			if traced {
				t = tr
				root = t.begin("repro.pipeline", 0, req)
			}
			t0 := time.Now()
			var (
				res    *sim.Result
				simS   float64
				st     worldStats
				suite  *experiments.Suite
				text   string
				checks []analysis.Check
			)
			if traced {
				var ps passStats
				res, simS, st = simulate(p.cfg, t, root, req)
				suite, text, checks, ps = analyzeStore(res, p.workers, t, root, req)
				sims = append(sims, st)
				passes = append(passes, ps)
			} else {
				res = sim.Run(p.cfg)
				simS = time.Since(t0).Seconds()
				suite = experiments.Build(res, 0)
				text = suite.RenderAll()
				checks = shapeChecks(suite)
			}
			ms := time.Since(t0).Seconds() * 1e3
			t.finish(root)
			if traced {
				tracedMs = append(tracedMs, ms)
			} else {
				wallMs = append(wallMs, ms)
				evRate = append(evRate, float64(res.StoredEvents)/simS)
			}

			passed, err := checkShape(checks)
			if err != nil {
				o.failed++
				return o, fmt.Errorf("pipeline %d: %w", ops, err)
			}
			checksPassed = append(checksPassed, float64(passed))
			fp := fingerprintOf(res, suite, text)
			if ref == nil {
				ref = &fp
			} else if !fp.equal(*ref) {
				o.failed++
				return o, fmt.Errorf("pipeline %d (traced=%v) differs from pipeline 1: %+v vs %+v",
					ops, traced, fp, *ref)
			}
			stored = res.StoredEvents
			bPerEv = append(bPerEv, heapPerEvent(res.StoredEvents, res, suite))
		}
	}
	rt.finish(o, ops, stored)

	o.set("p50_ms", quant.Median(wallMs))
	q := quant.TailQuantile(len(wallMs), tail)
	o.set("tail_ms", quant.Percentile(quant.Sorted(wallMs), q))
	o.set("events_per_s", quant.Median(evRate))
	o.set("live_b_per_event", quant.Median(bPerEv))
	o.set("bench.samples", float64(len(wallMs)))
	o.set("bench.tail_pct", 100*q)
	o.note("samples p50_ms %d pipelines", len(wallMs))
	o.note("samples tail_ms %d pipelines (p%g)", len(wallMs), 100*q)

	if tr != nil {
		spans := tr.snapshot()
		setSimLayers(o, sims, buildLedger(spans))
		setPassLayers(o, passes, checksPassed)
		o.set("trace.overhead_frac", quant.Median(tracedMs)/quant.Median(wallMs)-1)
		o.set("trace.unaccounted_frac", unaccounted(spans, "repro.pipeline"))
	}
	o.absent(serveLayers()...)
	o.absent("loadgen.late_ms_p99")
	return o, nil
}

// tracedOrder is the sequence of operations in one round: untraced only,
// or, in a traced run, an untraced operation and then a traced one.
func tracedOrder(tr *tracer) []bool {
	if tr == nil {
		return []bool{false}
	}
	return []bool{false, true}
}

// setSimLayers reports the simulator's layers from traced simulations: the
// median over simulations of each layer's self time and counts.
func setSimLayers(o *outcome, sims []worldStats, l ledger) {
	med := func(f func(worldStats) float64) float64 {
		xs := make([]float64, len(sims))
		for i, s := range sims {
			xs[i] = f(s)
		}
		return quant.Median(xs)
	}
	o.set("simtime.events", med(func(s worldStats) float64 { return float64(s.events) }))
	o.set("sim.models_self_s", l.medianSeconds("sim.setup", "sim.day"))
	o.set("corruption.calls", med(func(s worldStats) float64 { return float64(s.corrCalls) }))
	o.set("corruption.self_s", l.medianSeconds("corruption"))
	o.set("corruption.keep_ratio", med(func(s worldStats) float64 {
		return float64(s.kept) / float64(max(s.corrCalls, 1))
	}))
	o.set("metastore.puts", med(func(s worldStats) float64 { return float64(s.puts) }))
	o.set("metastore.put_s", l.medianSeconds("metastore.put"))
	o.set("metastore.put_ns_per_row", med(func(s worldStats) float64 {
		return s.putS * 1e9 / float64(max(s.puts, 1))
	}))
	o.set("metastore.freeze_s", l.medianSeconds("metastore.freeze"))
	o.set("metastore.sealed_segments", med(func(s worldStats) float64 { return float64(s.sealedSegments) }))
}

// setPassLayers reports the query, matching and rendering layers from
// timed analysis passes: the median over passes.
func setPassLayers(o *outcome, passes []passStats, checksPassed []float64) {
	med := func(f func(passStats) float64) float64 {
		xs := make([]float64, len(passes))
		for i, ps := range passes {
			xs[i] = f(ps)
		}
		return quant.Median(xs)
	}
	o.set("metastore.jobs_window_ms", med(func(ps passStats) float64 { return ps.jobsWindowS * 1e3 }))
	o.set("core.exact_ms", med(func(ps passStats) float64 { return ps.exactS * 1e3 }))
	o.set("core.rm1_ms", med(func(ps passStats) float64 { return ps.rm1S * 1e3 }))
	o.set("core.rm2_ms", med(func(ps passStats) float64 { return ps.rm2S * 1e3 }))
	o.set("core.jobs_per_s", med(func(ps passStats) float64 { return 3 * float64(ps.jobs) / ps.matchS() }))
	o.set("core.jobs", med(func(ps passStats) float64 { return float64(ps.jobs) }))
	o.set("core.rm2_match_ratio", med(func(ps passStats) float64 { return ps.rm2Ratio }))
	o.set("analysis.render_ms", med(func(ps passStats) float64 { return ps.renderS * 1e3 }))
	o.set("analysis.checks_ms", med(func(ps passStats) float64 { return ps.checksS * 1e3 }))
	o.set("analysis.checks_passed", quant.Median(checksPassed))
}

// serveLayers are the serving layer's metrics, which only the serve and
// live workloads exercise.
func serveLayers() []string {
	var out []string
	for _, d := range perLayer {
		if len(d.name) > 6 && d.name[:6] == "serve." {
			out = append(out, d.name)
		}
	}
	return out
}
