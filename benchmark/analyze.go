package main

import (
	"fmt"
	"time"

	"panrucio/benchmark/quant"
	"panrucio/internal/sim"
)

// runAnalyze is the analyst re-running E3–E13 over a finished store. Its
// set-up simulates the scenario (several times, for a steady median); the
// timed passes then each query the window's user jobs, run Exact, RM1 and
// RM2 across nproc workers, render every artifact and run the shape
// checks. The simulator moves only setup_s and events_per_s here.
func runAnalyze(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	var (
		res         *sim.Result
		setup, rate []float64
		sims        []worldStats
	)
	for i := 0; i < p.setups; i++ {
		res = nil // let the previous store go before building the next
		r, secs, st := simulate(p.cfg, tr, 0, int64(-1-i))
		res = r
		setup = append(setup, secs)
		rate = append(rate, float64(r.StoredEvents)/secs)
		sims = append(sims, st)
	}
	o.set("setup_s", quant.Median(setup))
	o.set("events_per_s", quant.Median(rate))

	// One untimed pass fills caches and fixes the reference outputs.
	suite, text, checks, _ := analyzeStore(res, p.workers, nil, 0, 0)
	if _, err := checkShape(checks); err != nil {
		return o, err
	}
	ref := fingerprintOf(res, suite, text)
	o.set("live_b_per_event", heapPerEvent(res.StoredEvents, res, suite))

	var (
		passMs, tracedMs []float64
		passes           []passStats
		checksPassed     []float64
		rt               = startRuntime()
		start            = time.Now()
		ops              int
	)
	for time.Since(start) < p.phase() || ops < p.minPasses {
		for _, traced := range tracedOrder(tr) {
			ops++
			o.attempted++
			var t *tracer
			root := 0
			if traced {
				t = tr
				root = t.begin("analyze.pass", 0, int64(ops))
			}
			t0 := time.Now()
			suite, text, checks, ps := analyzeStore(res, p.workers, t, root, int64(ops))
			ms := time.Since(t0).Seconds() * 1e3
			t.finish(root)
			if traced {
				tracedMs = append(tracedMs, ms)
				passes = append(passes, ps)
			} else {
				passMs = append(passMs, ms)
			}
			passed, err := checkShape(checks)
			if err != nil {
				o.failed++
				return o, fmt.Errorf("pass %d: %w", ops, err)
			}
			checksPassed = append(checksPassed, float64(passed))
			if fp := fingerprintOf(res, suite, text); !fp.equal(ref) {
				o.failed++
				return o, fmt.Errorf("pass %d differs from the reference pass: matched %v vs %v, report %s vs %s",
					ops, fp.matched, ref.matched, fp.report, ref.report)
			}
		}
	}
	rt.finish(o, ops, res.StoredEvents)

	q := quant.TailQuantile(len(passMs), tail)
	o.set("p50_ms", quant.Median(passMs))
	o.set("tail_ms", quant.Percentile(quant.Sorted(passMs), q))
	o.set("bench.samples", float64(len(passMs)))
	o.set("bench.tail_pct", 100*q)
	o.note("samples p50_ms %d passes", len(passMs))
	o.note("samples tail_ms %d passes (p%g)", len(passMs), 100*q)

	if tr != nil {
		spans := tr.snapshot()
		setSimLayers(o, sims, buildLedger(setupSpans(spans)))
		setPassLayers(o, passes, checksPassed)
		o.set("trace.overhead_frac", quant.Median(tracedMs)/quant.Median(passMs)-1)
		o.set("trace.unaccounted_frac", unaccounted(spans, "analyze.pass"))
	}
	o.absent(serveLayers()...)
	o.absent("loadgen.late_ms_p99")
	return o, nil
}

// setupSpans keeps the spans of set-up work, which carries negative
// operation ids.
func setupSpans(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.Req < 0 {
			out = append(out, s)
		}
	}
	return out
}
