// Command repro reproduces the paper's full evaluation in one run: it
// simulates the study window, applies the exact/RM1/RM2 matching
// framework, regenerates every table and figure (DESIGN.md E1-E13), and
// finishes with the qualitative shape checks comparing this run against
// the paper's reported results. Exit status is non-zero if any shape check
// fails.
//
// Usage:
//
//	repro [-seed N] [-days N] [-workers N] [-scale F] [-shards N]
//	      [-segment-rows N] [-trace FILE] [-trace-every HOURS]
//
// -scale multiplies the scenario's event volume: the default scenario is
// calibrated to roughly 1/20 of the paper's production week, so -scale 20
// is a paper-scale (1x) run and -scale 200 the 10x stress case. At scaled
// volumes the shape checks still apply — the scenario's proportions are
// scale-free. -shards sets the metastore shard count and -segment-rows
// the segment-seal threshold per time index (0 = default); neither ever
// changes output.
//
// -trace writes a JSONL run trace: one "checkpoint" event per
// -trace-every virtual hours with ingest progress and throughput, plus a
// final "run" span. Tracing observes the run through the same checkpoint
// seam the live server uses and never changes any output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"panrucio/internal/experiments"
	"panrucio/internal/obs"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
)

type options struct {
	seed        int64
	days        int
	workers     int
	scale       float64
	shards      int
	segmentRows int
	trace       string
	traceEvery  float64
}

// parseFlags parses the command line into options; kept separate from main
// so flag handling is testable without spawning the paper-scale run.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.days, "days", 8, "study-window length in days (paper: 8)")
	fs.IntVar(&o.workers, "workers", 0, "matcher worker goroutines (0 = all cores, 1 = serial)")
	fs.Float64Var(&o.scale, "scale", 1, "event-volume multiplier (20 = paper scale, 200 = 10x)")
	fs.IntVar(&o.shards, "shards", 0, "metastore shard count (0 = default)")
	fs.IntVar(&o.segmentRows, "segment-rows", 0, "metastore segment-seal threshold per time index (0 = default)")
	fs.StringVar(&o.trace, "trace", "", "write a JSONL run trace to this file")
	fs.Float64Var(&o.traceEvery, "trace-every", 6, "virtual hours between trace checkpoints (with -trace)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.days <= 0 {
		return nil, fmt.Errorf("-days must be positive, got %d", o.days)
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("-workers must be non-negative, got %d", o.workers)
	}
	if o.scale < 0 {
		return nil, fmt.Errorf("-scale must be non-negative, got %g", o.scale)
	}
	if o.shards < 0 {
		return nil, fmt.Errorf("-shards must be non-negative, got %d", o.shards)
	}
	if o.segmentRows < 0 {
		return nil, fmt.Errorf("-segment-rows must be non-negative, got %d", o.segmentRows)
	}
	if o.traceEvery <= 0 {
		return nil, fmt.Errorf("-trace-every must be > 0, got %g", o.traceEvery)
	}
	return o, nil
}

// runSuite executes the simulation + matching, traced or not. The traced
// path runs the identical engine through the observer seam, so the suite —
// and all rendered output — is byte-identical with and without -trace.
func runSuite(o *options) (*experiments.Suite, error) {
	cfg := o.config()
	if o.trace == "" {
		return experiments.RunWorkers(cfg, o.workers), nil
	}
	f, err := os.Create(o.trace)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr := obs.NewTrace(f)
	every := simtime.VTime(o.traceEvery * float64(simtime.Hour))
	t0 := time.Now()
	res := sim.RunWithObserver(cfg, every, sim.TraceObserver(tr, "checkpoint"))
	tr.Span("run", int64(res.WindowTo), time.Since(t0), map[string]any{
		"seed": o.seed, "days": o.days, "scale": o.scale,
		"stored_events": res.Store.TransferCount(),
	})
	return experiments.Build(res, o.workers), nil
}

// config builds the scenario the options select.
func (o *options) config() sim.Config {
	cfg := sim.PaperConfig(o.seed)
	cfg.Days = o.days
	cfg.Scale = o.scale
	cfg.Shards = o.shards
	cfg.SegmentRows = o.segmentRows
	return cfg
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(2)
	}

	if o.scale > 0 && o.scale != 1 {
		fmt.Printf("panrucio repro: %d-day window, seed %d, scale %gx\n", o.days, o.seed, o.scale)
	} else {
		fmt.Printf("panrucio repro: %d-day window, seed %d\n", o.days, o.seed)
	}
	start := time.Now()
	s, err := runSuite(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
	fmt.Printf("simulation + matching (%d worker(s)) completed in %v\n\n",
		s.Workers, time.Since(start).Round(time.Millisecond))

	fmt.Print(s.RenderAll())

	fmt.Println("== shape checks vs. paper ==")
	failures := 0
	for _, line := range s.ShapeChecks() {
		fmt.Println(line)
		if strings.HasPrefix(line, "[FAIL]") {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "repro: %d shape check(s) failed\n", failures)
		os.Exit(1)
	}
}
