// Command sweep runs a grid of simulation scenarios concurrently and
// prints one aggregate report: per-scenario Exact/RM1/RM2 match rates
// (the E4/E5 tables across the grid), shape-check pass/fail counts, and
// the match-rate curves. The report is byte-identical for any -workers
// value; timing goes to stderr so stdout stays deterministic.
//
// Usage:
//
//	sweep [-grid robustness|seeds|mix|verify] [-seed N] [-scenarios N]
//	      [-workers N] [-match-workers N] [-format markdown|json]
//	      [-trace FILE] [-trace-every HOURS]
//
// The canned grids are quick-scale (2-day scenarios): "robustness" is the
// E14 corruption ramp, "seeds" an 8-way seed fan-out, "mix" the workload
// mix crossed with background-traffic intensity, and "verify" the E15
// integrity grid — per-channel ingest corruption (tolerance) paired with
// the same channel's at-rest tamper of sealed segments (detection).
//
// -trace writes a JSONL run trace: per-scenario checkpoint events (named
// by scenario id, so concurrent workers' records stay attributable) and
// one span per scenario. Tracing never changes the report.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"panrucio/internal/obs"
	"panrucio/internal/simtime"
	"panrucio/internal/sweep"
)

type options struct {
	seed         int64
	grid         string
	scenarios    int
	workers      int
	matchWorkers int
	format       string
	trace        string
	traceEvery   float64
}

// parseFlags parses the command line into options, validating the grid and
// format names so bad invocations fail before any simulation starts.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 1, "base simulation seed")
	fs.StringVar(&o.grid, "grid", "robustness", "canned grid: robustness (E14 corruption ramp), seeds, mix, verify (E15 tamper detection)")
	fs.IntVar(&o.scenarios, "scenarios", 0, "run only the first N scenarios of the grid (0 = all)")
	fs.IntVar(&o.workers, "workers", 0, "concurrent scenarios (0 = all cores, 1 = serial)")
	fs.IntVar(&o.matchWorkers, "match-workers", 1, "matcher goroutines per scenario (0 = all cores)")
	fs.StringVar(&o.format, "format", "markdown", "report format: markdown or json")
	fs.StringVar(&o.trace, "trace", "", "write a JSONL run trace to this file")
	fs.Float64Var(&o.traceEvery, "trace-every", 6, "virtual hours between trace checkpoints (with -trace)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, err := sweep.Canned(o.grid, o.seed); err != nil {
		return nil, err
	}
	switch o.format {
	case "markdown", "json":
	default:
		return nil, fmt.Errorf("unknown format %q (want markdown or json)", o.format)
	}
	if o.scenarios < 0 {
		return nil, fmt.Errorf("-scenarios must be >= 0, got %d", o.scenarios)
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("-workers must be >= 0, got %d", o.workers)
	}
	if o.matchWorkers < 0 {
		return nil, fmt.Errorf("-match-workers must be >= 0, got %d", o.matchWorkers)
	}
	if o.traceEvery <= 0 {
		return nil, fmt.Errorf("-trace-every must be > 0, got %g", o.traceEvery)
	}
	return o, nil
}

// buildGrid materializes the selected canned grid, truncated to the first
// -scenarios entries.
func buildGrid(o *options) []sweep.Scenario {
	scenarios, _ := sweep.Canned(o.grid, o.seed) // parseFlags checked the name
	if o.scenarios > 0 && o.scenarios < len(scenarios) {
		scenarios = scenarios[:o.scenarios]
	}
	return scenarios
}

// run executes the sweep and renders the report — the deterministic part
// of the command, shared with the byte-identical-output test. The trace
// (if any) goes to a side file, so stdout stays deterministic.
func run(o *options) (string, error) {
	opt := sweep.Options{
		Workers:      o.workers,
		MatchWorkers: o.matchWorkers,
	}
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return "", err
		}
		defer f.Close()
		opt.Trace = obs.NewTrace(f)
		opt.TraceEvery = simtime.VTime(o.traceEvery * float64(simtime.Hour))
	}
	rep := sweep.Run(buildGrid(o), opt)
	if o.format == "json" {
		return rep.JSON(), nil
	}
	return rep.Markdown(), nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
	n := len(buildGrid(o))
	start := time.Now()
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	fmt.Print(out)
	fmt.Fprintf(os.Stderr, "sweep: %d scenario(s) in %v (%.2f scenarios/sec)\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
}
