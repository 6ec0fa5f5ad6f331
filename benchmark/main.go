// Command benchmark measures the panrucio pipeline end to end and layer
// by layer, on one of four workloads:
//
//	go run . -workload {repro|analyze|serve|live|all} -seed N
//	         [-seconds X] [-trace 0|1] [-json FILE] [-spans FILE]
//
// Each run prints every metric as "name value unit", then one JSON object
// as its last line: {"correct", "attempted", "failed", "metrics"}. An
// untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) times the calls into each layer and reports the per-layer
// metrics. A failed correctness check exits non-zero with no metrics.
// README.md defines the workloads and every metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"panrucio/internal/sim"
	"panrucio/internal/simtime"
)

// params are one run's settings. Everything but seed and seconds is fixed
// by the workload definitions; tests shrink the scenario.
type params struct {
	seed      int64
	seconds   float64       // length of the measured phase
	cfg       sim.Config    // the scenario
	setups    int           // set-up repetitions behind setup_s
	minPasses int           // analyze: passes that keep p95 ten samples deep
	serveRate float64       // serve: open-loop arrivals per second
	liveRate  float64       // live: open-loop arrivals per second
	every     simtime.VTime // live: virtual time between checkpoints
	conns     int           // connections and closed-loop callers
	workers   int           // matcher fan-out
}

func (p params) phase() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

func defaultParams(seed int64, seconds float64) params {
	n := runtime.NumCPU()
	return params{
		seed:      seed,
		seconds:   seconds,
		cfg:       sim.PaperConfig(seed),
		setups:    3,
		minPasses: 200,
		serveRate: 300,
		liveRate:  50,
		every:     6 * simtime.Hour,
		conns:     n,
		workers:   n,
	}
}

var workloads = map[string]func(params, *tracer) (*outcome, error){
	"repro":   runRepro,
	"analyze": runAnalyze,
	"serve":   runServe,
	"live":    runLive,
}

var workloadOrder = []string{"repro", "analyze", "serve", "live"}

// runLimit bounds one workload run; a run still going then has hung.
const runLimit = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	jsonOut  string
	spansOut string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "repro, analyze, serve, live, or all")
	fs.Int64Var(&o.seed, "seed", 1, "scenario and request-schedule seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&o.jsonOut, "json", "", "also write the run's record to this file")
	fs.StringVar(&o.spansOut, "spans", "", "with -trace 1, write the recorded spans here as JSONL")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok && o.workload != "all" {
		return o, fmt.Errorf("unknown -workload %q (want %s or all)", o.workload, strings.Join(workloadOrder, ", "))
	}
	if o.seconds <= 0 || o.seconds > 60 {
		return o, fmt.Errorf("-seconds must be in (0, 60], got %g", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seed <= 0 {
		return o, fmt.Errorf("-seed must be positive, got %d", o.seed)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "benchmark: %s run exceeded %v\n", o.workload, runLimit)
		os.Exit(1)
	})
	defer watchdog.Stop()

	p := defaultParams(o.seed, o.seconds)
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	out, err := workloads[o.workload](p, tr)
	return report(o, out, err, tr, stdout, stderr)
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what -json writes: the result plus what produced it.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    int               `json:"trace"`
	Env      map[string]string `json:"env"`
	Notes    []string          `json:"notes"`
	result
}

func report(o options, out *outcome, runErr error, tr *tracer, stdout, stderr io.Writer) int {
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	env := environment()
	for _, k := range []string{"gomaxprocs", "nproc", "go", "commit"} {
		fmt.Fprintf(w, "# %s %s\n", k, env[k])
	}
	res := result{Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]metric{}}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	if runErr == nil {
		res.Metrics, runErr = out.pick(defs)
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, runErr)
		res.Metrics = map[string]metric{}
		writeResult(w, res)
		return 1
	}
	res.Correct = true
	for _, d := range defs {
		fmt.Fprintf(w, "%s %v %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	if o.jsonOut != "" {
		rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
			Env: env, Notes: out.notes, result: res}
		if err := writeJSONFile(o.jsonOut, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if o.spansOut != "" && tr != nil {
		if err := tr.writeJSONL(o.spansOut); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing spans:", err)
			return 1
		}
	}
	writeResult(w, res)
	return 0
}

func writeResult(w io.Writer, res result) {
	b, _ := json.Marshal(res) // plain values only: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll re-executes this binary once per workload, so that no heap or
// cache carries over from one workload to the next.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	failed := 0
	for _, wl := range workloadOrder {
		child := []string{"-workload", wl, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace)}
		if o.jsonOut != "" {
			child = append(child, "-json", perWorkload(o.jsonOut, wl))
		}
		if o.spansOut != "" {
			child = append(child, "-spans", perWorkload(o.spansOut, wl))
		}
		cmd := exec.Command(exe, child...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		fmt.Fprintf(stdout, "== %s\n", wl)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl, err)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// perWorkload inserts the workload name before a path's extension.
func perWorkload(path, wl string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + wl + ext
}

// environment records what the numbers depend on besides the code.
func environment() map[string]string {
	return map[string]string{
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
		"commit":     gitCommit("."),
	}
}

// gitCommit reads the checked-out commit from .git without running git,
// or reports "unknown" outside a git work tree.
func gitCommit(dir string) string {
	for d := dir; ; d = filepath.Join(d, "..") {
		abs, err := filepath.Abs(d)
		if err != nil {
			return "unknown"
		}
		head, err := os.ReadFile(filepath.Join(abs, ".git", "HEAD"))
		if errors.Is(err, os.ErrNotExist) {
			if filepath.Dir(abs) == abs {
				return "unknown"
			}
			continue
		}
		if err != nil {
			return "unknown"
		}
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if b, err := os.ReadFile(filepath.Join(abs, ".git", ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		packed, _ := os.ReadFile(filepath.Join(abs, ".git", "packed-refs"))
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
		return "unknown"
	}
}
