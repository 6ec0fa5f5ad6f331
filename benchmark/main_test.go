package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"panrucio/internal/sim"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp benchmarkSpec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// The catalog in metrics.go and BENCHMARK.json name the same metrics with
// the same units, and BENCHMARK.json lists exactly the four workloads.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	sp := loadSpec(t)
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: catalog has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i := range min(len(defs), len(got)) {
			if defs[i].name != got[i].Name || defs[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: catalog %s %s, BENCHMARK.json %s %s",
					kind, i, defs[i].name, defs[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, sp.EndToEnd)
	check("per_layer", perLayer, sp.PerLayer)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadOrder)
	}
}

// quickParams shrinks a workload to the quick scenario and a one-second
// phase.
func quickParams(seed int64) params {
	p := defaultParams(seed, 1)
	p.cfg = sim.QuickConfig(seed)
	p.setups = 1
	p.minPasses = 4
	return p
}

// TestSmokeAllWorkloads runs every workload traced on the quick scenario:
// a traced run measures the untraced operations too, so it must produce
// every metric BENCHMARK.json names, and pass every correctness gate
// (including the traced repro's identity with sim.Run).
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	sp := loadSpec(t)
	for _, wl := range workloadOrder {
		t.Run(wl, func(t *testing.T) {
			out, err := workloads[wl](quickParams(1), newTracer())
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range append(append([]struct{ Name, Unit string }(nil), sp.EndToEnd...), sp.PerLayer...) {
				if _, ok := out.values[m.Name]; !ok {
					t.Errorf("metric %s not emitted", m.Name)
				}
			}
			for _, m := range sp.EndToEnd {
				if out.values[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, out.values[m.Name])
				}
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
			}
		})
	}
}

// The last output line is one JSON object with exactly the four keys, and
// a failed gate exits non-zero with no metrics.
func TestReportLastLine(t *testing.T) {
	out := newOutcome()
	out.attempted = 3
	for _, d := range endToEnd {
		out.set(d.name, 1.5)
	}
	var stdout, stderr bytes.Buffer
	if code := report(options{workload: "repro"}, out, nil, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line keys: %s", lines[len(lines)-1])
	}
	if !strings.Contains(stdout.String(), "\np50_ms 1.5 ms\n") {
		t.Errorf("metrics not printed as name value unit:\n%s", stdout.String())
	}

	stdout.Reset()
	if code := report(options{workload: "repro"}, out, os.ErrInvalid, nil, &stdout, &stderr); code == 0 {
		t.Error("a failed gate must exit non-zero")
	}
	if !strings.Contains(stdout.String(), `"correct":false`) || !strings.Contains(stdout.String(), `"metrics":{}`) {
		t.Errorf("failed run should report correct false and no metrics:\n%s", stdout.String())
	}

	delete(out.values, "tail_ms")
	stdout.Reset()
	if code := report(options{workload: "repro"}, out, nil, nil, &stdout, &stderr); code == 0 {
		t.Error("a missing metric must fail the run")
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "repro", "-seconds", "0"},
		{"-workload", "repro", "-trace", "2"},
		{"-workload", "repro", "-seed", "0"},
	} {
		if _, err := parseFlags(args, &bytes.Buffer{}); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
	o, err := parseFlags([]string{"--workload", "live", "--seed", "7", "--seconds", "10", "--trace", "1"}, &bytes.Buffer{})
	if err != nil || o.workload != "live" || o.seed != 7 || o.seconds != 10 || o.trace != 1 {
		t.Errorf("double-dash flags: %+v, %v", o, err)
	}
}

// A stalled request delays every request queued behind it on the same
// connection, and the open loop charges that wait to them: latency runs
// from when a request was due, not from when it was sent.
func TestOpenLoopCountsStallInLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var sched []request
	for i := 0; i < 10; i++ {
		sched = append(sched, request{due: time.Duration(i) * 10 * time.Millisecond})
	}
	samples := openLoop(sched, 1, nil, func(i int, _ request, _ time.Time) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	if len(samples) != len(sched) {
		t.Fatalf("%d samples, want %d", len(samples), len(sched))
	}
	for _, s := range samples {
		// Request i was due at 10i ms and could start only after the stall.
		floor := stall - sched[s.index].due
		if s.latency < floor {
			t.Errorf("request %d: latency %v, want at least %v", s.index, s.latency, floor)
		}
	}
	// With a goroutine per request nothing queues behind the stall.
	samples = openLoop(sched, 0, nil, func(i int, _ request, _ time.Time) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for _, s := range samples[1:] {
		if s.latency >= stall/2 {
			t.Errorf("request %d waited %v without sharing a connection", s.index, s.latency)
		}
	}
}

// Closing stop ends dispatch: later requests are dropped, sent ones are
// waited for.
func TestOpenLoopStops(t *testing.T) {
	sched := []request{{due: 0}, {due: time.Hour}}
	stop := make(chan struct{})
	samples := openLoop(sched, 0, stop, func(int, request, time.Time) bool {
		close(stop)
		return true
	})
	if len(samples) != 1 || !samples[0].ok {
		t.Fatalf("samples %+v, want just the first request", samples)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100, Req: 1},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1, Req: 1},
		{ID: 3, Name: "b", Start: 30, End: 60, Parent: 1, Req: 1},  // overlaps a
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1, Req: 1}, // runs past root
		{ID: 5, Name: "d", Start: 15, End: 20, Parent: 2, Req: 1},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	if u := unaccounted(spans, "root"); u != 0.4 {
		t.Errorf("unaccounted %v, want 0.4", u)
	}
	if l := buildLedger(spans); l[1]["a"] != 25 {
		t.Errorf("ledger a = %v, want 25", l[1]["a"])
	}
}

func TestExpectedEpochs(t *testing.T) {
	if got := expectedEpochs(sim.PaperConfig(1), 6*3600); got != 32 {
		t.Errorf("paper scenario: %d epochs, want 32", got)
	}
	if got := expectedEpochs(sim.QuickConfig(1), 6*3600); got != 8 {
		t.Errorf("quick scenario: %d epochs, want 8", got)
	}
}
