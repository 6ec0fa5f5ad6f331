// Command compare sets two sets of benchmark runs side by side and gives
// each workload and metric a verdict:
//
//	go run ./compare BASE/*.json CHANGE/*.json
//
// The arguments are records written by the benchmark's -json flag, grouped
// by directory: the first directory named holds the base's runs, the other
// the change's. Runs are paired in file-name order. For every metric the
// comparer prints each side's median and quartiles, how many pairs the
// change won, and a verdict:
//
//   - better: over at least ten pairs, the change won at least nine tenths
//     of them and its median differs from the base's by more than the
//     base's interquartile range;
//   - unresolved: either side's spread (interquartile range over median)
//     is wider than the metric's bound and not every change run beats
//     every base run;
//   - worse: the change's median is worse than the base's by more than
//     the bound;
//   - unchanged: none of these.
//
// Per-layer metrics have no bound and get no verdict. Bounds and
// directions come from the BENCHMARK.json in the working directory or its
// parent. The exit status is 1 when any verdict is worse.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"panrucio/benchmark/quant"
)

// spec is the part of BENCHMARK.json the comparer reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// record is the part of a run record the comparer reads.
type record struct {
	Workload string `json:"workload"`
	Correct  bool   `json:"correct"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	base, change, err := splitSides(args)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	baseRuns, err := loadRuns(base)
	if err == nil {
		var changeRuns map[string][]record
		if changeRuns, err = loadRuns(change); err == nil {
			if compare(stdout, sp, baseRuns, changeRuns) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "compare:", err)
	return 2
}

// loadSpec reads BENCHMARK.json from the working directory or, when the
// comparer runs from the benchmark's own directory, from its parent.
func loadSpec() (*spec, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var sp spec
		if err := json.Unmarshal(b, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &sp, nil
	}
	return nil, fmt.Errorf("no BENCHMARK.json in . or ..")
}

// splitSides groups the record files by directory: the first directory
// named is the base, the other the change.
func splitSides(args []string) (base, change []string, err error) {
	var dirs []string
	groups := map[string][]string{}
	for _, a := range args {
		d := filepath.Dir(a)
		if _, ok := groups[d]; !ok {
			dirs = append(dirs, d)
		}
		groups[d] = append(groups[d], a)
	}
	if len(dirs) != 2 {
		return nil, nil, fmt.Errorf("want the runs of two directories (base, change), got %d", len(dirs))
	}
	return groups[dirs[0]], groups[dirs[1]], nil
}

// loadRuns reads records by workload, in file-name order.
func loadRuns(files []string) (map[string][]record, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("no run records")
	}
	sort.Strings(files)
	out := map[string][]record{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s: not a benchmark run record", f)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: the run failed its correctness checks", f)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, nil
}

// compare prints one row per workload and metric present on both sides,
// and reports whether any verdict was worse.
func compare(w io.Writer, sp *spec, base, change map[string][]record) (anyWorse bool) {
	var workloads []string
	for wl := range base {
		if _, ok := change[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-8s %-34s %-9s %28s %28s %8s %5s  %s\n",
		"workload", "metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "delta", "won", "verdict")
	for _, wl := range workloads {
		for _, group := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			for _, m := range group {
				b, c := values(base[wl], m.Name), values(change[wl], m.Name)
				if len(b) == 0 || len(c) == 0 {
					continue
				}
				v := judge(b, c, m.Bound, m.Better == "lower")
				if v.verdict == "worse" {
					anyWorse = true
				}
				fmt.Fprintf(w, "%-8s %-34s %-9s %28s %28s %+7.2f%% %2d/%-2d  %s\n",
					wl, m.Name, m.Unit, summary(b), summary(c), v.deltaPct, v.won, v.pairs, v.verdict)
			}
		}
	}
	return anyWorse
}

func values(runs []record, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func summary(xs []float64) string {
	q1, med, q3 := quant.Quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", med, q1, q3, len(xs))
}

// minPairs is the fewest pairs a gain may be claimed on: with five, a
// change that alters nothing still wins all of them one time in 32.
const minPairs = 10

// judgement is one metric's comparison.
type judgement struct {
	won, pairs int
	deltaPct   float64 // change median over base median, in percent
	verdict    string
}

// judge compares the change's runs with the base's. bound is the share of
// the base median the metric may worsen by; 0 means the metric has no
// bound and gets no verdict.
func judge(base, change []float64, bound float64, lowerBetter bool) judgement {
	sign := 1.0 // > 0 when a larger value is better
	if lowerBetter {
		sign = -1
	}
	bq1, bmed, bq3 := quant.Quartiles(base)
	_, cmed, _ := quant.Quartiles(change)
	j := judgement{pairs: min(len(base), len(change))}
	for i := 0; i < j.pairs; i++ {
		if sign*(change[i]-base[i]) > 0 {
			j.won++
		}
	}
	if bmed != 0 {
		j.deltaPct = 100 * (cmed - bmed) / math.Abs(bmed)
	}
	if bound == 0 {
		j.verdict = "-"
		return j
	}
	// Every change run beats (or loses to) every base run when the change's
	// worst (best) run beats (loses to) the base's best (worst).
	bs, cs := quant.Sorted(base), quant.Sorted(change)
	bBest, bWorst, cBest, cWorst := bs[len(bs)-1], bs[0], cs[len(cs)-1], cs[0]
	if lowerBetter {
		bBest, bWorst, cBest, cWorst = bWorst, bBest, cWorst, cBest
	}
	allBetter := sign*(cWorst-bBest) > 0
	allWorse := sign*(bWorst-cBest) > 0
	worseBy := -sign * (cmed - bmed) / math.Abs(bmed) // > 0 when the change is worse
	spread := math.Max(quant.Spread(base), quant.Spread(change))
	switch {
	case j.pairs >= minPairs && 10*j.won >= 9*j.pairs && sign*(cmed-bmed) > bq3-bq1:
		j.verdict = "better"
	case spread > bound && !allBetter:
		if allWorse && worseBy > bound {
			j.verdict = "worse"
		} else {
			j.verdict = "unresolved"
		}
	case worseBy > bound:
		j.verdict = "worse"
	default:
		j.verdict = "unchanged"
	}
	return j
}
