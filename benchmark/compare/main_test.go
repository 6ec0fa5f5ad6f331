package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name        string
		base, chg   []float64
		bound       float64
		lowerBetter bool
		want        string
	}{
		{"same runs", base, base, 0.05, true, "unchanged"},
		{"small drift inside the bound", base, scaleAll(base, 1.02), 0.05, true, "unchanged"},
		{"faster in every pair", base, scaleAll(base, 0.8), 0.05, true, "better"},
		{"slower beyond the bound", base, scaleAll(base, 1.2), 0.05, true, "worse"},
		{"higher-is-better drop", base, scaleAll(base, 0.8), 0.05, false, "worse"},
		{"higher-is-better gain", base, scaleAll(base, 1.2), 0.05, false, "better"},
		{"spread wider than the bound", wide, scaleAll(wide, 1.03), 0.05, true, "unresolved"},
		{"wide but every change run worse", wide, scaleAll(wide, 3), 0.05, true, "worse"},
		{"no bound: no verdict", base, scaleAll(base, 1.2), 0, true, "-"},
	}
	for _, c := range cases {
		if got := judge(c.base, c.chg, c.bound, c.lowerBetter); got.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.verdict, c.want, got)
		}
	}
	if j := judge(base, scaleAll(base, 0.8), 0.05, true); j.won != 10 || j.pairs != 10 {
		t.Errorf("won %d of %d pairs, want 10 of 10", j.won, j.pairs)
	}
	// Five pairs are too few to claim a gain, however clear.
	if j := judge(base[:5], scaleAll(base[:5], 0.8), 0.05, true); j.verdict != "unchanged" {
		t.Errorf("five pairs: verdict %q, want unchanged", j.verdict)
	}
}

// writeRuns writes one run record per value into dir.
func writeRuns(t *testing.T, dir, workload string, vals []float64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		rec := map[string]any{
			"workload": workload, "correct": true,
			"metrics": map[string]any{"p50_ms": map[string]any{"value": v, "unit": "ms"}},
		}
		b, _ := json.Marshal(rec)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run%02d.json", i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunComparesRecordFiles(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	if err := os.WriteFile("BENCHMARK.json", []byte(`{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.05}],"per_layer":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	slow := []float64{10, 10.1, 9.9, 10, 10.2, 10, 10.1, 9.9, 10, 10.2}
	writeRuns(t, "base", "serve", slow)
	writeRuns(t, "change", "serve", scaleAll(slow, 1.2))
	base, chg := mustGlob(t, "base"), mustGlob(t, "change")

	var out, errb bytes.Buffer
	if code := run(append(append([]string(nil), base...), chg...), &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 for a worse verdict; stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("output lacks the worse verdict:\n%s", out.String())
	}

	out.Reset()
	if code := run(append(append([]string(nil), chg...), base...), &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 when the faster side is the change; stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "better") {
		t.Errorf("swapping sides should read better:\n%s", out.String())
	}

	if code := run(base, &out, &errb); code != 2 {
		t.Errorf("one directory of runs: exit %d, want 2", code)
	}
}

func scaleAll(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func mustGlob(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no records in %s", dir)
	}
	return files
}
