package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 1 || o.days != 8 || o.workers != 0 || o.scale != 1 {
		t.Errorf("unexpected defaults: %+v", o)
	}
	cfg := o.config()
	if cfg.Seed != 1 || cfg.Days != 8 {
		t.Errorf("config did not carry the options: %+v", cfg)
	}
	if cfg.Scale != 1 {
		t.Errorf("default scale should be neutral: %+v", cfg)
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	o, err := parseFlags([]string{"-seed", "7", "-days", "3", "-workers", "4", "-scale", "20"})
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 7 || o.days != 3 || o.workers != 4 || o.scale != 20 {
		t.Errorf("overrides lost: %+v", o)
	}
	if cfg := o.config(); cfg.Seed != 7 || cfg.Days != 3 || cfg.Scale != 20 {
		t.Errorf("config did not carry the overrides: %+v", cfg)
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-days", "0"},
		{"-days", "-2"},
		{"-seed", "x"},
		{"-scale", "-1"},
		{"-workers", "-1"},
		{"-trace-every", "0"},
		{"-trace-every", "-3"},
		{"-unknown"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

// TestRunSuiteTrace runs a tiny traced scenario and checks the JSONL
// trace is well-formed and that tracing does not change the rendered
// output.
func TestRunSuiteTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	traced, err := parseFlags([]string{"-days", "1", "-scale", "0.05", "-workers", "1",
		"-trace", path, "-trace-every", "6"})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := parseFlags([]string{"-days", "1", "-scale", "0.05", "-workers", "1"})
	if err != nil {
		t.Fatal(err)
	}

	st, err := runSuite(traced)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := runSuite(plain)
	if err != nil {
		t.Fatal(err)
	}
	if st.RenderAll() != sp.RenderAll() {
		t.Error("tracing changed the rendered output")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var checkpoints, spans int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec struct {
			Type   string         `json:"type"`
			Name   string         `json:"name"`
			VTSecs int64          `json:"vt_secs"`
			Fields map[string]any `json:"fields"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		switch {
		case rec.Type == "event" && rec.Name == "checkpoint":
			checkpoints++
			if _, ok := rec.Fields["transfers"]; !ok {
				t.Errorf("checkpoint missing transfers field: %v", rec.Fields)
			}
		case rec.Type == "span" && rec.Name == "run":
			spans++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// 1 virtual day at 6-hour checkpoints: at least 2 interior checkpoints.
	if checkpoints < 2 || spans != 1 {
		t.Errorf("trace had %d checkpoints and %d run spans", checkpoints, spans)
	}
}
