package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"panrucio/internal/experiments"
	"panrucio/internal/report"
	"panrucio/internal/serve"
	"panrucio/internal/sim"
	"panrucio/internal/sweep"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 1 || o.days != 8 || o.quick || o.csv || o.exp != "all" || o.workers != 0 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func TestParseFlagsAcceptsEveryExperimentID(t *testing.T) {
	ids := append(experiments.IDs(), "all", "repair", "coopt")
	if len(ids) != 22 {
		t.Fatalf("%d -exp ids, want the registry's 19 plus all, repair and coopt", len(ids))
	}
	for _, id := range ids {
		if _, err := parseFlags([]string{"-exp", id}); err != nil {
			t.Errorf("-exp %s rejected: %v", id, err)
		}
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-exp", ""},
		{"-days", "0"},
		{"-workers", "x"},
		{"-workers", "-2"},
		{"-nope"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

// TestE14RejectsFlagsItWouldIgnore covers every registry entry that runs
// its own scenarios (E14 and E15): the single-scenario flags are rejected,
// -seed and -workers accepted.
func TestE14RejectsFlagsItWouldIgnore(t *testing.T) {
	var ids []string
	for _, e := range experiments.Registry {
		if e.Scenarios != nil {
			ids = append(ids, e.ID)
		}
	}
	if !slices.Equal(ids, []string{"e14", "e15"}) {
		t.Fatalf("entries with scenarios of their own: %v, want [e14 e15]", ids)
	}
	for _, id := range ids {
		for _, args := range [][]string{
			{"-exp", id, "-days", "4"},
			{"-exp", id, "-quick"},
			{"-exp", id, "-csv"},
		} {
			if _, err := parseFlags(args); err == nil {
				t.Errorf("args %v accepted, but %s would silently ignore them", args, id)
			}
		}
		// -seed and -workers are honored by the sweep and must stay accepted.
		if _, err := parseFlags([]string{"-exp", id, "-seed", "3", "-workers", "2"}); err != nil {
			t.Errorf("%s with -seed/-workers rejected: %v", id, err)
		}
	}
}

func TestQuickFlagSelectsQuickScenario(t *testing.T) {
	o, err := parseFlags([]string{"-quick", "-seed", "3", "-days", "2"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.config()
	if cfg.Seed != 3 || cfg.Days != 2 {
		t.Errorf("config lost the overrides: %+v", cfg)
	}
	if cfg.Workload.InitialDatasets == 0 {
		t.Error("-quick did not select the reduced scenario")
	}
}

// TestQuickKeepsItsWindowUnlessDaysGiven pins -days' scope: -quick alone
// runs the quick scenario's own window, the one cmd/serve -quick serves;
// an explicit -days overrides it; the paper scenario defaults to 8 days.
func TestQuickKeepsItsWindowUnlessDaysGiven(t *testing.T) {
	for _, c := range []struct {
		args []string
		days int
	}{
		{[]string{"-quick", "-seed", "4"}, sim.QuickConfig(4).Days},
		{[]string{"-quick"}, sim.QuickConfig(1).Days},
		{[]string{"-quick", "-days", "5"}, 5},
		{[]string{"-days", "5", "-quick"}, 5},
		{nil, 8},
		{[]string{"-days", "3"}, 3},
	} {
		o, err := parseFlags(c.args)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.config().Days; got != c.days {
			t.Errorf("args %v: Days %d, want %d", c.args, got, c.days)
		}
	}
}

// TestTextMatchesServedArtifact renders every registry id through this
// command and through GET /api/experiments/{id} of a frozen server over
// the same quick scenario, and requires the command's text to equal the
// text form of the artifact decoded from the body: both surfaces render
// one artifact. E14 and E15 are stubbed on both sides with a small real
// sweep report. The body omits the series title, which only the text form
// uses, so the test takes it from the entry built in-process.
func TestTextMatchesServedArtifact(t *testing.T) {
	grid, _ := sweep.Canned("verify", 21)
	rep := sweep.Run(grid[:2], sweep.Options{Workers: 1})
	orig := experiments.Registry
	experiments.Registry = slices.Clone(orig)
	t.Cleanup(func() { experiments.Registry = orig })
	for i, e := range experiments.Registry {
		if e.Scenarios != nil {
			experiments.Registry[i].Scenarios = func(seed int64, workers int) experiments.Artifact {
				return experiments.Artifact{Sweep: rep, Table: &report.Table{Title: "stub", Columns: []string{"seed"}, Rows: [][]string{{fmt.Sprint(seed)}}}}
			}
		}
	}

	// The served run is cmd/serve -quick's scenario.
	quick := []string{"-quick", "-seed", "21", "-workers", "2"}
	res := sim.Run(sim.QuickConfig(21))
	srv := serve.NewFrozen(res, serve.Options{})
	suite := experiments.Build(res, 2)
	for _, e := range experiments.Registry {
		args := []string{"-exp", e.ID, "-seed", "21"}
		if e.Suite != nil {
			args = slices.Concat(quick, []string{"-exp", e.ID})
		}
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		want := run(o)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/experiments/"+e.ID, nil))
		var body serve.Body
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v (status %d)", e.ID, err, rec.Code)
		}
		if e.Suite != nil {
			body.SeriesTitle = e.Suite(suite).SeriesTitle
		}
		if got := body.Render(false); got != want || want == "" {
			t.Errorf("-exp %s printed\n%s\nbut its served artifact renders as\n%s", e.ID, want, got)
		}
	}
}
