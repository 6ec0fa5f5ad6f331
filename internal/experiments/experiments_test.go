package experiments

import (
	"strings"
	"testing"

	"panrucio/internal/sim"
)

// The quick scenario exercises the full suite end to end.
func TestSuiteOnQuickConfig(t *testing.T) {
	s := Run(sim.QuickConfig(21))
	if len(s.Jobs) == 0 {
		t.Fatal("no jobs")
	}
	if s.Cmp.Exact == nil || s.Cmp.RM1 == nil || s.Cmp.RM2 == nil {
		t.Fatal("comparison incomplete")
	}
	if pts := s.Fig2(); len(pts) == 0 {
		t.Error("Fig2 empty")
	}
	if h := s.Fig3(); h.TotalBytes == 0 {
		t.Error("Fig3 empty")
	}
	if rows := s.Table1(); len(rows) != 5 {
		t.Errorf("Table1 rows = %d", len(rows))
	}
	// Figures 5-9 may legitimately be small on a quick run, but must not
	// panic and must respect their invariants.
	for _, j := range s.Fig5() {
		if j.TransferPct < 10 {
			t.Error("Fig5 admitted a job below the 10% threshold")
		}
	}
	for _, j := range s.Fig6() {
		if j.TransferPct < 10 {
			t.Error("Fig6 admitted a job below the 10% threshold")
		}
	}
	if got := s.Fig7(); len(got) > 6 {
		t.Error("Fig7 more than 6 panels")
	}
	if got := s.Fig8(); len(got) > 6 {
		t.Error("Fig8 more than 6 panels")
	}
	tc := s.Fig9()
	if tc == nil || len(tc.Thresholds) == 0 {
		t.Fatal("Fig9 missing")
	}
	out := s.RenderAll()
	for _, needle := range []string{"Table 1", "Table 2a", "Table 2b", "Fig. 2", "Fig. 3", "Fig. 9"} {
		if !strings.Contains(out, needle) {
			t.Errorf("RenderAll missing %q", needle)
		}
	}
}

// The paper-scale scenario must pass every qualitative shape check.
func TestShapeChecksPaperConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	s := Run(sim.PaperConfig(1))
	for _, line := range s.ShapeChecks() {
		if strings.HasPrefix(line, "[FAIL]") {
			t.Error(line)
		} else {
			t.Log(line)
		}
	}
}

func TestSuiteDeterministicRendering(t *testing.T) {
	a := Run(sim.QuickConfig(23)).RenderAll()
	b := Run(sim.QuickConfig(23)).RenderAll()
	if a != b {
		t.Fatal("RenderAll not deterministic for identical configs")
	}
	if !strings.Contains(a, "Automated anomaly scan") {
		t.Error("anomaly scan missing from the full report")
	}
}

func TestAnomaliesOnQuickRun(t *testing.T) {
	s := Run(sim.QuickConfig(24))
	rep := s.Anomalies()
	if rep.JobsScanned != s.Cmp.RM2.MatchedJobs {
		t.Errorf("scanned %d, want RM2 matched %d", rep.JobsScanned, s.Cmp.RM2.MatchedJobs)
	}
}

// E14: the robustness sweep must be deterministic across worker counts and
// must show exact matching degrading under the corruption ramp while RM2
// holds up better.
func TestRobustnessSweepE14(t *testing.T) {
	serial := RobustnessSweep(5, 1)
	parallel := RobustnessSweep(5, 4)
	if serial.Markdown() != parallel.Markdown() || serial.JSON() != parallel.JSON() {
		t.Fatal("E14 report diverged across worker counts")
	}
	out := serial.Outcomes
	if len(out) != 6 {
		t.Fatalf("E14 ran %d scenarios, want 6", len(out))
	}
	clean, worst := out[0], out[len(out)-1]
	if worst.Exact.MatchedJobs >= clean.Exact.MatchedJobs {
		t.Errorf("exact matching did not degrade along the ramp: %d -> %d",
			clean.Exact.MatchedJobs, worst.Exact.MatchedJobs)
	}
	if worst.RM2.MatchedJobs <= worst.Exact.MatchedJobs {
		t.Errorf("RM2 should out-match exact at 50%% corruption: %d vs %d",
			worst.RM2.MatchedJobs, worst.Exact.MatchedJobs)
	}
	if !strings.Contains(serial.Markdown(), "corr=50%") {
		t.Error("E14 markdown lost the ramp labels")
	}
}

// TestRegistryReportEntries pins what RenderAll concatenates: exactly the
// suite entries whose artifact has a table, series or note form, never
// the data-only rates and checks, and never an entry without a suite.
func TestRegistryReportEntries(t *testing.T) {
	s := Run(sim.QuickConfig(21))
	for _, e := range Registry {
		if (e.Suite == nil) == (e.Scenarios == nil) {
			t.Errorf("%s: want exactly one of Suite and Scenarios", e.ID)
		}
		if e.Suite == nil {
			if e.Report {
				t.Errorf("%s: marked Report but takes no suite", e.ID)
			}
			continue
		}
		a := e.Suite(s)
		if text := a.Table != nil || a.SeriesTitle != "" || a.Note != ""; e.Report != text {
			t.Errorf("%s: Report = %v, but has a table, series or note form: %v", e.ID, e.Report, text)
		}
	}
}
