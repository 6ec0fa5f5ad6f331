package sweep

import (
	"strings"
	"testing"

	"panrucio/internal/sim"
)

// rampConfig is a reduced base scenario so sweep tests stay fast.
func rampConfig(seed int64) sim.Config {
	cfg := sim.QuickConfig(seed)
	cfg.Days = 1
	return cfg
}

func TestExpandCrossProduct(t *testing.T) {
	scenarios := Expand(rampConfig(1), WorkloadMixAxis(), BackgroundAxis(0, 1))
	if len(scenarios) != 6 {
		t.Fatalf("expanded %d scenarios, want 6", len(scenarios))
	}
	seen := map[string]bool{}
	for i, sc := range scenarios {
		if sc.ID == "" || seen[sc.ID] {
			t.Fatalf("scenario %d has empty or duplicate id %q", i, sc.ID)
		}
		seen[sc.ID] = true
		if sc.X != float64(i) {
			t.Errorf("multi-axis X should be the index: scenario %d has X=%v", i, sc.X)
		}
	}
	if scenarios[0].ID != "mix=user-heavy/bg=off" {
		t.Errorf("last axis should vary fastest, got first id %q", scenarios[0].ID)
	}
	if !scenarios[0].Config.DisableBackground || scenarios[1].Config.DisableBackground {
		t.Error("bg=off variation must disable background on its scenarios only")
	}
}

func TestCorruptionRampZeroMeansOff(t *testing.T) {
	scenarios := CorruptionRamp(rampConfig(1), []float64{0, 0.25})
	if len(scenarios) != 2 {
		t.Fatalf("ramp built %d scenarios", len(scenarios))
	}
	if got := scenarios[0].Config.Corruption.UnknownSiteProbTaskID; got >= 0 {
		t.Errorf("rate 0 must map to the negative force-zero sentinel, got %v", got)
	}
	if got := scenarios[1].Config.Corruption.UnknownSiteProbTaskID; got != 0.25 {
		t.Errorf("rate 0.25 mangled to %v", got)
	}
	if scenarios[0].X != 0 || scenarios[1].X != 0.25 {
		t.Errorf("single-axis X should be the rate, got %v/%v", scenarios[0].X, scenarios[1].X)
	}
}

func TestSweepByteIdenticalAcrossWorkers(t *testing.T) {
	scenarios := CorruptionRamp(rampConfig(1), []float64{0, 0.5})
	serial := Run(scenarios, Options{Workers: 1})
	parallel := Run(scenarios, Options{Workers: 8, MatchWorkers: 4})

	if a, b := serial.Markdown(), parallel.Markdown(); a != b {
		t.Errorf("markdown diverged across worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", a, b)
	}
	if a, b := serial.JSON(), parallel.JSON(); a != b {
		t.Error("JSON diverged across worker counts")
	}
}

func TestRampOutcomesCarryTheRobustnessSignal(t *testing.T) {
	rep := Run(CorruptionRamp(rampConfig(1), []float64{0, 0.5}), Options{Workers: 2})
	if len(rep.Outcomes) != 2 {
		t.Fatalf("%d outcomes", len(rep.Outcomes))
	}
	clean, worst := rep.Outcomes[0], rep.Outcomes[1]
	for _, o := range rep.Outcomes {
		if o.UserJobs == 0 || o.StoredEvents == 0 {
			t.Fatalf("scenario %s ran empty: %+v", o.ID, o)
		}
		if o.RM2.MatchedTransfers < o.Exact.MatchedTransfers {
			t.Errorf("scenario %s violates exact <= rm2", o.ID)
		}
		if len(o.Checks) == 0 || len(o.Activity) == 0 {
			t.Errorf("scenario %s missing checks or activity rows", o.ID)
		}
	}
	// Site-label loss at 50% must cost exact matches; RM2 ignores the site
	// condition, so its matched set must hold up better than exact's.
	if worst.Exact.MatchedJobs >= clean.Exact.MatchedJobs {
		t.Errorf("corruption ramp did not degrade exact matching: %d -> %d",
			clean.Exact.MatchedJobs, worst.Exact.MatchedJobs)
	}
	if worst.RM2.MatchedJobs <= worst.Exact.MatchedJobs {
		t.Errorf("RM2 should out-match exact under heavy corruption: rm2 %d vs exact %d",
			worst.RM2.MatchedJobs, worst.Exact.MatchedJobs)
	}
	md := rep.Markdown()
	if !strings.Contains(md, "corr=0%") || !strings.Contains(md, "corr=50%") {
		t.Error("markdown lost the scenario ids")
	}
}
