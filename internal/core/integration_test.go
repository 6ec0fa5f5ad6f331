package core

import (
	"testing"

	"panrucio/internal/records"
	"panrucio/internal/sim"
)

// TestMonotonicityOnSimulatedData is the central invariant of Section 4:
// every job matched by Exact is matched by RM1, and every RM1 match is an
// RM2 match; matched counts are monotone Exact <= RM1 <= RM2 (Table 2).
func TestMonotonicityOnSimulatedData(t *testing.T) {
	res := sim.Run(sim.QuickConfig(11))
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	if len(jobs) == 0 {
		t.Fatal("no user jobs")
	}
	m := NewMatcher(res.Store)

	exact := m.RunParallel(jobs, Exact, 1)
	rm1 := m.RunParallel(jobs, RM1, 1)
	rm2 := m.RunParallel(jobs, RM2, 1)

	if !(exact.MatchedJobs <= rm1.MatchedJobs && rm1.MatchedJobs <= rm2.MatchedJobs) {
		t.Errorf("job monotonicity violated: %d / %d / %d",
			exact.MatchedJobs, rm1.MatchedJobs, rm2.MatchedJobs)
	}
	if !(exact.MatchedTransfers <= rm1.MatchedTransfers && rm1.MatchedTransfers <= rm2.MatchedTransfers) {
		t.Errorf("transfer monotonicity violated: %d / %d / %d",
			exact.MatchedTransfers, rm1.MatchedTransfers, rm2.MatchedTransfers)
	}
	if exact.MatchedJobs == 0 {
		t.Error("exact matched nothing — corruption too aggressive for the scenario")
	}

	// Per-job set inclusion: exact set ⊆ RM1 set ⊆ RM2 set.
	rm1Jobs := make(map[int64]bool, rm1.MatchedJobs)
	for _, match := range rm1.Matches {
		rm1Jobs[match.Job.PandaID] = true
	}
	rm2Jobs := make(map[int64]bool, rm2.MatchedJobs)
	for _, match := range rm2.Matches {
		rm2Jobs[match.Job.PandaID] = true
	}
	for _, match := range exact.Matches {
		if !rm1Jobs[match.Job.PandaID] {
			t.Fatalf("job %d exact-matched but not RM1-matched", match.Job.PandaID)
		}
	}
	for id := range rm1Jobs {
		if !rm2Jobs[id] {
			t.Fatalf("job %d RM1-matched but not RM2-matched", id)
		}
	}
}

// TestPaperShapeOnSimulatedData checks the qualitative Table 2 shape:
// exact matches are dominated by local transfers, and RM2 unlocks a
// substantial remote population.
func TestPaperShapeOnSimulatedData(t *testing.T) {
	res := sim.Run(sim.QuickConfig(12))
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	m := NewMatcher(res.Store)

	exact := m.RunParallel(jobs, Exact, 1)
	rm2 := m.RunParallel(jobs, RM2, 1)

	if exact.MatchedTransfers == 0 {
		t.Skip("no exact matches in quick scenario for this seed")
	}
	localFrac := float64(exact.LocalTransfers) / float64(exact.MatchedTransfers)
	if localFrac < 0.60 {
		t.Errorf("exact local fraction %.2f, want >= 0.60 (paper: 0.94)", localFrac)
	}
	if rm2.RemoteTransfers <= exact.RemoteTransfers {
		t.Errorf("RM2 remote (%d) should exceed exact remote (%d)",
			rm2.RemoteTransfers, exact.RemoteTransfers)
	}
	// RM2 introduces the mixed class that exact cannot have under the
	// strict site condition when all matched transfers share the job site.
	if rm2.JobsAllRemote+rm2.JobsMixed == 0 {
		t.Error("RM2 found no remote or mixed jobs")
	}
}

// TestProductionJobsExcludedFromUserQuery reproduces Table 1's zero rows:
// production transfers carry jeditaskids, but the user-job query set cannot
// match them.
func TestProductionJobsExcludedFromUserQuery(t *testing.T) {
	res := sim.Run(sim.QuickConfig(13))
	userJobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	m := NewMatcher(res.Store)
	rm2 := m.RunParallel(userJobs, RM2, 1)
	for _, match := range rm2.Matches {
		for _, ev := range match.Transfers {
			if ev.Activity == records.ProductionUp || ev.Activity == records.ProductionDown {
				t.Fatalf("user-job query matched production transfer %d", ev.EventID)
			}
		}
	}
}
