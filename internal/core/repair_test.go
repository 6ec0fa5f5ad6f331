package core

import (
	"testing"

	"panrucio/internal/corruption"
	"panrucio/internal/records"
	"panrucio/internal/sim"
	"panrucio/internal/topology"
)

func TestRepairStoreFixesKnownCase(t *testing.T) {
	grid := topology.Default(topology.DefaultSpec{})
	s := newScenario()
	// Both downloads lose their destination (the Fig. 12/Table 3 pattern).
	ev0 := s.download(0, 3e9, 1100, 1200)
	ev0.DestinationSite = topology.UnknownSite
	ev1 := s.download(1, 4e9, 1200, 1400)
	ev1.DestinationSite = topology.UnknownSite
	s.store.PutTransfer(ev0)
	s.store.PutTransfer(ev1)

	jobs := s.store.Jobs(0, 1<<62, records.LabelUser)
	m := NewMatcher(s.store)
	if got := m.RunParallel(jobs, Exact, 1); got.MatchedJobs != 0 {
		t.Fatal("scenario should not exact-match before repair")
	}
	rm2 := m.RunParallel(jobs, RM2, 1)
	repaired, st := RepairStore(s.store, grid, rm2)
	if st.LabelsRepaired != 2 || st.BySiteCondition != 2 {
		t.Fatalf("repair stats = %+v", st)
	}
	// The original store is untouched.
	if ev0.DestinationSite != topology.UnknownSite {
		t.Fatal("RepairStore mutated the original event")
	}
	// After repair the job exact-matches.
	after := NewMatcher(repaired).RunParallel(jobs, Exact, 1)
	if after.MatchedJobs != 1 || after.MatchedTransfers != 2 {
		t.Fatalf("post-repair exact: jobs=%d transfers=%d", after.MatchedJobs, after.MatchedTransfers)
	}
	for _, ev := range repaired.Transfers(0, 0) {
		if ev.DestinationSite != sSite {
			t.Errorf("repaired label = %q", ev.DestinationSite)
		}
	}
}

// TestRepairStoreNoOpFastPath pins the clean-result regression: when the
// RM2 pass yields no label fixes, RepairStore must hand back the caller's
// store untouched instead of burning time and memory on a full semantic
// clone. Pointer identity plus commitment identity (the seal-time hash of
// every stored row) prove both "same store" and "same bytes".
func TestRepairStoreNoOpFastPath(t *testing.T) {
	cfg := sim.QuickConfig(5)
	cfg.Corruption = corruption.Config{Disable: true}
	res := sim.Run(cfg)
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	rm2 := NewMatcher(res.Store).RunParallel(jobs, RM2, 1)

	before := res.Store.StoreCommitment()
	repaired, st := RepairStore(res.Store, res.Grid, rm2)
	if st.LabelsRepaired != 0 {
		t.Fatalf("clean run repaired %d labels — scenario not actually clean", st.LabelsRepaired)
	}
	if st.EventsExamined == 0 {
		t.Fatal("repair examined nothing — the RM2 pass matched no transfers")
	}
	if repaired != res.Store {
		t.Fatal("no-op repair returned a new store instead of the original")
	}
	if repaired.StoreCommitment() != before {
		t.Fatal("no-op repair changed the store commitment")
	}
}

func TestMeasureUpliftOnSimulatedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	res := sim.Run(sim.PaperConfig(1))
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	up, st := MeasureUplift(res.Store, res.Grid, jobs, Exact)
	if st.LabelsRepaired == 0 {
		t.Fatal("no labels repaired on the default run")
	}
	if up.JobGain <= 0 {
		t.Errorf("repair produced no exact-match job gain: %+v", up)
	}
	if up.TransferGain <= 0 {
		t.Errorf("repair produced no exact-match transfer gain: %+v", up)
	}
	if up.After.MatchedJobs != up.Before.MatchedJobs+up.JobGain {
		t.Error("gain accounting inconsistent")
	}
	t.Logf("repair uplift: +%d jobs, +%d transfers from %d repaired labels (%d duplicate-evidence)",
		up.JobGain, up.TransferGain, st.LabelsRepaired, st.ByDuplicate)
}

func TestRunParallelMatchesSerial(t *testing.T) {
	res := sim.Run(sim.QuickConfig(31))
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	m := NewMatcher(res.Store)
	for _, method := range []Method{Exact, RM1, RM2} {
		serial := m.RunParallel(jobs, method, 1)
		for _, workers := range []int{0, 1, 2, 7} {
			par := m.RunParallel(jobs, method, workers)
			if par.MatchedJobs != serial.MatchedJobs ||
				par.MatchedTransfers != serial.MatchedTransfers ||
				par.LocalTransfers != serial.LocalTransfers ||
				par.RemoteTransfers != serial.RemoteTransfers ||
				par.JobsAllLocal != serial.JobsAllLocal ||
				par.JobsAllRemote != serial.JobsAllRemote ||
				par.JobsMixed != serial.JobsMixed {
				t.Fatalf("%v workers=%d diverged from serial: %+v vs %+v",
					method, workers, par, serial)
			}
			// Deterministic match ordering by pandaid.
			for i := 1; i < len(par.Matches); i++ {
				if par.Matches[i-1].Job.PandaID >= par.Matches[i].Job.PandaID {
					t.Fatal("parallel matches not sorted by pandaid")
				}
			}
		}
	}
}

func TestRunParallelEmptyJobs(t *testing.T) {
	res := sim.Run(sim.QuickConfig(32))
	m := NewMatcher(res.Store)
	got := m.RunParallel(nil, Exact, 4)
	if got.MatchedJobs != 0 || got.TotalJobs != 0 {
		t.Errorf("empty job set: %+v", got)
	}
}
