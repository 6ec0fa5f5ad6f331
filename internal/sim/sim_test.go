package sim

import (
	"testing"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

func TestQuickRunProducesAllRecordStreams(t *testing.T) {
	res := Run(QuickConfig(1))
	if res.Store.JobCount() == 0 {
		t.Fatal("no job records")
	}
	if res.Store.FileCount() == 0 {
		t.Fatal("no file records")
	}
	if res.Store.TransferCount() == 0 {
		t.Fatal("no transfer events")
	}
	if res.Store.TransfersWithTaskID() == 0 {
		t.Fatal("no job-correlated transfers")
	}
	if res.Store.TransfersWithTaskID() >= res.Store.TransferCount() {
		t.Error("background traffic missing: every event carries a task id")
	}
	if res.SubmittedJobs == 0 || res.FinishedJobs+res.FailedJobs == 0 {
		t.Error("no jobs ran")
	}
	if res.MovedBytes == 0 {
		t.Error("no bytes moved")
	}
	if res.Corruption.Seen == 0 {
		t.Error("corruptor saw nothing")
	}
	if res.EmittedEvents < res.StoredEvents {
		t.Error("stored more events than emitted")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(QuickConfig(7))
	b := Run(QuickConfig(7))
	if a.Store.JobCount() != b.Store.JobCount() ||
		a.Store.TransferCount() != b.Store.TransferCount() ||
		a.MovedBytes != b.MovedBytes ||
		a.FailedJobs != b.FailedJobs {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
	// Different seeds must diverge.
	c := Run(QuickConfig(8))
	if c.MovedBytes == a.MovedBytes && c.Store.TransferCount() == a.Store.TransferCount() {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestWindowSemantics(t *testing.T) {
	res := Run(QuickConfig(2))
	if res.WindowFrom != 0 || res.WindowTo != 2*simtime.Day {
		t.Errorf("window [%d,%d), want [0, 2d)", res.WindowFrom, res.WindowTo)
	}
	// Every reported job completed inside the window.
	for _, j := range res.Store.Jobs(res.WindowFrom, res.WindowTo, "") {
		if j.EndTime < res.WindowFrom || j.EndTime >= res.WindowTo {
			t.Fatal("job outside window returned by windowed query")
		}
	}
}

func TestUserAndProductionPopulations(t *testing.T) {
	res := Run(QuickConfig(3))
	users := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	prods := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelManaged)
	if len(users) == 0 || len(prods) == 0 {
		t.Fatalf("user=%d prod=%d, want both populated", len(users), len(prods))
	}
	// Paper-shape check (Table 1 counts transfers **with** a jeditaskid):
	// production uploads dominate that population; analysis uploads with a
	// task id are rare.
	var prodUp, anaUp int
	for _, ev := range res.Store.Transfers(0, 0) {
		if !ev.HasTaskID() {
			continue
		}
		switch ev.Activity {
		case records.ProductionUp:
			prodUp++
		case records.AnalysisUpload:
			anaUp++
		}
	}
	if prodUp == 0 {
		t.Error("no production uploads")
	}
	if anaUp >= prodUp {
		t.Errorf("task-id analysis uploads (%d) should be much rarer than production uploads (%d)", anaUp, prodUp)
	}
}

func TestCorruptionVisibleInStore(t *testing.T) {
	res := Run(QuickConfig(4))
	unknown := 0
	for _, ev := range res.Store.Transfers(0, 0) {
		if ev.SourceSite == topology.UnknownSite || ev.DestinationSite == topology.UnknownSite {
			unknown++
		}
	}
	if unknown == 0 {
		t.Error("no UNKNOWN-site events in store despite default corruption")
	}
}

func TestDisableBackground(t *testing.T) {
	cfg := QuickConfig(5)
	cfg.DisableBackground = true
	res := Run(cfg)
	for _, ev := range res.Store.Transfers(0, 0) {
		switch ev.Activity {
		case records.TierExport, records.DataRebalancing, records.DataConsolidation, records.UserSubscription:
			t.Fatalf("background activity %q with background disabled", ev.Activity)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.Seed != 1 || c.Days != 8 {
		t.Errorf("defaults: %+v", c)
	}
	p := PaperConfig(3)
	if p.Days != 8 || p.Seed != 3 {
		t.Errorf("PaperConfig: %+v", p)
	}
}

func TestCPUScaleShrinksSlots(t *testing.T) {
	cfg := QuickConfig(9)
	cfg.CPUScale = 0.01
	res := Run(cfg)
	total := res.Grid.TotalCPUSlots()
	full := Run(QuickConfig(9)).Grid.TotalCPUSlots()
	if total >= full/50 {
		t.Errorf("CPUScale 0.01: %d slots vs full %d", total, full)
	}
	// Contention shows up as longer queue times.
	var scaled, normal float64
	for _, j := range res.Store.Jobs(res.WindowFrom, res.WindowTo, "") {
		scaled += j.QueueTime().Seconds()
	}
	base := Run(QuickConfig(9))
	for _, j := range base.Store.Jobs(base.WindowFrom, base.WindowTo, "") {
		normal += j.QueueTime().Seconds()
	}
	if res.Store.JobCount() > 0 && base.Store.JobCount() > 0 {
		if scaled/float64(res.Store.JobCount()) <= normal/float64(base.Store.JobCount()) {
			t.Error("CPU starvation did not lengthen queues")
		}
	}
}

func TestWarmupShiftsWindow(t *testing.T) {
	cfg := QuickConfig(10)
	cfg.WarmupDays = 1
	res := Run(cfg)
	if res.WindowFrom != simtime.Day || res.WindowTo != 3*simtime.Day {
		t.Errorf("window [%d,%d), want [1d,3d)", res.WindowFrom, res.WindowTo)
	}
	if len(res.Store.Jobs(res.WindowFrom, res.WindowTo, "")) == 0 {
		t.Error("no jobs in post-warmup window")
	}
}

func TestCorruptionDisableFlows(t *testing.T) {
	cfg := QuickConfig(11)
	cfg.Corruption.Disable = true
	res := Run(cfg)
	if res.Corruption.Dropped != 0 || res.Corruption.SiteUnknowns != 0 || res.Corruption.JoinBroken != 0 {
		t.Errorf("corruption acted despite Disable: %+v", res.Corruption)
	}
	for _, ev := range res.Store.Transfers(0, 0) {
		if ev.SourceSite == topology.UnknownSite || ev.DestinationSite == topology.UnknownSite {
			t.Fatal("UNKNOWN site with corruption disabled")
		}
	}
}

// TestRunReusingShardedStore is TestRunReusingMatchesRun on a non-default
// shard count: a reused sharded store (with its intern table and arena
// high-water marks reset between scenarios) must reproduce a fresh run.
func TestRunReusingShardedStore(t *testing.T) {
	fresh := Run(QuickConfig(3))

	store := metastore.NewShardedSegmented(4, 0)
	RunReusing(QuickConfig(7), store) // dirty the store with another scenario
	interned := store.InternedStrings()
	reused := RunReusing(QuickConfig(3), store)

	if fresh.Store.TransferCount() != reused.Store.TransferCount() ||
		fresh.Store.JobCount() != reused.Store.JobCount() ||
		fresh.MovedBytes != reused.MovedBytes {
		t.Fatal("sharded reused store diverged from fresh run")
	}
	if interned > 0 && reused.Store.InternedStrings() == 0 {
		t.Fatal("reused store interned nothing")
	}
	fe := fresh.Store.Transfers(0, 0)
	re := reused.Store.Transfers(0, 0)
	for i := range fe {
		if *fe[i] != *re[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, *fe[i], *re[i])
		}
	}
}

// TestScaleGrowsVolume pins the -scale contract: Scale > 1 multiplies the
// event volume, Scale 1 (and 0) are exact no-ops on the output.
func TestScaleGrowsVolume(t *testing.T) {
	base := Run(QuickConfig(6))

	unit := QuickConfig(6)
	unit.Scale = 1
	if got := Run(unit); got.StoredEvents != base.StoredEvents || got.MovedBytes != base.MovedBytes {
		t.Fatal("Scale=1 changed the run")
	}

	scaled := QuickConfig(6)
	scaled.Scale = 3
	got := Run(scaled)
	// Arrival rates tripled; allow slack for slot contention and dedupe.
	if got.StoredEvents < base.StoredEvents*2 {
		t.Fatalf("Scale=3 stored %d events vs base %d, want ≥2x", got.StoredEvents, base.StoredEvents)
	}
	if got.SubmittedTasks < base.SubmittedTasks*2 {
		t.Fatalf("Scale=3 submitted %d tasks vs base %d, want ≥2x", got.SubmittedTasks, base.SubmittedTasks)
	}
}

func TestRunReusingMatchesRun(t *testing.T) {
	fresh := Run(QuickConfig(3))

	store := metastore.New()
	RunReusing(QuickConfig(7), store) // dirty the store with another scenario
	reused := RunReusing(QuickConfig(3), store)

	if fresh.Store.TransferCount() != reused.Store.TransferCount() ||
		fresh.Store.JobCount() != reused.Store.JobCount() ||
		fresh.Store.TransfersWithTaskID() != reused.Store.TransfersWithTaskID() {
		t.Fatalf("reused store diverged: %d/%d/%d vs %d/%d/%d",
			fresh.Store.TransferCount(), fresh.Store.JobCount(), fresh.Store.TransfersWithTaskID(),
			reused.Store.TransferCount(), reused.Store.JobCount(), reused.Store.TransfersWithTaskID())
	}
	if fresh.SubmittedJobs != reused.SubmittedJobs || fresh.MovedBytes != reused.MovedBytes ||
		fresh.Corruption != reused.Corruption {
		t.Fatalf("run statistics diverged: %+v vs %+v", fresh, reused)
	}
	fj := fresh.Store.Jobs(fresh.WindowFrom, fresh.WindowTo, records.LabelUser)
	rj := reused.Store.Jobs(reused.WindowFrom, reused.WindowTo, records.LabelUser)
	if len(fj) != len(rj) {
		t.Fatalf("windowed job sets diverged: %d vs %d", len(fj), len(rj))
	}
	for i := range fj {
		if fj[i].PandaID != rj[i].PandaID || fj[i].EndTime != rj[i].EndTime {
			t.Fatalf("job %d diverged: %+v vs %+v", i, fj[i], rj[i])
		}
	}
}
