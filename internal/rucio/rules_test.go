package rucio

import (
	"testing"

	"panrucio/internal/netsim"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

func TestAddRuleTriggersTransfersAndProtects(t *testing.T) {
	f := newFixture(20)
	cern, _ := f.grid.PrimaryRSE("CERN-PROD")
	bnl, _ := f.grid.PrimaryRSE("BNL-ATLAS")
	f.addDataset("data25.rule1", []int64{1e9, 2e9}, cern.Name)

	e := NewRuleEngine(f.r)
	done := false
	rule, err := e.AddRule("data25.rule1", bnl.Name, 2*simtime.Hour, records.DataRebalancing, func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	if rule.ExpiresAt != 2*simtime.Hour {
		t.Errorf("ExpiresAt = %d", rule.ExpiresAt)
	}
	f.eng.Run()
	if !done {
		t.Fatal("rule never satisfied")
	}
	if len(f.events) != 2 {
		t.Fatalf("events = %d, want 2 transfers", len(f.events))
	}
	ds, _ := f.r.Catalog().Dataset("data25.rule1")
	if !f.r.Catalog().DatasetCompleteAt(ds, bnl.Name) {
		t.Fatal("dataset not replicated by rule")
	}
	for _, file := range ds.Files {
		if !e.Protected(file.LFN, bnl.Name, f.eng.Now()) {
			t.Errorf("file %s unprotected under a live rule", file.LFN)
		}
	}
	if _, err := e.AddRule("nope", bnl.Name, 0, records.DataRebalancing, nil); err == nil {
		t.Error("rule on unknown dataset accepted")
	}
}

func TestRuleExpiryAndReaping(t *testing.T) {
	f := newFixture(21)
	cern, _ := f.grid.PrimaryRSE("CERN-PROD")
	bnl, _ := f.grid.PrimaryRSE("BNL-ATLAS")
	f.addDataset("data25.rule2", []int64{1e9}, cern.Name)
	ds, _ := f.r.Catalog().Dataset("data25.rule2")
	file := ds.Files[0]
	lfn := file.LFN

	e := NewRuleEngine(f.r)
	e.AddRule("data25.rule2", bnl.Name, simtime.Hour, records.DataRebalancing, nil)
	f.eng.RunUntil(30 * simtime.Minute)
	if got := e.Sweep(); got != 0 {
		t.Fatalf("reaper reclaimed %d replicas before expiry", got)
	}
	if !f.r.Catalog().HasReplica(file, bnl.Name) {
		t.Fatal("replica missing before expiry")
	}
	f.eng.RunUntil(2 * simtime.Hour)
	if !e.rules[1].Expired(f.eng.Now()) {
		t.Fatal("rule should be expired")
	}
	if e.Protected(lfn, bnl.Name, f.eng.Now()) {
		t.Error("expired rule still protects")
	}
	if got := e.Sweep(); got != 1 {
		t.Fatalf("reaper reclaimed %d, want 1", got)
	}
	if f.r.Catalog().HasReplica(file, bnl.Name) {
		t.Fatal("replica survived reaping")
	}
	// Source replica is untouched (no rule ever covered it... and no rule
	// expired there).
	if !f.r.Catalog().HasReplica(file, cern.Name) {
		t.Fatal("reaper deleted the source replica")
	}
	if e.RulesExpired != 1 || e.ReplicasReaped != 1 {
		t.Errorf("counters: expired=%d reaped=%d", e.RulesExpired, e.ReplicasReaped)
	}
}

func TestOverlappingRulesKeepProtection(t *testing.T) {
	f := newFixture(22)
	cern, _ := f.grid.PrimaryRSE("CERN-PROD")
	bnl, _ := f.grid.PrimaryRSE("BNL-ATLAS")
	f.addDataset("data25.rule3", []int64{1e9}, cern.Name)
	ds, _ := f.r.Catalog().Dataset("data25.rule3")
	file := ds.Files[0]
	lfn := file.LFN

	e := NewRuleEngine(f.r)
	e.AddRule("data25.rule3", bnl.Name, simtime.Hour, records.DataRebalancing, nil)
	e.AddRule("data25.rule3", bnl.Name, 10*simtime.Hour, records.DataRebalancing, nil)
	f.eng.RunUntil(2 * simtime.Hour) // first rule expired, second live
	if got := e.Sweep(); got != 0 {
		t.Fatalf("reaper reclaimed %d despite a live overlapping rule", got)
	}
	if !f.r.Catalog().HasReplica(file, bnl.Name) {
		t.Fatal("protected replica deleted")
	}
	if !e.Protected(lfn, bnl.Name, f.eng.Now()) {
		t.Error("live rule not protecting")
	}
	if len(e.LiveRules(f.eng.Now())) != 1 {
		t.Error("LiveRules wrong after partial expiry")
	}
}

func TestPermanentRuleNeverExpires(t *testing.T) {
	f := newFixture(23)
	cern, _ := f.grid.PrimaryRSE("CERN-PROD")
	f.addDataset("data25.rule4", []int64{1e9}, cern.Name)
	e := NewRuleEngine(f.r)
	rule, _ := e.AddRule("data25.rule4", cern.Name, 0, records.DataRebalancing, nil)
	if rule.Expired(1 << 60) {
		t.Error("zero-lifetime rule must never expire")
	}
}

func TestReaperDaemonSweepsPeriodically(t *testing.T) {
	f := newFixture(24)
	f.eng = simtime.NewEngine(0, 6*simtime.Hour)
	root := simtime.NewRNG(24)
	f.net = netsim.New(f.eng, f.grid, root.Split("net"), netsim.Options{})
	f.r = New(f.eng, f.grid, f.net, root.Split("rucio"), Options{}, nil)
	cern, _ := f.grid.PrimaryRSE("CERN-PROD")
	bnl, _ := f.grid.PrimaryRSE("BNL-ATLAS")
	f.addDataset("data25.rule5", []int64{1e9}, cern.Name)
	ds, _ := f.r.Catalog().Dataset("data25.rule5")

	e := NewRuleEngine(f.r)
	e.AddRule("data25.rule5", bnl.Name, simtime.Hour, records.DataRebalancing, nil)
	e.StartReaper(30 * simtime.Minute)
	f.eng.Run()
	if f.r.Catalog().HasReplica(ds.Files[0], bnl.Name) {
		t.Fatal("reaper daemon never reclaimed the expired replica")
	}
	if e.ReplicasReaped != 1 {
		t.Errorf("reaped = %d", e.ReplicasReaped)
	}
}
