package rucio

import (
	"fmt"
	"testing"

	"panrucio/internal/netsim"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

type fixture struct {
	eng    *simtime.Engine
	grid   *topology.Grid
	net    *netsim.Network
	r      *Rucio
	events []*records.TransferEvent
}

func newFixture(seed int64) *fixture {
	f := &fixture{}
	f.eng = simtime.NewEngine(0, 0)
	f.grid = topology.Default(topology.DefaultSpec{})
	root := simtime.NewRNG(seed)
	f.net = netsim.New(f.eng, f.grid, root.Split("net"), netsim.Options{})
	f.r = New(f.eng, f.grid, f.net, root.Split("rucio"), Options{}, func(ev *records.TransferEvent) {
		f.events = append(f.events, ev)
	})
	return f
}

func (f *fixture) addDataset(name string, sizes []int64, rse string) []*FileInfo {
	f.r.Catalog().CreateDataset("user", name)
	for i, s := range sizes {
		file := &FileInfo{
			LFN: fmt.Sprintf("%s.f%d", name, i), Scope: "user",
			Dataset: name, ProdDBlock: name, Size: s,
		}
		if err := f.r.Catalog().AddFile(file); err != nil {
			panic(err)
		}
		if rse != "" {
			f.r.Catalog().SetReplica(file, rse, ReplicaAvailable)
		}
	}
	ds, _ := f.r.Catalog().Dataset(name)
	return ds.Files
}

func TestEnsureReplicasCopiesMissing(t *testing.T) {
	f := newFixture(1)
	cern, _ := f.grid.PrimaryRSE("CERN-PROD")
	bnl, _ := f.grid.PrimaryRSE("BNL-ATLAS")
	files := f.addDataset("user.ds1", []int64{2e9, 3e9}, cern.Name)
	// Pre-place one file at the destination: only the other should move.
	f.r.Catalog().SetReplica(files[0], bnl.Name, ReplicaAvailable)
	done := false
	missing := f.r.EnsureReplicas(files, bnl.Name, records.DataRebalancing, 0, func() { done = true })
	if missing != 0 {
		t.Fatalf("missing=%d", missing)
	}
	f.eng.Run()
	if !done {
		t.Fatal("completion callback never fired")
	}
	if len(f.events) != 1 {
		t.Fatalf("%d events, want 1 (only the missing file moves)", len(f.events))
	}
	ev := f.events[0]
	if ev.SourceSite != "CERN-PROD" || ev.DestinationSite != "BNL-ATLAS" {
		t.Errorf("route %s->%s", ev.SourceSite, ev.DestinationSite)
	}
	if ev.Activity != records.DataRebalancing || !ev.IsDownload {
		t.Errorf("activity/%v download/%v", ev.Activity, ev.IsDownload)
	}
	if !f.r.Catalog().HasReplica(files[1], bnl.Name) {
		t.Error("replica not registered after transfer")
	}
	if ev.JediTaskID != 0 {
		t.Error("background transfer must not carry jeditaskid")
	}
}

func TestEnsureReplicasAllPresentCompletesSynchronously(t *testing.T) {
	f := newFixture(2)
	bnl, _ := f.grid.PrimaryRSE("BNL-ATLAS")
	files := f.addDataset("user.ds2", []int64{1e9}, bnl.Name)
	done := false
	f.r.EnsureReplicas(files, bnl.Name, records.DataRebalancing, 0, func() { done = true })
	if !done {
		t.Fatal("all-present rule should complete immediately")
	}
	if len(f.events) != 0 {
		t.Error("no transfers expected")
	}
}

func TestEnsureReplicasMissingSource(t *testing.T) {
	f := newFixture(3)
	bnl, _ := f.grid.PrimaryRSE("BNL-ATLAS")
	files := f.addDataset("user.ds3", []int64{1e9}, "") // no replica anywhere
	done := false
	missing := f.r.EnsureReplicas(files, bnl.Name, records.DataRebalancing, 7, func() { done = true })
	if missing != 1 || !done {
		t.Fatalf("missing=%d done=%v, want 1/true", missing, done)
	}
}

func TestPilotFetchEmitsLocalDownloads(t *testing.T) {
	f := newFixture(4)
	cern, _ := f.grid.PrimaryRSE("CERN-PROD")
	files := f.addDataset("user.ds4", []int64{2e9, 2e9, 2e9}, cern.Name)
	done := false
	f.r.PilotFetch(files, "CERN-PROD", records.AnalysisDownload, 42, func() { done = true })
	f.eng.Run()
	if !done || len(f.events) != 3 {
		t.Fatalf("done=%v events=%d", done, len(f.events))
	}
	for _, ev := range f.events {
		if !ev.IsLocal() {
			t.Errorf("local fetch produced remote event %s->%s", ev.SourceSite, ev.DestinationSite)
		}
		if ev.JediTaskID != 42 {
			t.Error("jeditaskid not propagated")
		}
		if ev.DestinationRSE != "" {
			t.Error("scratch download must not name a destination RSE")
		}
		if ev.ThroughputBps <= 0 {
			t.Error("throughput missing")
		}
	}
}

func TestPilotFetchRemoteSource(t *testing.T) {
	f := newFixture(5)
	cern, _ := f.grid.PrimaryRSE("CERN-PROD")
	files := f.addDataset("user.ds5", []int64{2e9}, cern.Name)
	f.r.PilotFetch(files, "BNL-ATLAS", records.AnalysisDownload, 9, nil)
	f.eng.Run()
	if len(f.events) != 1 || f.events[0].IsLocal() {
		t.Fatalf("expected one remote event, got %+v", f.events)
	}
	if f.events[0].SourceSite != "CERN-PROD" || f.events[0].DestinationSite != "BNL-ATLAS" {
		t.Errorf("route %s->%s", f.events[0].SourceSite, f.events[0].DestinationSite)
	}
}

func TestPilotFetchSequentialSiteSerializes(t *testing.T) {
	f := newFixture(6)
	// Force the discipline decision for a site, then verify ordering.
	f.r.sequentialSite["CERN-PROD"] = true
	cern, _ := f.grid.PrimaryRSE("CERN-PROD")
	files := f.addDataset("user.ds6", []int64{4e9, 4e9, 4e9}, cern.Name)
	f.r.PilotFetch(files, "CERN-PROD", records.AnalysisDownload, 1, nil)
	f.eng.Run()
	if len(f.events) != 3 {
		t.Fatalf("events=%d", len(f.events))
	}
	for i := 1; i < len(f.events); i++ {
		if f.events[i].StartedAt < f.events[i-1].EndedAt {
			t.Errorf("sequential site overlapped transfers: %d starts %d, prev ends %d",
				i, f.events[i].StartedAt, f.events[i-1].EndedAt)
		}
	}
}

func TestPilotFetchParallelSiteOverlaps(t *testing.T) {
	f := newFixture(7)
	f.r.sequentialSite["CERN-PROD"] = false
	cern, _ := f.grid.PrimaryRSE("CERN-PROD")
	files := f.addDataset("user.ds7", []int64{40e9, 40e9, 40e9}, cern.Name)
	f.r.PilotFetch(files, "CERN-PROD", records.AnalysisDownload, 1, nil)
	f.eng.Run()
	overlap := false
	for i := 1; i < len(f.events); i++ {
		if f.events[i].StartedAt < f.events[0].EndedAt {
			overlap = true
		}
	}
	if !overlap {
		t.Error("parallel site never overlapped transfers")
	}
}

func TestChooseSourcePrefersLocalDisk(t *testing.T) {
	f := newFixture(8)
	cernDisk, _ := f.grid.PrimaryRSE("CERN-PROD")
	files := f.addDataset("user.ds8", []int64{1e9, 1e9}, "")
	// Place at local disk, remote and local tape; local disk must win.
	f.r.Catalog().SetReplica(files[0], cernDisk.Name, ReplicaAvailable)
	f.r.Catalog().SetReplica(files[0], "BNL-ATLAS_DATADISK", ReplicaAvailable)
	f.r.Catalog().SetReplica(files[0], "CERN-PROD_MCTAPE", ReplicaAvailable)
	src, ok := f.r.ChooseSource(files[0], "CERN-PROD")
	if !ok || src != cernDisk.Name {
		t.Errorf("chooseSource = %q, want local disk", src)
	}
	// Without a local replica, the best-connected remote wins over a weak one.
	f.r.Catalog().SetReplica(files[1], "BNL-ATLAS_DATADISK", ReplicaAvailable)
	f.r.Catalog().SetReplica(files[1], "WEIZMANN-T3_DATADISK", ReplicaAvailable)
	src, _ = f.r.ChooseSource(files[1], "CERN-PROD")
	if src != "BNL-ATLAS_DATADISK" {
		t.Errorf("chooseSource = %q, want best-connected remote", src)
	}
}

func TestUploadRegistersAndEmits(t *testing.T) {
	f := newFixture(9)
	f.r.Catalog().CreateDataset("user", "user.out1")
	out := &FileInfo{LFN: "user.out1.f0", Scope: "user", Dataset: "user.out1", ProdDBlock: "user.out1", Size: 5e8}
	f.r.Catalog().AddFile(out)
	bnl, _ := f.grid.PrimaryRSE("BNL-ATLAS")
	var got *records.TransferEvent
	f.r.Upload(out, "BNL-ATLAS", bnl.Name, records.AnalysisUpload, 11, func(ev *records.TransferEvent) { got = ev })
	f.eng.Run()
	if got == nil {
		t.Fatal("upload never completed")
	}
	if !got.IsUpload || got.IsDownload {
		t.Error("upload flags wrong")
	}
	if got.SourceSite != "BNL-ATLAS" || got.DestinationSite != "BNL-ATLAS" {
		t.Errorf("route %s->%s", got.SourceSite, got.DestinationSite)
	}
	if !f.r.Catalog().HasReplica(out, bnl.Name) {
		t.Error("output replica not registered")
	}
}

func TestTapeSourceAddsLatency(t *testing.T) {
	f := newFixture(10)
	f.r.Catalog().CreateDataset("ops", "ops.tape1")
	file := &FileInfo{LFN: "ops.tape1.f0", Scope: "ops", Dataset: "ops.tape1", ProdDBlock: "ops.tape1", Size: 1e9}
	f.r.Catalog().AddFile(file)
	f.r.Catalog().SetReplica(file, "CERN-PROD_MCTAPE", ReplicaAvailable)
	bnl, _ := f.grid.PrimaryRSE("BNL-ATLAS")
	f.r.EnsureReplicas([]*FileInfo{file}, bnl.Name, records.DataConsolidation, 0, nil)
	f.eng.Run()
	if len(f.events) != 1 {
		t.Fatal("no event")
	}
	// Staging delay appears between submission and network start.
	if f.events[0].StartedAt-f.events[0].SubmittedAt < 1 {
		t.Error("tape source showed no staging latency")
	}
}

func TestEventIDsMonotonic(t *testing.T) {
	f := newFixture(11)
	cern, _ := f.grid.PrimaryRSE("CERN-PROD")
	files := f.addDataset("user.ds9", []int64{1e9, 1e9, 1e9, 1e9}, cern.Name)
	f.r.PilotFetch(files, "CERN-PROD", records.AnalysisDownload, 1, nil)
	f.eng.Run()
	for i := 1; i < len(f.events); i++ {
		if f.events[i].EventID <= f.events[i-1].EventID {
			t.Fatal("event IDs not monotonic")
		}
	}
	if f.r.EmittedEvents != int64(len(f.events)) {
		t.Error("EmittedEvents counter mismatch")
	}
}

func TestSequentialSiteMemoized(t *testing.T) {
	f := newFixture(12)
	first := f.r.SequentialSite("TOKYO-LCG2")
	for i := 0; i < 10; i++ {
		if f.r.SequentialSite("TOKYO-LCG2") != first {
			t.Fatal("SequentialSite not memoized")
		}
	}
}

func TestBackgroundGeneratesTraffic(t *testing.T) {
	f := newFixture(13)
	f.eng = simtime.NewEngine(0, 2*simtime.Day)
	root := simtime.NewRNG(13)
	f.net = netsim.New(f.eng, f.grid, root.Split("net"), netsim.Options{})
	f.r = New(f.eng, f.grid, f.net, root.Split("rucio"), Options{}, func(ev *records.TransferEvent) {
		f.events = append(f.events, ev)
	})
	StartBackground(f.r, root.Split("bg"), BackgroundConfig{})
	f.eng.Run()
	if len(f.events) < 100 {
		t.Fatalf("background produced only %d events over 2 days", len(f.events))
	}
	byAct := map[records.Activity]int{}
	local := 0
	for _, ev := range f.events {
		byAct[ev.Activity]++
		if ev.IsLocal() {
			local++
		}
		if ev.JediTaskID != 0 {
			t.Fatal("background event carries jeditaskid")
		}
	}
	for _, act := range []records.Activity{records.TierExport, records.DataRebalancing, records.DataConsolidation, records.UserSubscription} {
		if byAct[act] == 0 {
			t.Errorf("no %s events", act)
		}
	}
	if local == 0 {
		t.Error("consolidation should produce same-site (diagonal) events")
	}
}
