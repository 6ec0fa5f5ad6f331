package analysis

import (
	"math"
	"strings"
	"testing"

	"panrucio/internal/core"
	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/report"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

func mkEvent(id int64, src, dst string, size int64, start, end simtime.VTime) *records.TransferEvent {
	return &records.TransferEvent{
		EventID: id, LFN: "f", SourceSite: src, DestinationSite: dst,
		FileSize: size, StartedAt: start, EndedAt: end,
		ThroughputBps: float64(size) / math.Max(1, float64(end-start)),
	}
}

func TestHeatmapAccumulation(t *testing.T) {
	grid := topology.Default(topology.DefaultSpec{})
	store := metastore.New()
	store.PutTransfer(mkEvent(1, "CERN-PROD", "CERN-PROD", 100, 10, 20))
	store.PutTransfer(mkEvent(2, "CERN-PROD", "BNL-ATLAS", 50, 10, 20))
	store.PutTransfer(mkEvent(3, "CERN-PROD", topology.UnknownSite, 25, 10, 20))
	store.PutTransfer(mkEvent(4, "CERN-PROD", "BNL-ATLAS", 7, 9999, 10000)) // outside window

	h := BuildHeatmap(store, grid, 0, 1000)
	if h.TotalBytes != 175 {
		t.Errorf("TotalBytes = %g", h.TotalBytes)
	}
	if h.LocalBytes != 100 {
		t.Errorf("LocalBytes = %g", h.LocalBytes)
	}
	if h.UnknownBytes != 25 {
		t.Errorf("UnknownBytes = %g", h.UnknownBytes)
	}
	if got := h.LocalFraction(); math.Abs(got-100.0/175) > 1e-9 {
		t.Errorf("LocalFraction = %g", got)
	}
	top := h.TopCells(2)
	if len(top) != 2 || top[0].Bytes != 100 || !top[0].Local {
		t.Errorf("TopCells = %+v", top)
	}
	if h.ActiveSites() != 2 {
		t.Errorf("ActiveSites = %d", h.ActiveSites())
	}
	// Mean over all cells; geomean over the three positive ones.
	n := float64(grid.NumAxes() * grid.NumAxes())
	if math.Abs(h.MeanCell-175/n) > 1e-9 {
		t.Errorf("MeanCell = %g", h.MeanCell)
	}
	want := math.Pow(100*50*25, 1.0/3)
	if math.Abs(h.GeoMeanCell-want) > 1e-6 {
		t.Errorf("GeoMeanCell = %g, want %g", h.GeoMeanCell, want)
	}
	if !strings.Contains(h.Report(3).Render(), "Fig. 3") {
		t.Error("report title missing")
	}
}

func TestVolumeGrowthShape(t *testing.T) {
	pts := VolumeGrowth(GrowthConfig{})
	if len(pts) != 16 {
		t.Fatalf("years = %d, want 2009..2024", len(pts))
	}
	// Monotone growth (deletion never exceeds ingest at these defaults).
	for i := 1; i < len(pts); i++ {
		if pts[i].TotalPB <= pts[i-1].TotalPB {
			t.Errorf("volume shrank in %d", pts[i].Year)
		}
	}
	byYear := map[int]float64{}
	for _, p := range pts {
		byYear[p.Year] = p.TotalPB
	}
	// Paper calibration points: ~1 EB in mid-2024, and more than double
	// the 2018 volume.
	if byYear[2024] < 800 || byYear[2024] > 1300 {
		t.Errorf("2024 volume %.0f PB, want ~1000", byYear[2024])
	}
	if byYear[2024] < 2*byYear[2018] {
		t.Errorf("2024 (%.0f) should more than double 2018 (%.0f)", byYear[2024], byYear[2018])
	}
	// Shutdown years grow slower than neighbouring run years.
	if pts[5].IngestPB <= pts[4].IngestPB*0.3 { // 2014 vs 2013 both shutdown
		t.Logf("shutdown ingest: %v %v", pts[4], pts[5])
	}
	s := GrowthSeries(pts)
	if len(s.Points) != len(pts) || s.MaxY() != byYear[2024] {
		t.Error("series conversion wrong")
	}
	if !strings.Contains(GrowthReport(pts).Render(), "2024") {
		t.Error("report missing final year")
	}
}

// buildMatchedStore fabricates a store with two matched jobs for table and
// case tests.
func buildMatchedStore() (*metastore.Store, []*records.JobRecord) {
	store := metastore.New()
	add := func(panda, jedi int64, site string, status records.JobStatus, taskSt records.TaskStatus,
		create, start, end simtime.VTime, evs []*records.TransferEvent, sizes []int64) {
		var inBytes int64
		for i, size := range sizes {
			lfn := evs[i].LFN
			store.PutFile(&records.FileRecord{
				PandaID: panda, JediTaskID: jedi, LFN: lfn, Scope: "s",
				Dataset: "d", ProdDBlock: "d", FileSize: size, Kind: records.FileInput,
			})
			inBytes += size
		}
		store.PutJob(&records.JobRecord{
			PandaID: panda, JediTaskID: jedi, ComputingSite: site, Label: records.LabelUser,
			CreationTime: create, StartTime: start, EndTime: end,
			Status: status, TaskStatus: taskSt, NInputFileBytes: inBytes,
		})
		for _, ev := range evs {
			ev.JediTaskID = jedi
			ev.Scope, ev.Dataset, ev.ProdDBlock = "s", "d", "d"
			ev.IsDownload = true
			ev.Activity = records.AnalysisDownload
			store.PutTransfer(ev)
		}
	}
	// Job 1: finished, local, 2 sequential transfers filling 80% of queue.
	add(101, 11, "CERN-PROD", records.JobFinished, records.TaskDone,
		0, 1000, 3000,
		[]*records.TransferEvent{
			func() *records.TransferEvent {
				e := mkEvent(1, "CERN-PROD", "CERN-PROD", 60, 100, 500)
				e.LFN = "a"
				return e
			}(),
			func() *records.TransferEvent {
				e := mkEvent(2, "CERN-PROD", "CERN-PROD", 40, 500, 900)
				e.LFN = "b"
				return e
			}(),
		}, []int64{60, 40})
	// Job 2: failed, remote transfer spanning start.
	add(102, 12, "SIGNET", records.JobFailed, records.TaskFailed,
		0, 1000, 4000,
		[]*records.TransferEvent{
			func() *records.TransferEvent {
				e := mkEvent(3, "NDGF-T1", "SIGNET", 100, 200, 2500)
				e.LFN = "c"
				return e
			}(),
		}, []int64{100})
	jobs := store.Jobs(0, 100000, records.LabelUser)
	return store, jobs
}

func TestActivityBreakdownAndTables(t *testing.T) {
	store, jobs := buildMatchedStore()
	m := core.NewMatcher(store)
	cmp := CompareMethods(m, jobs)
	if cmp.Exact.MatchedJobs != 2 {
		t.Fatalf("exact matched %d jobs", cmp.Exact.MatchedJobs)
	}
	rows := ActivityBreakdown(store, cmp.Exact)
	if len(rows) != len(records.JobActivities) {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Activity != records.AnalysisDownload || rows[0].Matched != 3 || rows[0].Total != 3 {
		t.Errorf("download row = %+v", rows[0])
	}
	if rows[0].Pct() != 100 {
		t.Errorf("pct = %g", rows[0].Pct())
	}
	if (ActivityRow{}).Pct() != 0 {
		t.Error("zero-total pct should be 0")
	}
	out := ActivityTable(rows).Render()
	if !strings.Contains(out, "Analysis Download") || !strings.Contains(out, "Total") {
		t.Errorf("table: %s", out)
	}
	ta := cmp.TransferCountTable().Render()
	if !strings.Contains(ta, "Exact") || !strings.Contains(ta, "RM2") {
		t.Errorf("table 2a: %s", ta)
	}
	tb := cmp.JobCountTable().Render()
	if !strings.Contains(tb, "Jobs all local") {
		t.Errorf("table 2b: %s", tb)
	}
}

func TestTopJobsSelection(t *testing.T) {
	store, jobs := buildMatchedStore()
	res := core.NewMatcher(store).RunParallel(jobs, core.Exact, 1)

	local := TopJobs(res, core.AllLocal, 0.10, 40)
	if len(local) != 1 || local[0].PandaID != 101 {
		t.Fatalf("local top jobs = %+v", local)
	}
	if local[0].TransferPct < 79 || local[0].TransferPct > 81 {
		t.Errorf("transfer pct = %g, want ~80", local[0].TransferPct)
	}
	if local[0].StatusLabel() != "D,D" {
		t.Errorf("label = %q", local[0].StatusLabel())
	}
	remote := TopJobs(res, core.AllRemote, 0.10, 40)
	if len(remote) != 1 || remote[0].PandaID != 102 {
		t.Fatalf("remote top jobs = %+v", remote)
	}
	if remote[0].StatusLabel() != "F,F" {
		t.Errorf("label = %q", remote[0].StatusLabel())
	}
	if FailedFraction(remote) != 1 || FailedFraction(local) != 0 {
		t.Error("FailedFraction wrong")
	}
	if FailedFraction(nil) != 0 {
		t.Error("FailedFraction(nil) != 0")
	}
	// High threshold excludes everything.
	if got := TopJobs(res, core.AllLocal, 0.99, 40); len(got) != 0 {
		t.Errorf("threshold filter failed: %+v", got)
	}
	if !strings.Contains(TopJobsTable("Fig. 5", local).Render(), "101") {
		t.Error("table missing job")
	}
}

func TestBandwidthSeriesConservesBytes(t *testing.T) {
	evs := []*records.TransferEvent{
		mkEvent(1, "A", "B", 1000, 0, 100),
		mkEvent(2, "A", "B", 500, 50, 150),
	}
	s := BandwidthSeries(evs, 0, 200, 10)
	if len(s.Points) != 20 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// Integrating rate over buckets recovers total bytes.
	total := 0.0
	for _, p := range s.Points {
		total += p.Y * 10
	}
	if math.Abs(total-1500) > 1e-6 {
		t.Errorf("integrated bytes = %g, want 1500", total)
	}
	// Overlap bucket (50-100) carries both rates.
	if s.Points[6].Y <= s.Points[0].Y {
		t.Error("overlapping interval should have higher rate")
	}
	// Degenerate cases.
	if got := BandwidthSeries(nil, 10, 10, 5); len(got.Points) != 0 {
		t.Error("empty window should have no points")
	}
	inst := []*records.TransferEvent{mkEvent(3, "A", "B", 77, 42, 42)}
	s2 := BandwidthSeries(inst, 0, 100, 10)
	total = 0
	for _, p := range s2.Points {
		total += p.Y * 10
	}
	if math.Abs(total-77) > 1e-6 {
		t.Errorf("instantaneous event lost bytes: %g", total)
	}
}

func TestTopRoutesAndFigure(t *testing.T) {
	store := metastore.New()
	store.PutTransfer(mkEvent(1, "A", "A", 1000, 0, 10))
	store.PutTransfer(mkEvent(2, "A", "B", 500, 0, 10))
	store.PutTransfer(mkEvent(3, "B", "A", 200, 0, 10))
	store.PutTransfer(mkEvent(4, "UNKNOWN", "B", 900, 0, 10))
	evs := store.Transfers(0, 0)

	locals := TopRoutes(evs, true, 5)
	if len(locals) != 1 || locals[0] != (Route{"A", "A"}) {
		t.Errorf("local routes = %v", locals)
	}
	remotes := TopRoutes(evs, false, 5)
	if len(remotes) != 2 || remotes[0] != (Route{"A", "B"}) {
		t.Errorf("remote routes = %v (UNKNOWN must be excluded)", remotes)
	}
	if got := RouteEvents(evs, Route{"A", "B"}); len(got) != 1 {
		t.Errorf("RouteEvents = %d", len(got))
	}
	figs := BandwidthFigure(evs, false, 2, 0, 100, 10)
	if len(figs) != 2 || figs[0].Name != "A -> B" {
		t.Errorf("figure series = %+v", figs)
	}
	loc := BandwidthFigure(evs, true, 2, 0, 100, 10)
	if len(loc) != 1 || !strings.Contains(loc[0].Name, "local @ A") {
		t.Errorf("local figure = %+v", loc)
	}
	if r := (Route{"A", "A"}); !r.Local() || r.String() != "A -> A" {
		t.Error("route helpers wrong")
	}
}

func TestFluctuationRatio(t *testing.T) {
	s := &report.Series{Points: []report.Point{{X: 0, Y: 10}, {X: 1, Y: 10}, {X: 2, Y: 10}}}
	if got := FluctuationRatio(s); math.Abs(got-1) > 1e-9 {
		t.Errorf("steady ratio = %g", got)
	}
	spiky := &report.Series{Points: []report.Point{{X: 0, Y: 1}, {X: 1, Y: 9}, {X: 2, Y: 0}}}
	if got := FluctuationRatio(spiky); math.Abs(got-1.8) > 1e-9 {
		t.Errorf("spiky ratio = %g", got)
	}
	if FluctuationRatio(&report.Series{}) != 0 {
		t.Error("empty series ratio != 0")
	}
}

func TestThresholdCurves(t *testing.T) {
	store, jobs := buildMatchedStore()
	res := core.NewMatcher(store).RunParallel(jobs, core.Exact, 1)
	tc := BuildThresholdCurves(res, nil)
	if tc.Totals[JobOKTaskOK] != 1 || tc.Totals[JobFailTaskFail] != 1 {
		t.Fatalf("totals = %v", tc.Totals)
	}
	// Job 101 sits at 80%: below 90 only. Job 102 at 80% too
	// (transfer covers 200..1000 of a 1000s queue).
	if tc.AboveThreshold(75) != 2 {
		t.Errorf("above 75%% = %d", tc.AboveThreshold(75))
	}
	if tc.AboveThreshold(90) != 0 {
		t.Errorf("above 90%% = %d", tc.AboveThreshold(90))
	}
	if tc.AboveThreshold(33) != 2 { // not a configured threshold
		t.Errorf("unknown threshold should count all: %d", tc.AboveThreshold(33))
	}
	if tc.SuccessCount() != 1 {
		t.Errorf("successes = %d", tc.SuccessCount())
	}
	// Monotone non-decreasing curves.
	for c := 0; c < 4; c++ {
		for i := 1; i < len(tc.Thresholds); i++ {
			if tc.Counts[c][i] < tc.Counts[c][i-1] {
				t.Fatalf("combo %d curve not monotone", c)
			}
		}
	}
	if !strings.Contains(tc.Table().Render(), "total") {
		t.Error("table missing totals")
	}
	s := tc.Series(JobOKTaskOK)
	if len(s.Points) != len(tc.Thresholds) {
		t.Error("series length wrong")
	}
	for c := 0; c < 4; c++ {
		if StatusCombo(c).String() == "combo(?)" {
			t.Error("combo string missing")
		}
	}
}

func TestCaseStudies(t *testing.T) {
	grid := topology.Default(topology.DefaultSpec{})
	store, jobs := buildMatchedStore()
	m := core.NewMatcher(store)
	exact := m.RunParallel(jobs, core.Exact, 1)

	long := FindLongTransferCase(exact, grid, 0.1)
	if long == nil || long.Match.Job.PandaID != 101 {
		t.Fatalf("long case = %+v", long)
	}
	if !long.Sequential {
		t.Error("job 101's transfers are sequential")
	}
	if long.SpansQueueAndWall {
		t.Error("job 101 does not span queue+wall")
	}
	if long.ThroughputSpread < 1 {
		t.Error("throughput spread missing")
	}
	if FindLongTransferCase(exact, grid, 0.99) != nil {
		t.Error("min fraction filter ignored")
	}

	failed := FindFailedSpanningCase(exact, grid)
	if failed == nil || failed.Match.Job.PandaID != 102 {
		t.Fatalf("failed case = %+v", failed)
	}
	if !failed.SpansQueueAndWall {
		t.Error("spanning flag not set")
	}
	tl := failed.TimelineTable().Render()
	if !strings.Contains(tl, "queuing") || !strings.Contains(tl, "transfer 0") {
		t.Errorf("timeline: %s", tl)
	}

	// RM2 redundant case: duplicate events, one with UNKNOWN destination.
	store2 := metastore.New()
	store2.PutJob(&records.JobRecord{
		PandaID: 201, JediTaskID: 21, ComputingSite: "CERN-PROD", Label: records.LabelUser,
		CreationTime: 1000, StartTime: 2300, EndTime: 4000,
		Status: records.JobFinished, TaskStatus: records.TaskDone, NInputFileBytes: 100,
	})
	store2.PutFile(&records.FileRecord{
		PandaID: 201, JediTaskID: 21, LFN: "x", Scope: "s", Dataset: "d",
		ProdDBlock: "d", FileSize: 100, Kind: records.FileInput,
	})
	early := mkEvent(10, "CERN-PROD", topology.UnknownSite, 100, 500, 600)
	late := mkEvent(11, "CERN-PROD", "CERN-PROD", 100, 2200, 2290)
	for _, ev := range []*records.TransferEvent{early, late} {
		ev.LFN, ev.Scope, ev.Dataset, ev.ProdDBlock = "x", "s", "d", "d"
		ev.JediTaskID = 21
		ev.IsDownload = true
		ev.Activity = records.AnalysisDownload
		store2.PutTransfer(ev)
	}
	rm2 := core.NewMatcher(store2).RunParallel(store2.Jobs(0, 100000, records.LabelUser), core.RM2, 1)
	cs := FindRM2RedundantCase(rm2, grid)
	if cs == nil {
		t.Fatal("RM2 redundant case not found")
	}
	if len(cs.Redundant) != 1 || len(cs.Inferences) == 0 {
		t.Fatalf("case = %+v", cs)
	}
	if cs.Inferences[0].InferredSite != "CERN-PROD" || cs.Inferences[0].Evidence != "duplicate" {
		t.Errorf("inference = %+v", cs.Inferences[0])
	}
	sum := cs.TransferSummaryTable().Render()
	if !strings.Contains(sum, "UNKNOWN") || !strings.Contains(sum, "inferred destination") {
		t.Errorf("summary: %s", sum)
	}
	// The exact method sees only the intact duplicate: the UNKNOWN copy is
	// filtered by the site condition, so the redundancy is invisible to it
	// — only RM2 exposes the duplicate pair (paper Section 5.4).
	exact2 := core.NewMatcher(store2).RunParallel(store2.Jobs(0, 100000, records.LabelUser), core.Exact, 1)
	if exact2.MatchedJobs != 1 || exact2.MatchedTransfers != 1 {
		t.Fatalf("exact on redundant case: jobs=%d transfers=%d", exact2.MatchedJobs, exact2.MatchedTransfers)
	}
	if got := core.FindRedundant(&exact2.Matches[0]); got != nil {
		t.Error("exact view should not expose the redundancy")
	}
}

func TestVolumeGrowthCustomConfig(t *testing.T) {
	pts := VolumeGrowth(GrowthConfig{StartYear: 2015, EndYear: 2018, BaseIngestPB: 10, RunGrowth: 2, ShutdownFactor: 0.5, DeletionFraction: 0.0001})
	if len(pts) != 4 {
		t.Fatalf("years = %d", len(pts))
	}
	// All four are Run-2 data-taking years: ingest doubles yearly.
	for i := 1; i < len(pts); i++ {
		ratio := pts[i].IngestPB / pts[i-1].IngestPB
		if ratio < 1.99 || ratio > 2.01 {
			t.Errorf("ingest ratio %g in %d", ratio, pts[i].Year)
		}
	}
}
