package anomaly

import (
	"strings"
	"testing"

	"panrucio/internal/core"
	"panrucio/internal/records"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// match fabricates a matched job for detector unit tests.
func match(queue, wall simtime.VTime, evs ...*records.TransferEvent) *core.Match {
	return &core.Match{
		Job: &records.JobRecord{
			PandaID: 100, CreationTime: 0, StartTime: queue, EndTime: queue + wall,
			Status: records.JobFinished, TaskStatus: records.TaskDone,
		},
		Transfers: evs,
	}
}

func ev(lfn string, size int64, start, end simtime.VTime) *records.TransferEvent {
	return &records.TransferEvent{
		LFN: lfn, FileSize: size, StartedAt: start, EndedAt: end,
		SourceSite: "CERN-PROD", DestinationSite: "CERN-PROD",
		IsDownload: true, ThroughputBps: float64(size) / float64(end-start),
	}
}

func TestThresholdDetector(t *testing.T) {
	d := ThresholdDetector{}
	// 80% of a 1000s queue: above the default 0.75 cut.
	hot := match(1000, 2000, ev("a", 1e9, 0, 800))
	got := d.Detect(hot)
	if len(got) != 1 || got[0].Kind != ExcessiveTransferTime {
		t.Fatalf("findings = %+v", got)
	}
	if got[0].Severity < 1 {
		t.Error("severity below threshold mark")
	}
	cold := match(1000, 2000, ev("a", 1e9, 0, 100))
	if d.Detect(cold) != nil {
		t.Error("10% job flagged at default threshold")
	}
	strict := ThresholdDetector{Fraction: 0.05}
	if strict.Detect(cold) == nil {
		t.Error("custom threshold ignored")
	}
}

func TestRedundancyDetector(t *testing.T) {
	d := RedundancyDetector{}
	m := match(1000, 2000,
		ev("a", 5e9, 0, 100),
		ev("a", 5e9, 200, 300), // duplicate of a
		ev("b", 1e9, 0, 50),
	)
	got := d.Detect(m)
	if len(got) != 1 || got[0].Kind != RedundantTransfer {
		t.Fatalf("findings = %+v", got)
	}
	if !strings.Contains(got[0].Detail, "5.00 GB") {
		t.Errorf("wasted volume missing from detail: %s", got[0].Detail)
	}
	if d.Detect(match(1000, 2000, ev("a", 1e9, 0, 100))) != nil {
		t.Error("false redundancy")
	}
}

func TestSpanDetector(t *testing.T) {
	d := SpanDetector{}
	m := match(1000, 1000, ev("a", 1e9, 500, 1600)) // crosses start=1000
	got := d.Detect(m)
	if len(got) != 1 || got[0].Kind != SpanningTransfer {
		t.Fatalf("findings = %+v", got)
	}
	if got[0].Severity <= 1 {
		t.Error("overrun severity should exceed 1")
	}
	if d.Detect(match(1000, 1000, ev("a", 1e9, 0, 900))) != nil {
		t.Error("non-spanning transfer flagged")
	}
}

func TestSequentialDetector(t *testing.T) {
	d := SequentialDetector{}
	seq := match(1000, 1000,
		ev("a", 1e9, 0, 100), ev("b", 1e9, 100, 250), ev("c", 1e9, 250, 400))
	got := d.Detect(seq)
	if len(got) != 1 || got[0].Kind != SequentialStaging {
		t.Fatalf("findings = %+v", got)
	}
	par := match(1000, 1000,
		ev("a", 1e9, 0, 100), ev("b", 1e9, 50, 250), ev("c", 1e9, 250, 400))
	if d.Detect(par) != nil {
		t.Error("overlapping staging flagged as sequential")
	}
	two := match(1000, 1000, ev("a", 1e9, 0, 100), ev("b", 1e9, 100, 200))
	if d.Detect(two) != nil {
		t.Error("below MinFiles flagged")
	}
	// Uploads do not count toward staging.
	up := ev("u", 1e9, 400, 500)
	up.IsDownload, up.IsUpload = false, true
	mixed := match(1000, 1000, ev("a", 1e9, 0, 100), ev("b", 1e9, 100, 200), up)
	if d.Detect(mixed) != nil {
		t.Error("upload counted as staging file")
	}
}

func TestDisparityDetector(t *testing.T) {
	d := DisparityDetector{}
	m := match(1000, 1000,
		ev("a", 20e9, 0, 10), // 2 GB/s
		ev("b", 1e9, 10, 20)) // 100 MB/s -> 20x spread
	got := d.Detect(m)
	if len(got) != 1 || got[0].Kind != ThroughputDisparity {
		t.Fatalf("findings = %+v", got)
	}
	even := match(1000, 1000, ev("a", 1e9, 0, 10), ev("b", 1e9, 10, 20))
	if d.Detect(even) != nil {
		t.Error("uniform throughput flagged")
	}
}

func TestMetadataDetector(t *testing.T) {
	grid := topology.Default(topology.DefaultSpec{})
	d := MetadataDetector{Grid: grid}
	bad := ev("a", 1e9, 0, 100)
	bad.DestinationSite = topology.UnknownSite
	good := ev("a", 1e9, 200, 300)
	m := match(1000, 1000, bad, good)
	got := d.Detect(m)
	if len(got) != 1 || got[0].Kind != MetadataLoss {
		t.Fatalf("findings = %+v", got)
	}
	if !strings.Contains(got[0].Detail, "1 repairable") {
		t.Errorf("repairability missing: %s", got[0].Detail)
	}
	if d.Detect(match(1000, 1000, good)) != nil {
		t.Error("intact metadata flagged")
	}
	if (MetadataDetector{}).Detect(m) != nil {
		t.Error("nil-grid detector should be inert")
	}
}

func TestScannerAggregation(t *testing.T) {
	grid := topology.Default(topology.DefaultSpec{})
	res := &core.Result{}
	// One clean job and one triple-anomalous job.
	res.Matches = append(res.Matches, *match(1000, 1000, ev("ok", 1e9, 0, 20)))
	hotEv1 := ev("a", 5e9, 0, 500)
	hotEv2 := ev("a", 5e9, 600, 990)
	hot := match(1000, 1000, hotEv1, hotEv2)
	hot.Job.PandaID = 200
	res.Matches = append(res.Matches, *hot)

	rep := NewScanner(grid).Scan(res)
	if rep.JobsScanned != 2 {
		t.Errorf("scanned = %d", rep.JobsScanned)
	}
	kinds := rep.CountByKind()
	if kinds[ExcessiveTransferTime] != 1 || kinds[RedundantTransfer] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
	if rep.AffectedJobs() != 1 {
		t.Errorf("affected = %d, want only job 200", rep.AffectedJobs())
	}
	// Sorted by severity descending.
	for i := 1; i < len(rep.Findings); i++ {
		if rep.Findings[i].Severity > rep.Findings[i-1].Severity {
			t.Fatal("findings not sorted by severity")
		}
	}
	tbl := rep.Table(3).Render()
	for _, needle := range []string{"jobs scanned", "affected jobs", "top 1"} {
		if !strings.Contains(tbl, needle) {
			t.Errorf("table missing %q", needle)
		}
	}
	if got := rep.Top(1000); len(got) != len(rep.Findings) {
		t.Error("Top over-capped")
	}
}

// End-to-end: the scanner finds every anomaly class the simulation plants.
func TestScanOnSimulatedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	res := sim.Run(sim.PaperConfig(1))
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	rm2 := core.NewMatcher(res.Store).RunParallel(jobs, core.RM2, 1)
	rep := NewScanner(res.Grid).Scan(rm2)
	if len(rep.Findings) == 0 {
		t.Fatal("no findings on the default run")
	}
	kinds := rep.CountByKind()
	for _, k := range []Kind{ExcessiveTransferTime, RedundantTransfer, SpanningTransfer, SequentialStaging, MetadataLoss} {
		if kinds[k] == 0 {
			t.Errorf("no %s findings on the default run", k)
		}
	}
	// Determinism.
	rep2 := NewScanner(res.Grid).Scan(rm2)
	if len(rep2.Findings) != len(rep.Findings) {
		t.Error("scan not deterministic")
	}
}
