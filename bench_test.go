// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md E1-E13). Each benchmark measures the analysis step
// that regenerates the artifact over a shared paper-scale simulation run
// and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` doubles as the reproduction log.
package panrucio_test

import (
	"runtime"
	"sync"
	"testing"

	"panrucio/internal/analysis"
	"panrucio/internal/core"
	"panrucio/internal/experiments"
	"panrucio/internal/records"
	"panrucio/internal/sim"
	"panrucio/internal/sweep"
)

// newMatcher builds a fresh matcher over the suite's store, so matching
// passes are measured from cold indices each iteration.
func newMatcher(s *experiments.Suite) *core.Matcher {
	return core.NewMatcher(s.Result.Store)
}

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// sharedSuite builds the paper-scale run once; the simulation itself is
// benchmarked separately in BenchmarkSimulation.
func sharedSuite() *experiments.Suite {
	suiteOnce.Do(func() { suite = experiments.Run(sim.PaperConfig(1)) })
	return suite
}

// BenchmarkSimulation measures the full 8-day grid simulation plus the
// three matching passes (the substrate cost underneath every experiment).
// Beyond throughput it reports the two memory scoreboards of the store:
// live_B/event is the retained heap per stored transfer event once the run
// is frozen (the metric that decides whether paper-scale fits on one
// machine), alloc_B/event the total allocation churn per event.
func BenchmarkSimulation(b *testing.B) {
	b.ReportAllocs()
	var events, liveB, allocB float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		s := experiments.Run(sim.PaperConfig(int64(i + 1)))
		b.StopTimer()
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		events += float64(s.Result.StoredEvents)
		liveB += float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
		allocB += float64(m1.TotalAlloc - m0.TotalAlloc)
		runtime.KeepAlive(s)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(events/float64(b.N), "events")
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(liveB/events, "live_B/event")
	b.ReportMetric(allocB/events, "alloc_B/event")
}

// BenchmarkStoreJobsWindow measures the query every analysis starts from:
// the user jobs completed in the study window, ordered by pandaid, over
// the shared paper-scale run's frozen store. Metric: jobs returned.
func BenchmarkStoreJobsWindow(b *testing.B) {
	s := sharedSuite()
	res := s.Result
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser))
	}
	b.ReportMetric(float64(n), "jobs")
}

// BenchmarkFig2VolumeGrowth regenerates the cumulative managed-volume
// curve (E1). Metric: final-year volume in PB (paper: ~1000).
func BenchmarkFig2VolumeGrowth(b *testing.B) {
	var final float64
	for i := 0; i < b.N; i++ {
		pts := analysis.VolumeGrowth(analysis.GrowthConfig{})
		final = pts[len(pts)-1].TotalPB
	}
	b.ReportMetric(final, "PB_2024")
}

// BenchmarkFig3Heatmap regenerates the site-to-site transfer matrix (E2).
// Metrics: build time per window event, and the local (diagonal) volume
// fraction in percent (paper: 77).
func BenchmarkFig3Heatmap(b *testing.B) {
	res := sharedSuite().Result
	events := len(res.Store.Transfers(res.WindowFrom, res.WindowTo))
	b.ResetTimer()
	var local float64
	for i := 0; i < b.N; i++ {
		h := analysis.BuildHeatmap(res.Store, res.Grid, res.WindowFrom, res.WindowTo)
		local = 100 * h.LocalFraction()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	b.ReportMetric(local, "local_pct")
}

// BenchmarkTable1ActivityBreakdown regenerates the exact-match activity
// table (E3). Metric: total matched percentage (paper: 1.92).
func BenchmarkTable1ActivityBreakdown(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	var matched, total int
	for i := 0; i < b.N; i++ {
		matched, total = 0, 0
		for _, row := range analysis.ActivityBreakdown(s.Result.Store, s.Cmp.Exact) {
			matched += row.Matched
			total += row.Total
		}
	}
	if total > 0 {
		b.ReportMetric(100*float64(matched)/float64(total), "matched_pct")
	}
}

// BenchmarkTable2aTransferCounts runs the three matching passes and
// reports the RM2 matched-transfer percentage (E4; paper: 3.82).
func BenchmarkTable2aTransferCounts(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	var pct float64
	for i := 0; i < b.N; i++ {
		cmp := analysis.CompareMethods(newMatcher(s), s.Jobs, 1)
		pct = cmp.RM2.MatchedTransferPct()
	}
	b.ReportMetric(pct, "rm2_pct")
}

// BenchmarkTable2bJobCounts runs the matching passes and reports the RM2
// matched-job percentage (E5; paper: 1.71).
func BenchmarkTable2bJobCounts(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	var pct float64
	for i := 0; i < b.N; i++ {
		cmp := analysis.CompareMethods(newMatcher(s), s.Jobs, 1)
		pct = cmp.RM2.MatchedJobPct()
	}
	b.ReportMetric(pct, "rm2_jobs_pct")
}

// BenchmarkFig5TopLocalJobs extracts the top local-transfer jobs (E6).
// Metric: population size (paper plots 40).
func BenchmarkFig5TopLocalJobs(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(s.Fig5())
	}
	b.ReportMetric(float64(n), "jobs")
}

// BenchmarkFig6TopRemoteJobs extracts the top remote-transfer jobs (E7).
func BenchmarkFig6TopRemoteJobs(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(s.Fig6())
	}
	b.ReportMetric(float64(n), "jobs")
}

// BenchmarkFig7RemoteBandwidth bins matched-transfer bandwidth on the top
// remote connections (E8). Metric: number of panels (paper: 6).
func BenchmarkFig7RemoteBandwidth(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(s.Fig7())
	}
	b.ReportMetric(float64(n), "panels")
}

// BenchmarkFig8LocalBandwidth bins matched-transfer bandwidth at the top
// local sites (E9).
func BenchmarkFig8LocalBandwidth(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(s.Fig8())
	}
	b.ReportMetric(float64(n), "panels")
}

// BenchmarkFig9ThresholdCurves builds the status-vs-threshold curves
// (E10). Metric: jobs above the 75% threshold (paper: 72 of 7,907).
func BenchmarkFig9ThresholdCurves(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	var extreme int
	for i := 0; i < b.N; i++ {
		extreme = s.Fig9().AboveThreshold(75)
	}
	b.ReportMetric(float64(extreme), "jobs_above_75pct")
}

// BenchmarkFig10CaseLongTransfer locates the long-transfer success case
// (E11). Metric: the case's transfer-time percentage (paper: 83).
func BenchmarkFig10CaseLongTransfer(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	var pct float64
	for i := 0; i < b.N; i++ {
		if cs := s.Fig10(); cs != nil {
			pct = 100 * cs.Match.QueueTransferFraction()
		}
	}
	b.ReportMetric(pct, "transfer_pct")
}

// BenchmarkFig11CaseFailedJob locates the failed spanning-transfer case
// (E12). Metric: 1 when found.
func BenchmarkFig11CaseFailedJob(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	found := 0.0
	for i := 0; i < b.N; i++ {
		if cs := s.Fig11(); cs != nil && cs.SpansQueueAndWall {
			found = 1
		}
	}
	b.ReportMetric(found, "found")
}

// BenchmarkSweep runs the E14 robustness grid (six quick scenarios,
// corruption ramped 0%→50%) through the sweep engine at full fan-out and
// reports sustained scenario throughput. Metric: scenarios/sec.
func BenchmarkSweep(b *testing.B) {
	scenarios := sweep.CorruptionRamp(sim.QuickConfig(1), sweep.DefaultRampRates())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := sweep.Run(scenarios, sweep.Options{Workers: runtime.GOMAXPROCS(0)})
		if len(rep.Outcomes) != len(scenarios) {
			b.Fatal("sweep dropped scenarios")
		}
	}
	b.ReportMetric(float64(b.N*len(scenarios))/b.Elapsed().Seconds(), "scenarios/sec")
}

// BenchmarkFig12RM2Redundant locates the RM2 redundant-transfer case and
// its site inference (E13). Metric: redundant groups in the case.
func BenchmarkFig12RM2Redundant(b *testing.B) {
	s := sharedSuite()
	b.ResetTimer()
	var groups int
	for i := 0; i < b.N; i++ {
		if cs := s.Fig12(); cs != nil {
			groups = len(cs.Redundant)
		}
	}
	b.ReportMetric(float64(groups), "redundant_groups")
}
