package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"panrucio/internal/analysis"
	"panrucio/internal/anomaly"
	"panrucio/internal/core"
	"panrucio/internal/records"
	"panrucio/internal/report"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
	"panrucio/internal/stats"
	"panrucio/internal/sweep"
	"panrucio/internal/verify"
)

// Suite bundles one simulation run with the derived matching results.
type Suite struct {
	Result *sim.Result
	Jobs   []*records.JobRecord // user jobs completed in the window
	Cmp    *analysis.MethodComparison

	// Workers is the effective matcher fan-out the suite was built with
	// (1 = serial; a <= 0 request resolves to GOMAXPROCS).
	Workers int
}

// Run executes the scenario and the three matching passes serially.
func Run(cfg sim.Config) *Suite { return RunWorkers(cfg, 1) }

// RunWorkers executes the scenario and shards each matching pass across
// workers (<= 0 selects GOMAXPROCS). Results are identical to Run's; this
// is the entry point behind the -workers flag of cmd/repro and
// cmd/analyze.
func RunWorkers(cfg sim.Config, workers int) *Suite {
	return Build(sim.Run(cfg), workers)
}

// Build derives the suite from an already-executed run: the windowed user
// jobs plus the three matching passes, sharded across workers (<= 0
// selects GOMAXPROCS). It never runs a simulation, so the serving layer
// can rebuild analyses over a store it received from elsewhere — a frozen
// Run result or a live mid-run store published by sim.RunWithObserver
// (with Result.WindowTo set to the checkpoint time). Deterministic for a
// given store content and window, for any workers value.
func Build(res *sim.Result, workers int) *Suite {
	return BuildFromJobs(res, res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser), workers)
}

// BuildFromJobs is Build over a window query the caller already ran: jobs
// must be res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser).
// The suite keeps the slice as Suite.Jobs and never modifies it, so the
// serving layer shares one list between the suite and /api/pandaids.
func BuildFromJobs(res *sim.Result, jobs []*records.JobRecord, workers int) *Suite {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := core.NewMatcher(res.Store)
	return &Suite{
		Result:  res,
		Jobs:    jobs,
		Cmp:     analysis.CompareMethodsParallel(m, jobs, workers),
		Workers: workers,
	}
}

// Fig2 regenerates the cumulative-volume curve (E1).
func (s *Suite) Fig2() []analysis.GrowthPoint {
	return analysis.VolumeGrowth(analysis.GrowthConfig{})
}

// Fig3 regenerates the transfer heatmap over the study window (E2).
func (s *Suite) Fig3() *analysis.Heatmap {
	return analysis.BuildHeatmap(s.Result.Store, s.Result.Grid, s.Result.WindowFrom, s.Result.WindowTo)
}

// Table1 regenerates the exact-match activity breakdown (E3).
func (s *Suite) Table1() []analysis.ActivityRow {
	return analysis.ActivityBreakdown(s.Result.Store, s.Cmp.Exact)
}

// Fig5 regenerates the top-40 local-transfer jobs (E6).
func (s *Suite) Fig5() []analysis.TopJob {
	return analysis.TopJobs(s.Cmp.Exact, core.AllLocal, 0.10, 40)
}

// Fig6 regenerates the top-40 remote-transfer jobs (E7).
func (s *Suite) Fig6() []analysis.TopJob {
	return analysis.TopJobs(s.Cmp.Exact, core.AllRemote, 0.10, 40)
}

// matchedEvents collects the unique transfer events of a matching result.
func matchedEvents(res *core.Result) []*records.TransferEvent {
	seen := map[int64]bool{}
	var out []*records.TransferEvent
	for _, m := range res.Matches {
		for _, ev := range m.Transfers {
			if !seen[ev.EventID] {
				seen[ev.EventID] = true
				out = append(out, ev)
			}
		}
	}
	return out
}

// bandwidthFigure selects the top-k local or remote routes among the
// RM2-matched transfers (the paper plots matched-transfer bandwidth) and
// bins their flow.
func (s *Suite) bandwidthFigure(local bool, k int) []*report.Series {
	events := matchedEvents(s.Cmp.RM2)
	routes := analysis.TopRoutes(events, local, k)
	var out []*report.Series
	for _, r := range routes {
		ser := analysis.BandwidthSeries(analysis.RouteEvents(events, r),
			s.Result.WindowFrom, s.Result.WindowTo, 5*simtime.Minute)
		ser.Name = r.String()
		if r.Local() {
			ser.Name = "local @ " + r.Src
		}
		out = append(out, ser)
	}
	return out
}

// Fig7 regenerates the remote-connection bandwidth panels (E8).
func (s *Suite) Fig7() []*report.Series { return s.bandwidthFigure(false, 6) }

// Fig8 regenerates the local-site bandwidth panels (E9).
func (s *Suite) Fig8() []*report.Series { return s.bandwidthFigure(true, 6) }

// Fig9 regenerates the threshold curves (E10).
func (s *Suite) Fig9() *analysis.ThresholdCurves {
	return analysis.BuildThresholdCurves(s.Cmp.Exact, nil)
}

// Fig10 finds the long-transfer success case (E11).
func (s *Suite) Fig10() *analysis.CaseStudy {
	return analysis.FindLongTransferCase(s.Cmp.Exact, s.Result.Grid, 0.10)
}

// Fig11 finds the failed spanning-transfer case (E12).
func (s *Suite) Fig11() *analysis.CaseStudy {
	return analysis.FindFailedSpanningCase(s.Cmp.Exact, s.Result.Grid)
}

// Fig12 finds the RM2 redundant-transfer case with site inference (E13).
func (s *Suite) Fig12() *analysis.CaseStudy {
	return analysis.FindRM2RedundantCase(s.Cmp.RM2, s.Result.Grid)
}

// RobustnessSweep regenerates experiment E14: the canned robustness sweep
// ramping the job-correlated corruption channels from 0% to 50% over the
// quick scenario and measuring how the Exact/RM1/RM2 match rates respond.
// Exact matching collapses as site labels and task ids degrade while RM2
// holds — the paper's robustness ordering as a measured curve rather than
// a single point. workers bounds the concurrent scenarios (<= 0 selects
// GOMAXPROCS); the report is identical for any value.
func RobustnessSweep(seed int64, workers int) *sweep.Report {
	return sweep.Run(
		sweep.CorruptionRamp(sim.QuickConfig(seed), sweep.DefaultRampRates()),
		sweep.Options{Workers: workers})
}

// DetectionSweep regenerates experiment E15: the canned verify grid — one
// scenario per corruption channel pairing that channel's pre-ingest
// corruption (the E14 tolerance axis, isolated per channel) with the same
// channel's post-seal at-rest tamper, detected through the metastore's
// segment commitments, plus a clean control for false positives. The
// report's detection table must show 100% for every channel: commitments
// cover every committed field, so any at-rest change misses its hash.
// workers bounds the concurrent scenarios (<= 0 selects GOMAXPROCS); the
// report is identical for any value.
func DetectionSweep(seed int64, workers int) *sweep.Report {
	return sweep.Run(
		sweep.VerifyGrid(sim.QuickConfig(seed), sweep.DefaultVerifyProb),
		sweep.Options{Workers: workers})
}

// OnlineVerify runs the E15 online half: the detect-and-repair loop over
// the quick scenario with mid-run tamper planted each checkpoint — sealed
// segments audited incrementally, the trailing read window re-audited,
// fresh jobs anomaly-scanned via live RM2 matching, and a repair pass
// closing the run.
func OnlineVerify(seed int64) *verify.OnlineReport {
	return verify.RunOnline(sim.QuickConfig(seed), verify.OnlineOptions{
		Tamper: &verify.TamperConfig{Prob: sweep.DefaultVerifyProb, Seed: seed},
	})
}

// Anomalies runs the automated anomaly scan (the paper's future-work
// detection layer) over the RM2 matches.
func (s *Suite) Anomalies() *anomaly.Report {
	return anomaly.NewScanner(s.Result.Grid).Scan(s.Cmp.RM2)
}

// SummaryTable reports the Section 5.1 headline numbers for this run.
func (s *Suite) SummaryTable() *report.Table {
	t := &report.Table{
		Title:   "Section 5.1 — matching summary",
		Columns: []string{"metric", "measured", "paper"},
	}
	st := s.Result.Store
	t.AddRow("user jobs collected", fmt.Sprintf("%d", len(s.Jobs)), "966,453")
	t.AddRow("transfer events collected", fmt.Sprintf("%d", st.TransferCount()), "6,784,936")
	t.AddRow("transfers with jeditaskid", fmt.Sprintf("%d", st.TransfersWithTaskID()), "1,585,229")
	t.AddRow("exact matched transfers", fmt.Sprintf("%d (%.2f%%)",
		s.Cmp.Exact.MatchedTransfers, s.Cmp.Exact.MatchedTransferPct()), "30,380 (1.92%)")
	t.AddRow("exact matched jobs", fmt.Sprintf("%d (%.2f%%)",
		s.Cmp.Exact.MatchedJobs, s.Cmp.Exact.MatchedJobPct()), "7,907 (0.82%)")

	var fracs []float64
	for _, m := range s.Cmp.Exact.Matches {
		fracs = append(fracs, 100*m.QueueTransferFraction())
	}
	t.AddRow("avg transfer time in queue", fmt.Sprintf("%.2f%%", stats.Mean(fracs)), "8.43%")
	t.AddRow("geomean transfer time in queue", fmt.Sprintf("%.3f%%", stats.GeoMean(fracs)), "1.942%")
	return t
}

// RenderAll produces the complete textual report: every table and figure
// with its paper counterpart noted.
func (s *Suite) RenderAll() string {
	var b strings.Builder
	w := func(x string) { b.WriteString(x); b.WriteString("\n") }

	w(s.SummaryTable().Render())
	w(analysis.GrowthReport(s.Fig2()).Render())
	w(s.Fig3().Report(6).Render())
	w(analysis.ActivityTable(s.Table1()).Render())
	w(s.Cmp.TransferCountTable().Render())
	w(s.Cmp.JobCountTable().Render())
	w(analysis.TopJobsTable("Fig. 5 — top local-transfer jobs (>=10% of queuing time)", s.Fig5()).Render())
	w(analysis.TopJobsTable("Fig. 6 — top remote-transfer jobs (>=10% of queuing time)", s.Fig6()).Render())
	w(report.RenderSeries("Fig. 7 — bandwidth at remote connections (matched transfers)", 64, s.Fig7()))
	w(report.RenderSeries("Fig. 8 — bandwidth at local sites (matched transfers)", 64, s.Fig8()))
	w(s.Fig9().Table().Render())
	for _, cs := range []*analysis.CaseStudy{s.Fig10(), s.Fig11(), s.Fig12()} {
		if cs == nil {
			w("(case study not present for this seed)")
			continue
		}
		w(cs.TimelineTable().Render())
		if cs.Kind == "rm2-redundant" {
			w(cs.TransferSummaryTable().Render())
		}
	}
	w(s.Anomalies().Table(5).Render())
	return b.String()
}

// ShapeChecks verifies the paper's qualitative claims on this run and
// returns human-readable pass/fail lines (used by cmd/repro and the
// benchmark harness). All should pass for the default seeds. The check
// logic lives in analysis.ShapeChecks so the sweep engine can evaluate the
// same claims per scenario without importing this package.
func (s *Suite) ShapeChecks() []string {
	checks := analysis.ShapeChecks(s.Result.Store, s.Result.Grid,
		s.Result.WindowFrom, s.Result.WindowTo, s.Cmp)
	out := make([]string, len(checks))
	for i, c := range checks {
		out[i] = c.String()
	}
	return out
}
