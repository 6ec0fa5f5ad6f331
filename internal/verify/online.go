package verify

import (
	"fmt"

	"panrucio/internal/anomaly"
	"panrucio/internal/core"
	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/report"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
)

// OnlineOptions tunes the online detect-and-repair loop.
type OnlineOptions struct {
	// Every is the checkpoint interval (default 6 hours of virtual time).
	Every simtime.VTime
	// Tamper, when non-nil, plants at-rest tamper at each checkpoint —
	// restricted to the just-closed window, so the NEXT checkpoint's
	// windowed audit is what catches it. Nil runs the loop cleanly (the
	// false-positive control).
	Tamper *TamperConfig
}

// OnlineReport summarizes one online run: what the incremental audits
// covered, how much of the planted tamper was caught mid-run vs. by the
// final audit, what the anomaly scans surfaced, and what repair fixed.
// Pure value data.
type OnlineReport struct {
	Checkpoints int `json:"checkpoints"`

	// Incremental audit coverage: segments/rows audited exactly once each,
	// at the checkpoint that sealed them.
	IncSegments int `json:"inc_segments"`
	IncRows     int `json:"inc_rows"`

	// Windowed re-audit coverage and mid-run catches: rows re-checked in
	// the trailing two-checkpoint window, and the violations those audits
	// surfaced before the run ended.
	WindowRows     int `json:"window_rows"`
	MidRunDetected int `json:"mid_run_detected"`

	// Mid-run anomaly scanning over freshly ended user jobs (live RM2
	// matching — no freeze, so segment audit marks stay valid).
	JobsScanned int `json:"jobs_scanned"`
	Findings    int `json:"findings"`

	Tamper    TamperLog `json:"tamper"`
	Detection Detection `json:"detection"`

	// Final full audit and the repair pass that closes the loop.
	FinalRows       int              `json:"final_rows"`
	FinalViolations int              `json:"final_violations"`
	Repair          core.RepairStats `json:"repair"`

	StoredEvents int `json:"stored_events"`
}

// RunOnline executes the scenario with the verify loop riding the
// observer seam: at every checkpoint it seals the store, audits the
// segments sealed since the previous checkpoint (incremental — each
// sealed row is audit-hashed exactly once mid-run), re-audits the
// trailing read window (which is what catches tamper planted after a
// segment's own incremental audit), and anomaly-scans the window's
// freshly ended user jobs through live RM2 matching. With opt.Tamper set,
// each checkpoint also plants window-restricted tamper for the next one
// to find. After the run: a full audit reconciled against the tamper
// ground truth, an RM2 anomaly scan, and a core.RepairStore pass.
//
// The observer only reads and reorganizes (Seal is content-preserving),
// so the simulation trajectory is identical to sim.Run for the same
// Config — except for the planted tamper, which by design touches only
// sealed, already-matched-against content.
func RunOnline(cfg sim.Config, opt OnlineOptions) *OnlineReport {
	if opt.Every <= 0 {
		opt.Every = 6 * simtime.Hour
	}
	rep := &OnlineReport{}
	var mark metastore.AuditMark
	grid := sim.GridFor(cfg)

	res := sim.RunWithObserver(cfg, opt.Every, func(now simtime.VTime, store *metastore.Store) {
		rep.Checkpoints++
		mOnlineCheckpoints.Inc()
		store.Seal()

		// Incremental: only the segments this checkpoint's seal produced
		// (plus any auto-sealed since the last one).
		inc, m2 := store.AuditSealedSince(mark)
		mark = m2
		rep.IncSegments += inc.Segments
		rep.IncRows += inc.Rows
		rep.MidRunDetected += len(inc.Violations)

		// Windowed: re-audit the trailing two intervals. Tamper planted at
		// checkpoint k hits rows in [t_k - every, t_k), which this window
		// covers at checkpoint k+1 — mid-run detection, one interval late.
		win := store.AuditTransfersWindow(now-2*opt.Every, now)
		rep.WindowRows += win.Rows
		rep.MidRunDetected += len(win.Violations)

		// Anomaly scan of the window's freshly ended user jobs via live
		// RM2 matching — MatchJob works mid-run and never freezes, so the
		// audit marks above stay valid.
		jobs := store.Jobs(now-opt.Every, now, records.LabelUser)
		if len(jobs) > 0 {
			matcher := core.NewMatcher(store)
			mres := &core.Result{Method: core.RM2}
			for _, j := range jobs {
				if evs := matcher.MatchJob(j, core.RM2); len(evs) > 0 {
					mres.Matches = append(mres.Matches, core.Match{Job: j, Transfers: evs})
				}
			}
			rep.JobsScanned += len(jobs)
			findings := len(anomaly.NewScanner(grid).Scan(mres).Findings)
			rep.Findings += findings
			mOnlineFindings.Add(int64(findings))
		}

		// Plant tamper for the NEXT checkpoint (and the final audit) to
		// catch: window-restricted to the just-closed interval, seed
		// varied per checkpoint so each plants fresh damage.
		if opt.Tamper != nil {
			tc := *opt.Tamper
			tc.From, tc.To = now-opt.Every, now
			tc.Seed = tc.Seed + int64(rep.Checkpoints)
			rep.Tamper.absorb(TamperStore(store, tc))
		}
	})

	// Final reckoning: the full audit sees every sealed row — compaction
	// at the run's final Freeze carries commitments, so tamper planted
	// mid-run is still exposed here.
	final := res.Store.AuditSealed()
	rep.FinalRows = final.Rows
	rep.FinalViolations = len(final.Violations)
	rep.Detection = Detect(rep.Tamper, final)

	// Close the loop: RM2-match the window's user jobs, scan, repair.
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	rm2 := core.NewMatcher(res.Store).RunParallel(jobs, core.RM2, 1)
	rep.Findings += len(anomaly.NewScanner(res.Grid).Scan(rm2).Findings)
	_, st := core.RepairStore(res.Store, res.Grid, rm2)
	rep.Repair = st
	mRepairedLabels.Add(int64(st.LabelsRepaired))
	rep.StoredEvents = res.Store.TransferCount()
	return rep
}

// Table renders the online-loop summary for the E15 report.
func (r *OnlineReport) Table() *report.Table {
	t := &report.Table{
		Title:   "E15 — online detect-and-repair loop",
		Columns: []string{"metric", "value"},
	}
	add := func(k, v string) { t.AddRow(k, v) }
	add("checkpoints", fmt.Sprintf("%d", r.Checkpoints))
	add("segments audited incrementally", fmt.Sprintf("%d", r.IncSegments))
	add("rows audited incrementally", fmt.Sprintf("%d", r.IncRows))
	add("rows re-audited in trailing windows", fmt.Sprintf("%d", r.WindowRows))
	add("rows tampered mid-run", fmt.Sprintf("%d", r.Tamper.RowsTampered))
	add("segments rolled back mid-run", fmt.Sprintf("%d", r.Tamper.SegmentsTruncated))
	add("violations caught mid-run", fmt.Sprintf("%d", r.MidRunDetected))
	add("final-audit rows", fmt.Sprintf("%d", r.FinalRows))
	add("final-audit violations", fmt.Sprintf("%d", r.FinalViolations))
	add("detection rate", fmt.Sprintf("%.1f%%", 100*r.Detection.Rate()))
	add("jobs anomaly-scanned mid-run", fmt.Sprintf("%d", r.JobsScanned))
	add("anomaly findings (mid-run + final)", fmt.Sprintf("%d", r.Findings))
	add("labels repaired", fmt.Sprintf("%d", r.Repair.LabelsRepaired))
	add("stored events", fmt.Sprintf("%d", r.StoredEvents))
	return t
}
