package analysis

import (
	"fmt"
	"sort"

	"panrucio/internal/core"
	"panrucio/internal/records"
	"panrucio/internal/report"
)

// StatusCombo is one of Fig. 9's four job/task outcome combinations.
type StatusCombo int

// The four combinations, in the paper's legend order.
const (
	JobOKTaskOK StatusCombo = iota
	JobFailTaskOK
	JobOKTaskFail
	JobFailTaskFail
)

func (s StatusCombo) String() string {
	switch s {
	case JobOKTaskOK:
		return "job finished / task done"
	case JobFailTaskOK:
		return "job failed / task done"
	case JobOKTaskFail:
		return "job finished / task failed"
	case JobFailTaskFail:
		return "job failed / task failed"
	}
	return "combo(?)"
}

func comboOf(j *records.JobRecord) StatusCombo {
	jobOK := j.Status == records.JobFinished
	taskOK := j.TaskStatus == records.TaskDone
	switch {
	case jobOK && taskOK:
		return JobOKTaskOK
	case !jobOK && taskOK:
		return JobFailTaskOK
	case jobOK && !taskOK:
		return JobOKTaskFail
	default:
		return JobFailTaskFail
	}
}

// DefaultThresholds are Fig. 9's x-axis percentages.
var DefaultThresholds = []float64{1, 2, 5, 10, 15, 20, 25, 30, 40, 50, 60, 75, 90}

// ThresholdCurves is the Fig. 9 dataset: for each status combination, the
// cumulative count of matched jobs whose transfer-time percentage is below
// each threshold, plus the combination totals. Percentages are kept as
// sorted indices so every threshold query is a binary search rather than a
// rescan of the match set.
type ThresholdCurves struct {
	Thresholds []float64
	// Counts[combo][i] = jobs of that combo with transfer-time % < Thresholds[i].
	Counts [4][]int
	Totals [4]int

	// pcts holds every matched job's transfer-time percentage in ascending
	// order so AboveThreshold works for arbitrary cut-offs.
	pcts []float64
}

// BuildThresholdCurves computes Fig. 9 from an exact-matching result: one
// pass to collect per-combo percentages, one sort per combo, and a binary
// search per configured threshold.
func BuildThresholdCurves(res *core.Result, thresholds []float64) *ThresholdCurves {
	if len(thresholds) == 0 {
		thresholds = DefaultThresholds
	}
	tc := &ThresholdCurves{Thresholds: thresholds}
	var byCombo [4][]float64
	for _, m := range res.Matches {
		combo := comboOf(m.Job)
		pct := 100 * m.QueueTransferFraction()
		byCombo[combo] = append(byCombo[combo], pct)
		tc.pcts = append(tc.pcts, pct)
	}
	sort.Float64s(tc.pcts)
	for c := range byCombo {
		sort.Float64s(byCombo[c])
		tc.Totals[c] = len(byCombo[c])
		tc.Counts[c] = make([]int, len(thresholds))
		for i, th := range thresholds {
			// First index with pct >= th is also the count of pcts < th.
			tc.Counts[c][i] = sort.SearchFloat64s(byCombo[c], th)
		}
	}
	return tc
}

// AboveThreshold counts matched jobs (all combos) with transfer-time
// percentage >= th — the paper's "72 jobs above 75 %" observation. Any
// cut-off works, not just configured thresholds; each query is one binary
// search over the sorted percentages.
func (tc *ThresholdCurves) AboveThreshold(th float64) int {
	return len(tc.pcts) - sort.SearchFloat64s(tc.pcts, th)
}

// Table renders the Fig. 9 counts.
func (tc *ThresholdCurves) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 9 — job counts below transfer-time percentage thresholds",
		Columns: []string{"threshold"},
	}
	for c := 0; c < 4; c++ {
		t.Columns = append(t.Columns, StatusCombo(c).String())
	}
	for i, th := range tc.Thresholds {
		row := []string{fmt.Sprintf("< %.0f%%", th)}
		for c := 0; c < 4; c++ {
			row = append(row, fmt.Sprintf("%d", tc.Counts[c][i]))
		}
		t.AddRow(row...)
	}
	row := []string{"total"}
	for c := 0; c < 4; c++ {
		row = append(row, fmt.Sprintf("%d", tc.Totals[c]))
	}
	t.AddRow(row...)
	return t
}
