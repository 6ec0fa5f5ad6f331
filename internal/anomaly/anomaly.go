package anomaly

import (
	"fmt"
	"sort"

	"panrucio/internal/core"
	"panrucio/internal/records"
	"panrucio/internal/report"
	"panrucio/internal/stats"
	"panrucio/internal/topology"
)

// Kind classifies a finding.
type Kind string

// Anomaly kinds, one per pathology the paper documents.
const (
	// ExcessiveTransferTime: transfer time above a threshold fraction of
	// queuing time (Fig. 9's >75 % population).
	ExcessiveTransferTime Kind = "excessive-transfer-time"
	// RedundantTransfer: the same file moved more than once for one job
	// (Fig. 12).
	RedundantTransfer Kind = "redundant-transfer"
	// SpanningTransfer: a transfer crossing from queue into wall time
	// (Fig. 11).
	SpanningTransfer Kind = "spanning-transfer"
	// SequentialStaging: multi-file stage-in with no overlap — bandwidth
	// under-utilization (Fig. 10).
	SequentialStaging Kind = "sequential-staging"
	// ThroughputDisparity: matched transfers of one job differing by a
	// large throughput factor (Fig. 10's 17.7x, Fig. 11's >20x).
	ThroughputDisparity Kind = "throughput-disparity"
	// MetadataLoss: matched transfers with UNKNOWN or invalid endpoint
	// labels (Table 3).
	MetadataLoss Kind = "metadata-loss"
)

// Finding is one detected anomaly on one job.
type Finding struct {
	Kind    Kind
	PandaID int64
	// Severity is a unitless score in (0, ∞); 1.0 marks the detection
	// threshold, larger is worse. Findings are ranked by it.
	Severity float64
	Detail   string
}

// Detector inspects one matched job.
type Detector interface {
	Detect(m *core.Match) []Finding
}

// ThresholdDetector flags jobs whose queue-transfer fraction exceeds
// Fraction (default 0.75, the paper's extreme-population cut).
type ThresholdDetector struct {
	Fraction float64
}

// Detect implements Detector.
func (d ThresholdDetector) Detect(m *core.Match) []Finding {
	th := d.Fraction
	if th == 0 {
		th = 0.75
	}
	frac := m.QueueTransferFraction()
	if frac < th {
		return nil
	}
	return []Finding{{
		Kind:     ExcessiveTransferTime,
		PandaID:  m.Job.PandaID,
		Severity: frac / th,
		Detail: fmt.Sprintf("transfer time %.1f%% of queuing time (threshold %.0f%%)",
			100*frac, 100*th),
	}}
}

// RedundancyDetector flags duplicate transfers of the same file.
type RedundancyDetector struct{}

// Detect implements Detector.
func (RedundancyDetector) Detect(m *core.Match) []Finding {
	groups := core.FindRedundant(m)
	if len(groups) == 0 {
		return nil
	}
	var wasted int64
	dup := 0
	for _, g := range groups {
		for _, ev := range g.Events[1:] {
			wasted += ev.FileSize
			dup++
		}
	}
	return []Finding{{
		Kind:     RedundantTransfer,
		PandaID:  m.Job.PandaID,
		Severity: float64(dup),
		Detail: fmt.Sprintf("%d duplicate transfer(s), %s avoidable",
			dup, stats.FormatBytes(float64(wasted))),
	}}
}

// SpanDetector flags transfers crossing the job's execution start.
type SpanDetector struct{}

// Detect implements Detector.
func (SpanDetector) Detect(m *core.Match) []Finding {
	var out []Finding
	for _, ev := range m.Transfers {
		if ev.StartedAt < m.Job.StartTime && ev.EndedAt > m.Job.StartTime {
			overrun := (ev.EndedAt - m.Job.StartTime).Seconds()
			wall := m.Job.WallTime().Seconds()
			sev := 1.0
			if wall > 0 {
				sev = 1 + overrun/wall
			}
			out = append(out, Finding{
				Kind:     SpanningTransfer,
				PandaID:  m.Job.PandaID,
				Severity: sev,
				Detail: fmt.Sprintf("transfer of %s overran execution start by %.0fs",
					stats.FormatBytes(float64(ev.FileSize)), overrun),
			})
		}
	}
	return out
}

// SequentialDetector flags multi-file stage-ins with zero overlap, the
// bandwidth-under-utilization signature of Fig. 10.
type SequentialDetector struct {
	// MinFiles is the smallest set considered (default 3).
	MinFiles int
}

// Detect implements Detector.
func (d SequentialDetector) Detect(m *core.Match) []Finding {
	min := d.MinFiles
	if min == 0 {
		min = 3
	}
	downloads := make([]*records.TransferEvent, 0, len(m.Transfers))
	for _, ev := range m.Transfers {
		if ev.IsDownload {
			downloads = append(downloads, ev)
		}
	}
	if len(downloads) < min {
		return nil
	}
	sort.Slice(downloads, func(i, j int) bool { return downloads[i].StartedAt < downloads[j].StartedAt })
	for i := 1; i < len(downloads); i++ {
		if downloads[i].StartedAt < downloads[i-1].EndedAt {
			return nil // overlap: staging is (at least partly) parallel
		}
	}
	return []Finding{{
		Kind:     SequentialStaging,
		PandaID:  m.Job.PandaID,
		Severity: float64(len(downloads)) / float64(min),
		Detail:   fmt.Sprintf("%d files staged strictly one at a time", len(downloads)),
	}}
}

// DisparityDetector flags jobs whose transfers span a large throughput
// ratio (default 10x).
type DisparityDetector struct {
	MinRatio float64
}

// Detect implements Detector.
func (d DisparityDetector) Detect(m *core.Match) []Finding {
	min := d.MinRatio
	if min == 0 {
		min = 10
	}
	lo, hi := 0.0, 0.0
	for _, ev := range m.Transfers {
		if ev.ThroughputBps <= 0 {
			continue
		}
		if lo == 0 || ev.ThroughputBps < lo {
			lo = ev.ThroughputBps
		}
		if ev.ThroughputBps > hi {
			hi = ev.ThroughputBps
		}
	}
	if lo == 0 || hi/lo < min {
		return nil
	}
	return []Finding{{
		Kind:     ThroughputDisparity,
		PandaID:  m.Job.PandaID,
		Severity: hi / lo / min,
		Detail: fmt.Sprintf("throughput spread %.1fx (%s .. %s)",
			hi/lo, stats.FormatRate(lo), stats.FormatRate(hi)),
	}}
}

// MetadataDetector flags matched transfers with unresolvable endpoint
// labels, annotating how many are repairable by inference.
type MetadataDetector struct {
	Grid *topology.Grid
}

// Detect implements Detector.
func (d MetadataDetector) Detect(m *core.Match) []Finding {
	if d.Grid == nil {
		return nil
	}
	broken := 0
	for _, ev := range m.Transfers {
		_, srcOK := d.Grid.Site(ev.SourceSite)
		_, dstOK := d.Grid.Site(ev.DestinationSite)
		if !srcOK || !dstOK {
			broken++
		}
	}
	if broken == 0 {
		return nil
	}
	repairable := len(core.InferUnknownSites(m, d.Grid))
	return []Finding{{
		Kind:     MetadataLoss,
		PandaID:  m.Job.PandaID,
		Severity: float64(broken),
		Detail: fmt.Sprintf("%d transfer(s) with lost endpoint labels, %d repairable",
			broken, repairable),
	}}
}

// Scanner runs a detector set over a matching result.
type Scanner struct {
	detectors []Detector
}

// NewScanner builds a scanner running all six detectors with
// paper-calibrated thresholds.
func NewScanner(grid *topology.Grid) *Scanner {
	return &Scanner{detectors: []Detector{
		ThresholdDetector{},
		RedundancyDetector{},
		SpanDetector{},
		SequentialDetector{},
		DisparityDetector{},
		MetadataDetector{Grid: grid},
	}}
}

// Report is the outcome of one scan.
type Report struct {
	JobsScanned int
	Findings    []Finding
}

// Scan inspects every match and returns findings sorted by severity
// (descending), ties broken by pandaid for determinism.
func (s *Scanner) Scan(res *core.Result) *Report {
	r := &Report{JobsScanned: len(res.Matches)}
	for i := range res.Matches {
		m := &res.Matches[i]
		for _, d := range s.detectors {
			r.Findings = append(r.Findings, d.Detect(m)...)
		}
	}
	sort.Slice(r.Findings, func(a, b int) bool {
		if r.Findings[a].Severity != r.Findings[b].Severity {
			return r.Findings[a].Severity > r.Findings[b].Severity
		}
		if r.Findings[a].PandaID != r.Findings[b].PandaID {
			return r.Findings[a].PandaID < r.Findings[b].PandaID
		}
		return r.Findings[a].Kind < r.Findings[b].Kind
	})
	return r
}

// CountByKind tallies findings per anomaly kind.
func (r *Report) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, f := range r.Findings {
		out[f.Kind]++
	}
	return out
}

// AffectedJobs counts distinct jobs with at least one finding.
func (r *Report) AffectedJobs() int {
	seen := map[int64]bool{}
	for _, f := range r.Findings {
		seen[f.PandaID] = true
	}
	return len(seen)
}

// Top returns the k highest-severity findings.
func (r *Report) Top(k int) []Finding {
	if k > len(r.Findings) {
		k = len(r.Findings)
	}
	return r.Findings[:k]
}

// Table renders the scan summary plus the top findings.
func (r *Report) Table(topK int) *report.Table {
	t := &report.Table{
		Title:   "Automated anomaly scan",
		Columns: []string{"item", "value"},
	}
	t.AddRow("jobs scanned", fmt.Sprintf("%d", r.JobsScanned))
	t.AddRow("findings", fmt.Sprintf("%d", len(r.Findings)))
	t.AddRow("affected jobs", fmt.Sprintf("%d", r.AffectedJobs()))
	kinds := r.CountByKind()
	var keys []string
	for k := range kinds {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.AddRow("  "+k, fmt.Sprintf("%d", kinds[Kind(k)]))
	}
	for i, f := range r.Top(topK) {
		t.AddRow(fmt.Sprintf("top %d [%s]", i+1, f.Kind),
			fmt.Sprintf("job %d (sev %.2f): %s", f.PandaID, f.Severity, f.Detail))
	}
	return t
}
