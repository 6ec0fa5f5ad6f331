package experiments

import (
	"fmt"
	"strings"

	"panrucio/internal/analysis"
	"panrucio/internal/report"
	"panrucio/internal/sweep"
)

// Artifact is one experiment's result, built once and rendered by every
// surface: as text or CSV by cmd/analyze, as text by Suite.RenderAll, and
// as JSON inside the serving layer's body envelope. An entry sets the
// payloads its experiment has and leaves the rest empty.
type Artifact struct {
	Rates  []analysis.MethodRates `json:"rates,omitempty"`
	Table  *report.Table          `json:"table,omitempty"`
	Tables []*report.Table        `json:"tables,omitempty"`
	Series []*report.Series       `json:"series,omitempty"`
	Checks []analysis.Check       `json:"checks,omitempty"`
	Sweep  *sweep.Report          `json:"sweep,omitempty"`
	Note   string                 `json:"note,omitempty"`

	// SeriesTitle heads the text form of Series; a figure keeps its title
	// even when it has no series to plot.
	SeriesTitle string `json:"-"`
}

// seriesWidth is the sparkline width of every series block's text form.
const seriesWidth = 64

// Render returns the artifact's text form, with tables as CSV when csv is
// set: rates one value per line, the sweep report as Markdown, then the
// tables, the series block, one line per check and the note in
// parentheses.
func (a Artifact) Render(csv bool) string {
	var b strings.Builder
	for _, r := range a.Rates {
		fmt.Fprintf(&b, "%+v\n", r)
	}
	if a.Sweep != nil {
		b.WriteString(a.Sweep.Markdown())
	}
	table := func(t *report.Table) {
		if csv {
			b.WriteString(t.CSV())
		} else {
			b.WriteString(t.Render() + "\n")
		}
	}
	if a.Table != nil {
		table(a.Table)
	}
	for _, t := range a.Tables {
		table(t)
	}
	if a.SeriesTitle != "" {
		b.WriteString(report.RenderSeries(a.SeriesTitle, seriesWidth, a.Series) + "\n")
	}
	for _, c := range a.Checks {
		b.WriteString(c.String() + "\n")
	}
	if a.Note != "" {
		b.WriteString("(" + a.Note + ")\n")
	}
	return b.String()
}

// Entry is one experiment of the registry: its id and the one function
// that builds its artifact. Exactly one of Suite and Scenarios is set.
type Entry struct {
	ID string
	// Suite builds the artifact from a built suite, i.e. from one store.
	Suite func(*Suite) Artifact
	// Scenarios builds the artifact from scenarios of its own, run at the
	// seed; workers bounds the concurrent scenarios and never changes the
	// result.
	Scenarios func(seed int64, workers int) Artifact
	// Report marks the suite entries Suite.RenderAll concatenates: those
	// with a table, series or note form.
	Report bool
}

// Registry lists every experiment in E-number order, the paper's
// artifacts first: the one place an experiment is defined. cmd/analyze
// -exp, Suite.RenderAll and GET /api/experiments/{id} all render these
// entries. Tests may replace an entry's function but keep ids and order.
var Registry = []Entry{
	{ID: "summary", Report: true, Suite: func(s *Suite) Artifact { return Artifact{Table: s.SummaryTable()} }},
	{ID: "rates", Suite: func(s *Suite) Artifact { return Artifact{Rates: s.Cmp.Summary()} }},
	{ID: "fig2", Report: true, Suite: func(s *Suite) Artifact { return Artifact{Table: analysis.GrowthReport(s.Fig2())} }},
	{ID: "fig3", Report: true, Suite: func(s *Suite) Artifact { return Artifact{Table: s.Fig3().Report(6)} }},
	{ID: "table1", Report: true, Suite: func(s *Suite) Artifact { return Artifact{Table: analysis.ActivityTable(s.Table1())} }},
	{ID: "table2a", Report: true, Suite: func(s *Suite) Artifact { return Artifact{Table: s.Cmp.TransferCountTable()} }},
	{ID: "table2b", Report: true, Suite: func(s *Suite) Artifact { return Artifact{Table: s.Cmp.JobCountTable()} }},
	{ID: "fig5", Report: true, Suite: func(s *Suite) Artifact {
		return Artifact{Table: analysis.TopJobsTable("Fig. 5 — top local-transfer jobs (>=10% of queuing time)", s.Fig5())}
	}},
	{ID: "fig6", Report: true, Suite: func(s *Suite) Artifact {
		return Artifact{Table: analysis.TopJobsTable("Fig. 6 — top remote-transfer jobs (>=10% of queuing time)", s.Fig6())}
	}},
	{ID: "fig7", Report: true, Suite: func(s *Suite) Artifact {
		return Artifact{Series: s.Fig7(), SeriesTitle: "Fig. 7 — bandwidth at remote connections (matched transfers)"}
	}},
	{ID: "fig8", Report: true, Suite: func(s *Suite) Artifact {
		return Artifact{Series: s.Fig8(), SeriesTitle: "Fig. 8 — bandwidth at local sites (matched transfers)"}
	}},
	{ID: "fig9", Report: true, Suite: func(s *Suite) Artifact { return Artifact{Table: s.Fig9().Table()} }},
	{ID: "fig10", Report: true, Suite: func(s *Suite) Artifact { return caseStudy(s.Fig10()) }},
	{ID: "fig11", Report: true, Suite: func(s *Suite) Artifact { return caseStudy(s.Fig11()) }},
	{ID: "fig12", Report: true, Suite: func(s *Suite) Artifact { return caseStudy(s.Fig12()) }},
	{ID: "checks", Suite: func(s *Suite) Artifact {
		res := s.Result
		return Artifact{Checks: analysis.ShapeChecks(res.Store, res.Grid, res.WindowFrom, res.WindowTo, s.Cmp)}
	}},
	{ID: "anomaly", Report: true, Suite: func(s *Suite) Artifact { return Artifact{Table: s.Anomalies().Table(5)} }},
	{ID: "e14", Scenarios: func(seed int64, workers int) Artifact {
		return Artifact{Sweep: RobustnessSweep(seed, workers)}
	}},
	{ID: "e15", Scenarios: func(seed int64, workers int) Artifact {
		return Artifact{Sweep: DetectionSweep(seed, workers), Table: OnlineVerify(seed).Table()}
	}},
}

// caseStudy is the artifact of a Fig. 10–12 case study: its timeline, plus
// the transfer summary for the RM2 redundant case, or a note when the run
// holds no such case.
func caseStudy(cs *analysis.CaseStudy) Artifact {
	if cs == nil {
		return Artifact{Note: "case study not present for this seed"}
	}
	a := Artifact{Table: cs.TimelineTable()}
	if cs.Kind == "rm2-redundant" {
		a.Tables = []*report.Table{cs.TransferSummaryTable()}
	}
	return a
}

// registryIndex maps each id to its Registry position.
var registryIndex = func() map[string]int {
	m := make(map[string]int, len(Registry))
	for i, e := range Registry {
		m[e.ID] = i
	}
	return m
}()

// Lookup returns the registry entry with the given id.
func Lookup(id string) (Entry, bool) {
	i, ok := registryIndex[id]
	if !ok {
		return Entry{}, false
	}
	return Registry[i], true
}

// IDs lists the registry's ids in order.
func IDs() []string {
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	return ids
}
