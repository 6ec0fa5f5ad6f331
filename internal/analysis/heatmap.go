package analysis

import (
	"fmt"
	"sort"
	"unsafe"

	"panrucio/internal/metastore"
	"panrucio/internal/report"
	"panrucio/internal/simtime"
	"panrucio/internal/stats"
	"panrucio/internal/topology"
)

// Heatmap is the Fig. 3 site×site transfer matrix: Cell[i][j] holds the
// total bytes moved from site axis i to site axis j over the window (axis
// order is the grid's, with UNKNOWN last).
type Heatmap struct {
	Grid   *topology.Grid
	Labels []string
	Cells  [][]float64

	TotalBytes   float64
	LocalBytes   float64 // diagonal sum
	UnknownBytes float64 // any cell on the UNKNOWN row or column
	MeanCell     float64 // arithmetic mean over all site pairs
	GeoMeanCell  float64 // geometric mean over positive cells
}

// HeatmapCellStat is one outlier cell.
type HeatmapCellStat struct {
	Src, Dst string
	Bytes    float64
	Local    bool
}

// BuildHeatmap accumulates transfer volume per directed site pair within
// [from, to). It reads the raw event stream — like the paper's Fig. 3, it
// does not require matching — through the metastore's StartedAt index, so
// narrow windows only touch the events they contain. Endpoints resolve to
// axes through a siteResolver, so each distinct label string costs one
// Grid.SiteIndex lookup rather than one per event.
func BuildHeatmap(store *metastore.Store, grid *topology.Grid, from, to simtime.VTime) *Heatmap {
	n := grid.NumAxes()
	h := &Heatmap{Grid: grid, Cells: make([][]float64, n)}
	for i := range h.Cells {
		h.Cells[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		h.Labels = append(h.Labels, grid.AxisLabel(i))
	}
	sites := siteResolver{grid: grid}
	for _, ev := range store.Transfers(from, to) {
		i := sites.axis(ev.SourceSite)
		j := sites.axis(ev.DestinationSite)
		b := float64(ev.FileSize)
		h.Cells[i][j] += b
		h.TotalBytes += b
		if i == j {
			h.LocalBytes += b
		}
		if i == n-1 || j == n-1 {
			h.UnknownBytes += b
		}
	}
	var flat []float64
	for i := range h.Cells {
		flat = append(flat, h.Cells[i]...)
	}
	h.MeanCell = stats.Mean(flat)
	h.GeoMeanCell = stats.GeoMean(flat)
	return h
}

// siteResolver answers grid.SiteIndex for the endpoint strings of one
// BuildHeatmap call from a fixed direct-mapped table keyed by each string's
// identity: its data pointer and its length. Go strings are immutable, so
// two strings with the same pointer and length hold the same bytes, and a
// slot can only answer what SiteIndex would. A string not in its slot —
// seen for the first time, or evicted by another identity hashing there —
// falls back to SiteIndex and takes the slot, so the answers never depend
// on how the producer built its strings; only the hit rate does. The
// metastore interns endpoint labels at ingest, so a window's events share
// a few hundred backings and nearly every lookup hits.
//
// Slots hold the data pointer as a *byte, not a uintptr, so the collector
// keeps every keyed backing alive while the table exists and no address
// can be reused by another string of the same length.
type siteResolver struct {
	grid  *topology.Grid
	slots [1 << resolverBits]resolverSlot
}

// resolverBits sizes the table at 512 slots, over twice the 215 distinct
// endpoint identities of PaperConfig(7)'s study window.
const resolverBits = 9

type resolverSlot struct {
	data *byte
	n    int
	axis int
}

// axis is grid.SiteIndex(s). A string with no data pointer (the zero
// string) never hits: an empty slot would otherwise answer axis 0.
func (r *siteResolver) axis(s string) int {
	p := unsafe.StringData(s)
	e := &r.slots[resolverSlotOf(p, len(s))]
	if e.data == p && e.n == len(s) && p != nil {
		return e.axis
	}
	*e = resolverSlot{data: p, n: len(s), axis: r.grid.SiteIndex(s)}
	return e.axis
}

// resolverSlotOf spreads a string identity over the table by Fibonacci
// hashing: the top resolverBits bits of (pointer + length) times 2^64/φ.
func resolverSlotOf(p *byte, n int) uint64 {
	return (uint64(uintptr(unsafe.Pointer(p))) + uint64(n)) * 0x9E3779B97F4A7C15 >> (64 - resolverBits)
}

// LocalFraction is diagonal volume over total (paper: 737.85/957.98 PB).
func (h *Heatmap) LocalFraction() float64 {
	if h.TotalBytes == 0 {
		return 0
	}
	return h.LocalBytes / h.TotalBytes
}

// TopCells returns the k largest cells in descending volume order.
func (h *Heatmap) TopCells(k int) []HeatmapCellStat {
	var all []HeatmapCellStat
	for i := range h.Cells {
		for j, b := range h.Cells[i] {
			if b > 0 {
				all = append(all, HeatmapCellStat{
					Src: h.Labels[i], Dst: h.Labels[j], Bytes: b, Local: i == j,
				})
			}
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Bytes != all[b].Bytes {
			return all[a].Bytes > all[b].Bytes
		}
		return all[a].Src+all[a].Dst < all[b].Src+all[b].Dst
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// ActiveSites counts sites (excluding UNKNOWN) that appear in at least one
// transfer (the paper's "111 sites recorded file transfers").
func (h *Heatmap) ActiveSites() int {
	n := len(h.Labels)
	active := 0
	for i := 0; i < n-1; i++ {
		seen := false
		for j := 0; j < n; j++ {
			if h.Cells[i][j] > 0 || h.Cells[j][i] > 0 {
				seen = true
				break
			}
		}
		if seen {
			active++
		}
	}
	return active
}

// Report renders the Fig. 3 summary statistics and top outlier cells.
func (h *Heatmap) Report(topK int) *report.Table {
	t := &report.Table{
		Title:   "Fig. 3 — site-to-site transfer volume",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("total volume", stats.FormatBytes(h.TotalBytes))
	t.AddRow("local (diagonal) volume", stats.FormatBytes(h.LocalBytes))
	t.AddRow("local fraction", fmt.Sprintf("%.1f%%", 100*h.LocalFraction()))
	t.AddRow("unknown row/col volume", stats.FormatBytes(h.UnknownBytes))
	t.AddRow("mean cell", stats.FormatBytes(h.MeanCell))
	t.AddRow("geometric mean cell", stats.FormatBytes(h.GeoMeanCell))
	t.AddRow("active sites", fmt.Sprintf("%d", h.ActiveSites()))
	for i, c := range h.TopCells(topK) {
		kind := "remote"
		if c.Local {
			kind = "local"
		}
		t.AddRow(fmt.Sprintf("outlier %d (%s)", i+1, kind),
			fmt.Sprintf("%s -> %s: %s", c.Src, c.Dst, stats.FormatBytes(c.Bytes)))
	}
	return t
}
