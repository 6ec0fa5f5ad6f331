package topology

import "fmt"

// DefaultSpec controls the size of the generated default grid. The zero
// value is replaced by the paper-scale defaults in Default().
type DefaultSpec struct {
	// ExtraTier2 and ExtraTier3 pad the grid with generic sites beyond the
	// named exemplars, to approach the paper's 111-transfer-active sites.
	ExtraTier2 int
	ExtraTier3 int
}

// regionRoster enumerates the generic-site regions in a fixed order so grid
// construction is deterministic.
var regionRoster = []struct {
	region, country string
}{
	{"US-East", "USA"},
	{"US-Midwest", "USA"},
	{"US-West", "USA"},
	{"UK", "United Kingdom"},
	{"FR", "France"},
	{"DE", "Germany"},
	{"IT", "Italy"},
	{"ES", "Spain"},
	{"NorthEU", "Nordic"},
	{"EastEU", "Czechia"},
	{"CH", "Switzerland"},
	{"IL", "Israel"},
	{"JP", "Japan"},
	{"CA", "Canada"},
	{"AU", "Australia"},
	{"BR", "Brazil"},
	{"SI", "Slovenia"},
	{"TW", "Taiwan"},
}

// namedSites are the exemplar sites the paper's figures reference. The
// tier/region assignments mirror the paper: CERN Tier-0, BNL (NY, USA)
// Tier-1, NDGF (North Europe) Tier-1 — the dominant Fig. 3 outlier —
// plus the sites appearing in Figs. 7, 8 and the case studies.
var namedSites = []*Site{
	{Name: "CERN-PROD", Tier: Tier0, Region: "CH", Country: "Switzerland", CPUSlots: 9000, WANGbps: 400, LANGbps: 200},
	{Name: "BNL-ATLAS", Tier: Tier1, Region: "US-East", Country: "USA", CPUSlots: 6000, WANGbps: 200, LANGbps: 120},
	{Name: "NDGF-T1", Tier: Tier1, Region: "NorthEU", Country: "Nordic", CPUSlots: 5200, WANGbps: 200, LANGbps: 120},
	{Name: "RAL-LCG2", Tier: Tier1, Region: "UK", Country: "United Kingdom", CPUSlots: 4800, WANGbps: 160, LANGbps: 100},
	{Name: "IN2P3-CC", Tier: Tier1, Region: "FR", Country: "France", CPUSlots: 4500, WANGbps: 160, LANGbps: 100},
	{Name: "FZK-LCG2", Tier: Tier1, Region: "DE", Country: "Germany", CPUSlots: 4500, WANGbps: 160, LANGbps: 100},
	{Name: "INFN-T1", Tier: Tier1, Region: "IT", Country: "Italy", CPUSlots: 4000, WANGbps: 120, LANGbps: 100},
	{Name: "PIC", Tier: Tier1, Region: "ES", Country: "Spain", CPUSlots: 3000, WANGbps: 100, LANGbps: 80},
	{Name: "TRIUMF-LCG2", Tier: Tier1, Region: "CA", Country: "Canada", CPUSlots: 3000, WANGbps: 100, LANGbps: 80},
	{Name: "CERN-T2", Tier: Tier2, Region: "CH", Country: "Switzerland", CPUSlots: 2400, WANGbps: 100, LANGbps: 80},
	{Name: "LAPP-T2", Tier: Tier2, Region: "FR", Country: "France", CPUSlots: 2200, WANGbps: 80, LANGbps: 60},
	{Name: "AGLT2", Tier: Tier2, Region: "US-Midwest", Country: "USA", CPUSlots: 2000, WANGbps: 80, LANGbps: 60},
	{Name: "MWT2", Tier: Tier2, Region: "US-Midwest", Country: "USA", CPUSlots: 2200, WANGbps: 80, LANGbps: 60},
	{Name: "SIGNET", Tier: Tier2, Region: "SI", Country: "Slovenia", CPUSlots: 1200, WANGbps: 40, LANGbps: 40},
	{Name: "TOKYO-LCG2", Tier: Tier2, Region: "JP", Country: "Japan", CPUSlots: 1800, WANGbps: 60, LANGbps: 60},
	{Name: "MILANO-T2", Tier: Tier2, Region: "IT", Country: "Italy", CPUSlots: 1400, WANGbps: 40, LANGbps: 40},
	{Name: "TECHNION-T2", Tier: Tier2, Region: "IL", Country: "Israel", CPUSlots: 900, WANGbps: 30, LANGbps: 30},
	{Name: "SPRACE", Tier: Tier2, Region: "BR", Country: "Brazil", CPUSlots: 900, WANGbps: 20, LANGbps: 30},
	{Name: "UKI-NORTHGRID", Tier: Tier2, Region: "UK", Country: "United Kingdom", CPUSlots: 1600, WANGbps: 60, LANGbps: 50},
	{Name: "UKI-SOUTHGRID", Tier: Tier2, Region: "UK", Country: "United Kingdom", CPUSlots: 1400, WANGbps: 50, LANGbps: 50},
	{Name: "GENOVA-T3", Tier: Tier3, Region: "IT", Country: "Italy", CPUSlots: 300, WANGbps: 10, LANGbps: 20},
	{Name: "WEIZMANN-T3", Tier: Tier3, Region: "IL", Country: "Israel", CPUSlots: 250, WANGbps: 10, LANGbps: 20},
}

// Default builds the paper-scale grid: the named exemplar sites plus enough
// generic Tier-2/Tier-3 sites to reach ~120 sites, each with a disk RSE
// (Tier-0/1 additionally get tape). Construction is fully deterministic.
func Default(spec DefaultSpec) *Grid {
	if spec.ExtraTier2 == 0 {
		spec.ExtraTier2 = 68
	}
	if spec.ExtraTier3 == 0 {
		spec.ExtraTier3 = 30
	}
	sites := make([]*Site, 0, len(namedSites)+spec.ExtraTier2+spec.ExtraTier3)
	for _, s := range namedSites {
		c := *s // copy so callers can build multiple independent grids
		c.RSEs = nil
		sites = append(sites, &c)
	}
	for i := 0; i < spec.ExtraTier2; i++ {
		r := regionRoster[i%len(regionRoster)]
		sites = append(sites, &Site{
			Name:     fmt.Sprintf("T2-%s-%02d", r.region, i),
			Tier:     Tier2,
			Region:   r.region,
			Country:  r.country,
			CPUSlots: 600 + 90*(i%7),
			WANGbps:  20 + float64(i%5)*10,
			LANGbps:  30 + float64(i%4)*10,
		})
	}
	for i := 0; i < spec.ExtraTier3; i++ {
		r := regionRoster[(i*5+3)%len(regionRoster)]
		sites = append(sites, &Site{
			Name:     fmt.Sprintf("T3-%s-%02d", r.region, i),
			Tier:     Tier3,
			Region:   r.region,
			Country:  r.country,
			CPUSlots: 80 + 40*(i%4),
			WANGbps:  5 + float64(i%3)*5,
			LANGbps:  10 + float64(i%3)*10,
		})
	}
	var rses []*RSE
	for _, s := range sites {
		rses = append(rses, &RSE{
			Name:          s.Name + "_DATADISK",
			Site:          s.Name,
			Kind:          Disk,
			CapacityBytes: int64(s.CPUSlots) * 40e9,
		})
		if s.Tier == Tier0 || s.Tier == Tier1 {
			rses = append(rses, &RSE{
				Name:          s.Name + "_MCTAPE",
				Site:          s.Name,
				Kind:          Tape,
				CapacityBytes: int64(s.CPUSlots) * 400e9,
			})
		}
	}
	g, err := NewGrid(sites, rses)
	if err != nil {
		// The generated roster is static and valid by construction.
		panic(err)
	}
	return g
}

// LinkGbps returns the nominal bandwidth of the directed link src→dst in
// gigabits per second. Local (same-site) movement uses the LAN rate; remote
// movement is bounded by the smaller WAN endpoint, discounted for
// inter-region distance. Links to or from unknown endpoints get a modest
// default so corrupted metadata still corresponds to simulable transfers.
func LinkGbps(g *Grid, src, dst string) float64 {
	ss, _ := g.Site(src)
	ds, _ := g.Site(dst)
	return linkGbps(ss, ds, src == dst)
}

// SiteLinkGbps is LinkGbps over site indices (SiteIndex, RSESite), where
// len(Sites()) stands for every endpoint outside the grid.
func (g *Grid) SiteLinkGbps(src, dst int) float64 {
	return linkGbps(g.siteAt(src), g.siteAt(dst), src == dst)
}

// siteAt returns site i, or nil for an index outside Sites().
func (g *Grid) siteAt(i int) *Site {
	if i >= 0 && i < len(g.sites) {
		return g.sites[i]
	}
	return nil
}

// linkGbps is the LinkGbps rule over resolved endpoints (nil when unknown);
// same reports whether the two endpoints are one site.
func linkGbps(ss, ds *Site, same bool) float64 {
	if same {
		if ss != nil {
			return ss.LANGbps
		}
		return 10
	}
	if ss == nil || ds == nil {
		return 5
	}
	bw := ss.WANGbps
	if ds.WANGbps < bw {
		bw = ds.WANGbps
	}
	if ss.Region != ds.Region {
		bw *= 0.35 // inter-region paths share trans-continental capacity
	}
	if bw < 1 {
		bw = 1
	}
	return bw
}
