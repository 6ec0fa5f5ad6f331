package topology

import (
	"fmt"
	"sort"
)

// Tier is the WLCG tier of a computing site (Section 2.1 of the paper).
type Tier int

// WLCG tiers. Tier-0 is CERN; Tier-1 are national labs; Tier-2 are
// universities; Tier-3 are small local facilities.
const (
	Tier0 Tier = iota
	Tier1
	Tier2
	Tier3
)

func (t Tier) String() string {
	switch t {
	case Tier0:
		return "Tier-0"
	case Tier1:
		return "Tier-1"
	case Tier2:
		return "Tier-2"
	case Tier3:
		return "Tier-3"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// UnknownSite is the pseudo-site name used when metadata records lose their
// source or destination label. The paper's Fig. 3 aggregates such transfers
// into a dedicated "unknown" row/column (site index 101 in the paper).
const UnknownSite = "UNKNOWN"

// StorageKind distinguishes disk from tape endpoints.
type StorageKind int

// Storage kinds. Tape RSEs add staging latency in the Rucio substrate.
const (
	Disk StorageKind = iota
	Tape
)

func (k StorageKind) String() string {
	if k == Tape {
		return "TAPE"
	}
	return "DISK"
}

// RSE is a Rucio Storage Element: a logical storage endpoint at a site.
type RSE struct {
	Name string
	Site string
	Kind StorageKind
	// CapacityBytes is advisory; the simulator does not enforce quota but
	// the rebalancing daemon uses it to decide where secondary replicas go.
	CapacityBytes int64
}

// Site is a WLCG computing site.
type Site struct {
	Name    string
	Tier    Tier
	Region  string // coarse geographic region, e.g. "CH", "US-East", "NorthEU"
	Country string
	// CPUSlots is the number of concurrently running payload jobs the site
	// sustains (its pilot pool size in PanDA terms).
	CPUSlots int
	// WANGbps is the site's nominal wide-area bandwidth in gigabits/s.
	WANGbps float64
	// LANGbps is the nominal storage-to-worker LAN bandwidth in gigabits/s;
	// local "transfers" (stage-in from the site RSE to the worker node) are
	// bounded by this.
	LANGbps float64
	RSEs    []string
}

// Grid is an immutable site catalog with index lookups. Build one with
// NewGrid; the Default() constructor produces the 120-site topology used by
// all experiments.
type Grid struct {
	sites   []*Site
	rses    []*RSE
	byName  map[string]*Site
	rseByNm map[string]*RSE
	order   map[string]int // site name -> stable index (heatmap axes)

	// primary caches each site's primary RSE, fixed at construction (RSE
	// membership never changes after NewGrid).
	primary map[string]*RSE // site name -> its primary RSE

	// Per-RSE tables indexed by position in rses, so the models' replica
	// walks map an RSE id to its site without hashing a name: rseSite[i]
	// is the site index holding RSE i, and primaryFor[i] the index of the
	// site whose primary RSE is RSE i, or -1.
	rseSite    []int
	primaryFor []int
}

// NewGrid builds a grid from a site list. Site names must be unique; RSE
// names must be unique and reference existing sites.
func NewGrid(sites []*Site, rses []*RSE) (*Grid, error) {
	g := &Grid{
		byName:  make(map[string]*Site, len(sites)),
		rseByNm: make(map[string]*RSE, len(rses)),
		order:   make(map[string]int, len(sites)+1),
	}
	for _, s := range sites {
		if s.Name == "" {
			return nil, fmt.Errorf("topology: site with empty name")
		}
		if s.Name == UnknownSite {
			return nil, fmt.Errorf("topology: %q is reserved", UnknownSite)
		}
		if _, dup := g.byName[s.Name]; dup {
			return nil, fmt.Errorf("topology: duplicate site %q", s.Name)
		}
		g.byName[s.Name] = s
		g.sites = append(g.sites, s)
	}
	for _, r := range rses {
		if _, dup := g.rseByNm[r.Name]; dup {
			return nil, fmt.Errorf("topology: duplicate RSE %q", r.Name)
		}
		site, ok := g.byName[r.Site]
		if !ok {
			return nil, fmt.Errorf("topology: RSE %q references unknown site %q", r.Name, r.Site)
		}
		site.RSEs = append(site.RSEs, r.Name)
		g.rseByNm[r.Name] = r
		g.rses = append(g.rses, r)
	}
	for i, s := range g.sites {
		g.order[s.Name] = i
	}
	g.order[UnknownSite] = len(g.sites)
	g.primary = make(map[string]*RSE, len(g.sites))
	for _, s := range g.sites {
		if r, ok := g.findPrimaryRSE(s); ok {
			g.primary[s.Name] = r
		}
	}
	g.rseSite = make([]int, len(g.rses))
	g.primaryFor = make([]int, len(g.rses))
	for i, r := range g.rses {
		g.rseSite[i] = g.order[r.Site]
		g.primaryFor[i] = -1
		if g.primary[r.Site] == r {
			g.primaryFor[i] = g.rseSite[i]
		}
	}
	return g, nil
}

// findPrimaryRSE is the construction-time scan behind the primary cache:
// the site's first disk RSE, or its first RSE of any kind.
func (g *Grid) findPrimaryRSE(s *Site) (*RSE, bool) {
	for _, rn := range s.RSEs {
		r := g.rseByNm[rn]
		if r.Kind == Disk {
			return r, true
		}
	}
	if len(s.RSEs) > 0 {
		return g.rseByNm[s.RSEs[0]], true
	}
	return nil, false
}

// Sites returns all sites in stable index order.
func (g *Grid) Sites() []*Site { return g.sites }

// RSEs returns all storage elements in stable index order: an RSE's
// position here is its id in RSESite, PrimaryFor and the Rucio catalog.
func (g *Grid) RSEs() []*RSE { return g.rses }

// RSESite returns the index of the site holding RSE i (an index into
// RSEs()); any other i maps to the UNKNOWN axis, like an unrecognized name
// in SiteIndex.
func (g *Grid) RSESite(i int) int {
	if i >= 0 && i < len(g.rseSite) {
		return g.rseSite[i]
	}
	return len(g.sites)
}

// PrimaryFor returns the index of the site whose primary RSE is RSE i, or
// -1 when RSE i is primary for no site (or i is not an RSE index) — the
// inverse of PrimaryRSE, used to attribute a file's replicas to sites.
func (g *Grid) PrimaryFor(i int) int {
	if i >= 0 && i < len(g.primaryFor) {
		return g.primaryFor[i]
	}
	return -1
}

// Site looks up a site by name; ok is false for unknown names (including
// the UNKNOWN pseudo-site, which is not a real site).
func (g *Grid) Site(name string) (*Site, bool) {
	s, ok := g.byName[name]
	return s, ok
}

// RSE looks up a storage element by name.
func (g *Grid) RSE(name string) (*RSE, bool) {
	r, ok := g.rseByNm[name]
	return r, ok
}

// SiteIndex returns the stable axis index for a site name; the UNKNOWN
// pseudo-site maps to len(Sites()). Unrecognized names also map to the
// UNKNOWN index, mirroring the paper's aggregation of unidentified
// endpoints.
func (g *Grid) SiteIndex(name string) int {
	if i, ok := g.order[name]; ok {
		return i
	}
	return g.order[UnknownSite]
}

// NumAxes returns the number of heatmap axes: all sites plus UNKNOWN.
func (g *Grid) NumAxes() int { return len(g.sites) + 1 }

// AxisLabel returns the display label for axis index i.
func (g *Grid) AxisLabel(i int) string {
	if i >= 0 && i < len(g.sites) {
		return g.sites[i].Name
	}
	return UnknownSite
}

// PrimaryRSE returns the first disk RSE of a site (every generated site has
// one), or ok=false for sites without storage. Served from the
// construction-time cache.
func (g *Grid) PrimaryRSE(site string) (*RSE, bool) {
	r, ok := g.primary[site]
	return r, ok
}

// SitesByTier returns the names of all sites of the given tier, sorted.
func (g *Grid) SitesByTier(t Tier) []string {
	var out []string
	for _, s := range g.sites {
		if s.Tier == t {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TotalCPUSlots sums CPU slots over all sites.
func (g *Grid) TotalCPUSlots() int {
	total := 0
	for _, s := range g.sites {
		total += s.CPUSlots
	}
	return total
}
