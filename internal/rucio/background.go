package rucio

import (
	"fmt"

	"panrucio/internal/records"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// BackgroundConfig tunes the non-job data-management traffic: Tier-0
// export, inter-site rebalancing, intra-site consolidation (tape/disk
// movement, the source of Fig. 3's huge diagonal cells), and user
// subscriptions. Every interval is a mean exponential inter-arrival time;
// zero fields take defaults.
type BackgroundConfig struct {
	ExportInterval        simtime.VTime // T0 -> Tier-1 export bursts (default 1800s)
	RebalanceInterval     simtime.VTime // cross-site rebalancing (default 1200s)
	ConsolidationInterval simtime.VTime // same-site tape<->disk (default 600s)
	SubscriptionInterval  simtime.VTime // user-driven replication (default 2400s)

	// Dataset shape for rebalancing traffic: file count is
	// 1+Poisson(MeanFiles-1); file sizes are LogNormal(SizeMu, SizeSigma)
	// bytes with a Pareto tail. The other activities use scaled profiles
	// derived from this one (consolidation bulky and heavy-tailed,
	// subscriptions tiny), which is what produces Fig. 3's five-orders-of-
	// magnitude spread between the mean and geometric-mean cell volumes.
	MeanFiles int     // default 6
	SizeMu    float64 // default log(2.5 GB)
	SizeSigma float64 // default 0.9
}

// Scaled returns the config with defaults filled and the background event
// rate multiplied by f (every mean inter-arrival interval shrinks by f).
// f <= 0 or 1 only fills defaults. Dataset shape is left alone: scaling
// grows the number of movements, not their size.
func (c BackgroundConfig) Scaled(f float64) BackgroundConfig {
	c.fill()
	if f <= 0 || f == 1 {
		return c
	}
	for _, iv := range []*simtime.VTime{
		&c.ExportInterval, &c.RebalanceInterval, &c.ConsolidationInterval, &c.SubscriptionInterval,
	} {
		scaled := simtime.VTime(float64(*iv) / f)
		if scaled < 1 {
			scaled = 1
		}
		*iv = scaled
	}
	return c
}

func (c *BackgroundConfig) fill() {
	if c.ExportInterval == 0 {
		c.ExportInterval = 1800
	}
	if c.RebalanceInterval == 0 {
		c.RebalanceInterval = 1200
	}
	if c.ConsolidationInterval == 0 {
		c.ConsolidationInterval = 600
	}
	if c.SubscriptionInterval == 0 {
		c.SubscriptionInterval = 2400
	}
	if c.MeanFiles == 0 {
		c.MeanFiles = 6
	}
	if c.SizeMu == 0 {
		c.SizeMu = 21.64 // ln(2.5e9)
	}
	if c.SizeSigma == 0 {
		c.SizeSigma = 0.9
	}
}

// sizeProfile shapes one activity's dataset generation.
type sizeProfile struct {
	meanFiles int
	mu, sigma float64
	tailProb  float64
	tailScale float64
	tailAlpha float64
}

// profiles derives the per-activity dataset shapes from the config.
func (c *BackgroundConfig) profiles() (export, rebalance, consolidate, subscribe sizeProfile) {
	rebalance = sizeProfile{
		meanFiles: (2*c.MeanFiles + 2) / 3, mu: c.SizeMu - 0.3, sigma: c.SizeSigma,
		tailProb: 0.02, tailScale: 20e9, tailAlpha: 1.2,
	}
	export = sizeProfile{
		meanFiles: 2 * c.MeanFiles, mu: c.SizeMu + 0.7, sigma: c.SizeSigma,
		tailProb: 0.04, tailScale: 30e9, tailAlpha: 1.1,
	}
	// Consolidation is the bulk tape/disk movement behind the paper's
	// >30 PB diagonal outliers: many large files, fat Pareto tail.
	consolidate = sizeProfile{
		meanFiles: 4 * c.MeanFiles, mu: c.SizeMu + 2.1, sigma: c.SizeSigma + 0.1,
		tailProb: 0.12, tailScale: 60e9, tailAlpha: 1.05,
	}
	// Subscriptions are small user requests scattered across many site
	// pairs — they populate Fig. 3's sea of tiny cells and keep the
	// geometric-mean cell volume orders of magnitude below the mean.
	subscribe = sizeProfile{
		meanFiles: 2, mu: c.SizeMu - 1.2, sigma: c.SizeSigma - 0.1,
		tailProb: 0.005, tailScale: 10e9, tailAlpha: 1.4,
	}
	return
}

// Background drives the non-job transfer activities. It accounts for most
// of the grid's byte volume, matching the paper's observation that only a
// small fraction of transfer events is job-correlated.
type Background struct {
	r    *Rucio
	cfg  BackgroundConfig
	rng  *simtime.RNG
	next int64

	t1s []string
	t2s []string

	// consolidationWeight concentrates intra-site traffic at Tier-0/1
	// sites, with NDGF-T1 dominating — reproducing Fig. 3's 446 PB
	// diagonal outlier at the North-Europe Tier-1.
	consolidationSites   []string
	consolidationWeights []float64
}

// StartBackground installs the background daemons on the engine and returns
// the driver. Traffic generation stops at the engine horizon.
func StartBackground(r *Rucio, rng *simtime.RNG, cfg BackgroundConfig) *Background {
	cfg.fill()
	b := &Background{r: r, cfg: cfg, rng: rng}
	b.t1s = r.grid.SitesByTier(topology.Tier1)
	b.t2s = r.grid.SitesByTier(topology.Tier2)
	for _, s := range r.grid.Sites() {
		var w float64
		switch {
		case s.Name == "NDGF-T1":
			w = 60 // the paper's dominant diagonal outlier
		case s.Tier == topology.Tier0:
			w = 14
		case s.Tier == topology.Tier1:
			w = 6
		case s.Tier == topology.Tier2:
			w = 0.7
		default:
			w = 0.1
		}
		b.consolidationSites = append(b.consolidationSites, s.Name)
		b.consolidationWeights = append(b.consolidationWeights, w)
	}
	b.loop(cfg.ExportInterval, b.export)
	b.loop(cfg.RebalanceInterval, b.rebalance)
	b.loop(cfg.ConsolidationInterval, b.consolidate)
	b.loop(cfg.SubscriptionInterval, b.subscribe)
	return b
}

func (b *Background) loop(mean simtime.VTime, fn func()) {
	var tick func()
	tick = func() {
		fn()
		b.r.eng.After(b.rng.VExp(mean), tick)
	}
	b.r.eng.After(b.rng.VExp(mean), tick)
}

// makeDataset creates a fresh background dataset with replicas available at
// srcRSE, and returns its files.
func (b *Background) makeDataset(prefix, srcRSE string, p sizeProfile) []*FileInfo {
	b.next++
	name := fmt.Sprintf("ops.%s.%08d", prefix, b.next)
	ds, err := b.r.catalog.CreateDataset("ops", name)
	if err != nil {
		return nil
	}
	n := 1 + b.rng.Poisson(float64(p.meanFiles-1))
	for i := 0; i < n; i++ {
		size := int64(b.rng.LogNormal(p.mu, p.sigma))
		if b.rng.Bool(p.tailProb) {
			size = int64(b.rng.Pareto(p.tailScale, p.tailAlpha)) // very large file
		}
		if size < 1e6 {
			size = 1e6
		}
		f := &FileInfo{
			LFN:        FileName(name, int64(i), 6, ".root"),
			Scope:      "ops",
			Dataset:    name,
			ProdDBlock: name,
			Size:       size,
		}
		if err := b.r.catalog.AddFile(f); err != nil {
			continue
		}
		b.r.catalog.SetReplica(f, srcRSE, ReplicaAvailable)
	}
	return ds.Files
}

func rseOf(g *topology.Grid, site string) (string, bool) {
	r, ok := g.PrimaryRSE(site)
	if !ok {
		return "", false
	}
	return r.Name, true
}

// export ships freshly recorded data from the Tier-0 to a Tier-1.
func (b *Background) export() {
	if len(b.t1s) == 0 {
		return
	}
	src, ok := rseOf(b.r.grid, "CERN-PROD")
	if !ok {
		return
	}
	dstSite := b.t1s[b.rng.Intn(len(b.t1s))]
	dst, ok := rseOf(b.r.grid, dstSite)
	if !ok {
		return
	}
	exportP, _, _, _ := b.cfg.profiles()
	files := b.makeDataset("export", src, exportP)
	b.r.EnsureReplicas(files, dst, records.TierExport, 0, nil)
}

// rebalance moves a dataset between two distinct sites.
func (b *Background) rebalance() {
	pool := append(append([]string{}, b.t1s...), b.t2s...)
	if len(pool) < 2 {
		return
	}
	si := b.rng.Intn(len(pool))
	di := b.rng.Intn(len(pool))
	if si == di {
		di = (di + 1) % len(pool)
	}
	src, okS := rseOf(b.r.grid, pool[si])
	dst, okD := rseOf(b.r.grid, pool[di])
	if !okS || !okD {
		return
	}
	_, rebalanceP, _, _ := b.cfg.profiles()
	files := b.makeDataset("rebalance", src, rebalanceP)
	b.r.EnsureReplicas(files, dst, records.DataRebalancing, 0, nil)
}

// consolidate performs intra-site movement (tape staging / disk
// consolidation): source and destination site coincide, producing the
// heavy diagonal of Fig. 3.
func (b *Background) consolidate() {
	site := b.consolidationSites[b.rng.Choice(b.consolidationWeights)]
	s, ok := b.r.grid.Site(site)
	if !ok || len(s.RSEs) == 0 {
		return
	}
	// Prefer tape->disk when the site has tape; otherwise disk->disk
	// (represented as a same-RSE-pair LAN move through the site link).
	var srcRSE string
	for _, rn := range s.RSEs {
		if x, _ := b.r.grid.RSE(rn); x != nil && x.Kind == topology.Tape {
			srcRSE = rn
			break
		}
	}
	dst, okD := rseOf(b.r.grid, site)
	if !okD {
		return
	}
	if srcRSE == "" {
		srcRSE = dst
	}
	_, _, consolidateP, _ := b.cfg.profiles()
	files := b.makeDataset("consolidate", srcRSE, consolidateP)
	if srcRSE == dst {
		// Same-RSE consolidation still moves bytes over the site LAN; model
		// it as a pilot-style local fetch so events are emitted.
		b.r.PilotFetch(files, site, records.DataConsolidation, 0, nil)
		return
	}
	b.r.EnsureReplicas(files, dst, records.DataConsolidation, 0, nil)
}

// subscribe replicates a small dataset to an arbitrary site on user demand.
func (b *Background) subscribe() {
	sites := b.r.grid.Sites()
	src := sites[b.rng.Intn(len(sites))].Name
	dstSite := sites[b.rng.Intn(len(sites))].Name
	srcRSE, okS := rseOf(b.r.grid, src)
	dstRSE, okD := rseOf(b.r.grid, dstSite)
	if !okS || !okD || srcRSE == dstRSE {
		return
	}
	_, _, _, subscribeP := b.cfg.profiles()
	files := b.makeDataset("subs", srcRSE, subscribeP)
	b.r.EnsureReplicas(files, dstRSE, records.UserSubscription, 0, nil)
}
