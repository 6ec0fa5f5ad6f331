package rucio_test

import (
	"testing"

	"panrucio/internal/panda"
	"panrucio/internal/rucio"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// capturePolicy brokers like DataLocalityPolicy and keeps the System, so
// the test can reach the run's Rucio instance once the run is over.
type capturePolicy struct{ sys *panda.System }

func (p *capturePolicy) Name() string { return "data-locality-capture" }

func (p *capturePolicy) Choose(j *panda.Job, s *panda.System, rng *simtime.RNG) string {
	p.sys = s
	return panda.DataLocalityPolicy{}.Choose(j, s, rng)
}

// referenceSource is source selection over names: walk the sorted-name
// FileRSEs, score each RSE through its site name, keep the first best with
// a strict >. tied reports whether another RSE shares the best score.
func referenceSource(g *topology.Grid, c *rucio.Catalog, f *rucio.FileInfo, dstSite string) (best string, ok, tied bool) {
	rses := c.FileRSEs(f)
	if len(rses) == 0 {
		return "", false, false
	}
	bestScore := -1.0
	for _, name := range rses {
		site := topology.UnknownSite
		x, ok := g.RSE(name)
		if ok {
			site = x.Site
		}
		score := topology.LinkGbps(g, site, dstSite)
		if site == dstSite {
			score += 1e6
			if ok && x.Kind == topology.Tape {
				score -= 5e5
			}
		}
		switch {
		case score > bestScore:
			best, bestScore, tied = name, score, false
		case score == bestScore:
			tied = true
		}
	}
	return best, true, tied
}

// TestChooseSourceMatchesNameOracle checks source selection for every
// catalogued file of a finished QuickConfig run against every destination
// site (and the UNKNOWN pseudo-site).
func TestChooseSourceMatchesNameOracle(t *testing.T) {
	cfg := sim.QuickConfig(5)
	p := &capturePolicy{}
	cfg.Panda.Broker = p
	sim.Run(cfg)
	if p.sys == nil {
		t.Fatal("no job was brokered")
	}
	grid, ruc := p.sys.Grid(), p.sys.Rucio()
	cat := ruc.Catalog()
	dsts := []string{topology.UnknownSite}
	for _, s := range grid.Sites() {
		dsts = append(dsts, s.Name)
	}
	files, ties := cat.Files(), 0
	for _, f := range files {
		for _, dst := range dsts {
			got, gotOK := ruc.ChooseSource(f, dst)
			want, wantOK, tied := referenceSource(grid, cat, f, dst)
			if got != want || gotOK != wantOK {
				t.Fatalf("%s to %s: chooseSource (%q, %v), oracle (%q, %v)", f.LFN, dst, got, gotOK, want, wantOK)
			}
			if tied {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Error("no selection had tied sources: the tie rule went unexercised")
	}
	t.Logf("%d files × %d destinations checked, %d with tied sources", len(files), len(dsts), ties)
}
