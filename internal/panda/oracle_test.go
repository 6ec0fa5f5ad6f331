package panda_test

import (
	"math"
	"testing"

	"panrucio/internal/panda"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
)

// oraclePolicy brokers exactly like DataLocalityPolicy, first checking the
// id-based brokerage internals of every job against the string API.
type oraclePolicy struct {
	t          *testing.T
	jobs, ties int
}

func (p *oraclePolicy) Name() string { return "data-locality-oracle" }

func (p *oraclePolicy) Choose(j *panda.Job, s *panda.System, rng *simtime.RNG) string {
	p.jobs++
	names := s.SiteNames()
	bySite := s.InputBytesBySite(j)
	for i, name := range names {
		if want := s.InputBytesAt(j, name); bySite[i] != want {
			p.t.Fatalf("job %d: per-site slice[%d] = %d, InputBytesAt(%s) = %d", j.PandaID, i, bySite[i], name, want)
		}
	}
	// The data-locality argmax through the string API, first site winning
	// ties.
	want, bestScore, atBest := "", 0.0, 0
	for _, name := range names {
		bytes := s.InputBytesAt(j, name)
		if bytes == 0 {
			continue
		}
		pressure := 1 + float64(s.SiteBacklog(name))/math.Max(1, float64(s.SiteSlots(name)))
		switch score := float64(bytes) / pressure; {
		case score > bestScore:
			want, bestScore, atBest = name, score, 1
		case score == bestScore:
			atBest++
		}
	}
	if atBest > 1 {
		p.ties++
	}
	got := ""
	if i := s.BestDataSite(j); i >= 0 {
		got = names[i]
	}
	if got != want {
		p.t.Fatalf("job %d: data-locality site %q, string-API argmax %q", j.PandaID, got, want)
	}
	return panda.DataLocalityPolicy{}.Choose(j, s, rng)
}

// TestBrokerageMatchesStringOracle runs a seeded QuickConfig world with
// every brokerage checked by oraclePolicy. The oracle draws exactly what
// the default policy draws, so the run must also equal the default run.
func TestBrokerageMatchesStringOracle(t *testing.T) {
	cfg := sim.QuickConfig(5)
	base := sim.Run(cfg)
	p := &oraclePolicy{t: t}
	cfg.Panda.Broker = p
	res := sim.Run(cfg)
	if p.jobs != int(res.SubmittedJobs) || p.jobs == 0 {
		t.Fatalf("oracle saw %d brokerages for %d submitted jobs", p.jobs, res.SubmittedJobs)
	}
	if p.ties == 0 {
		t.Error("no brokerage had tied sites: the tie rule went unexercised")
	}
	if res.SubmittedJobs != base.SubmittedJobs || res.StoredEvents != base.StoredEvents ||
		res.FinishedJobs != base.FinishedJobs || res.MovedBytes != base.MovedBytes {
		t.Errorf("oracle run diverged from the default run: %+v vs %+v", res, base)
	}
	t.Logf("%d brokerages checked, %d with tied sites", p.jobs, p.ties)
}
