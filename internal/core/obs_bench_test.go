package core

import (
	"testing"

	"panrucio/internal/obs"
)

// benchMatchObs is the matcher half of the observability overhead probe:
// the identical indexed matching pass with the metrics gate on or off. A
// pass counts its probes once and times itself and each worker, so the
// instrumentation costs a few atomic operations per pass; the on/off delta
// must stay <= 5% (recorded in bench/BENCH_obs.json).
func benchMatchObs(b *testing.B, enabled bool) {
	store, jobs := benchStore(50, 40, 8, 1)
	m := NewMatcher(store)
	obs.SetEnabled(enabled)
	defer obs.SetEnabled(true)
	b.ReportAllocs()
	b.ResetTimer()
	var matched int
	for i := 0; i < b.N; i++ {
		matched = m.Run(jobs, Exact).MatchedJobs
	}
	b.ReportMetric(float64(matched), "matched_jobs")
}

func BenchmarkMatchObsOn(b *testing.B)  { benchMatchObs(b, true) }
func BenchmarkMatchObsOff(b *testing.B) { benchMatchObs(b, false) }
