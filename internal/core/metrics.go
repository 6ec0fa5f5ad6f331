package core

import "panrucio/internal/obs"

// Process-wide matcher metrics. The probe counter moves once per matching
// pass (by its job count) and once per direct MatchJob call, so no worker
// touches it per job; pass and worker timings are recorded once per
// matching pass and once per worker goroutine respectively, so a scrape
// shows both how many passes ran and how evenly the contiguous job ranges
// balanced them.
var (
	mMatchProbes = obs.Default().Counter("core_match_probes_total",
		"MatchJob probes (jobs evaluated, across all methods and matchers)")
	mMatchPasses = obs.Default().Counter("core_match_passes_total",
		"full matching passes (one RunParallel call)")
	mMatchPassSeconds = obs.Default().Histogram("core_match_pass_seconds",
		"wall time of one full matching pass", obs.DefBuckets)
	mMatchWorkerSeconds = obs.Default().Histogram("core_match_worker_seconds",
		"wall time of one worker's share of a matching pass", obs.DefBuckets)
)
