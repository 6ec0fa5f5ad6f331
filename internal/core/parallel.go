package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"time"

	"panrucio/internal/records"
)

// RunParallel applies one strategy to a job set and aggregates the
// outcome, with the per-job matching fanned out across workers — the
// parallelization the paper's limitations section singles out as the path
// to full-scale analysis ("any future systematic and scalable analysis
// designs, such as parallelization, will be especially valuable").
// Workers read only the join entries, file rows, task buckets and counts
// the store builds at ingest — no time index — so they share the store as
// it is, frozen or live, as long as no put runs beside the pass.
//
// Each worker takes one contiguous range of the job slice and appends its
// matches to a slice of its own; one aggregator then reads the slices in
// range order, that is in input order, and finish stable-sorts them by
// pandaid, so Matches are in (pandaid, input position) order for any
// worker count. Ranges need no pre-pass over the jobs: which worker
// evaluates a job changes no result. The pass adds len(jobs) to
// core_match_probes_total once, at its end, rather than one atomic add
// per job on a cache line every worker shares.
//
// workers <= 0 selects GOMAXPROCS.
func (m *Matcher) RunParallel(jobs []*records.JobRecord, method Method, workers int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	passStart := time.Now()
	defer func() {
		mMatchProbes.Add(int64(len(jobs)))
		mMatchPasses.Inc()
		mMatchPassSeconds.ObserveSince(passStart)
	}()

	parts := make([][]Match, workers)
	var wg sync.WaitGroup
	for w := range parts {
		lo, hi := w*len(jobs)/workers, (w+1)*len(jobs)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for _, j := range jobs[lo:hi] {
				if evs := m.matchJob(j, method); len(evs) > 0 {
					parts[w] = append(parts[w], Match{Job: j, Transfers: evs})
				}
			}
			mMatchWorkerSeconds.ObserveSince(t0)
		}()
	}
	wg.Wait()
	agg := newAggregator(m, method)
	for _, part := range parts {
		for _, match := range part {
			agg.add(match)
		}
	}
	return agg.finish(len(jobs))
}

// aggregator is the one shared accounting routine of the pipeline: it
// consumes matches in input order (every Result field it maintains but
// Matches is order-insensitive) and defers the deterministic ordering of
// Matches — by pandaid, input position breaking ties (duplicate pandaid
// rows are legal) — to finish.
type aggregator struct {
	res  *Result
	seen map[int64]bool // event ids already counted in MatchedTransfers
}

func newAggregator(m *Matcher, method Method) *aggregator {
	return &aggregator{
		res: &Result{
			Method:              method,
			TotalTransfers:      m.store.TransferCount(),
			TransfersWithTaskID: m.store.TransfersWithTaskID(),
		},
		seen: make(map[int64]bool),
	}
}

func (a *aggregator) add(match Match) {
	a.res.Matches = append(a.res.Matches, match)
	a.res.MatchedJobs++
	for _, ev := range match.Transfers {
		if !a.seen[ev.EventID] {
			a.seen[ev.EventID] = true
			a.res.MatchedTransfers++
			if ev.IsLocal() {
				a.res.LocalTransfers++
			} else {
				a.res.RemoteTransfers++
			}
		}
	}
	switch match.Class() {
	case AllLocal:
		a.res.JobsAllLocal++
	case AllRemote:
		a.res.JobsAllRemote++
	default:
		a.res.JobsMixed++
	}
}

// finish stable-sorts the matches by pandaid: they arrived in input order,
// so rows sharing a pandaid keep it.
func (a *aggregator) finish(totalJobs int) *Result {
	a.res.TotalJobs = totalJobs
	slices.SortStableFunc(a.res.Matches, func(x, y Match) int {
		return cmp.Compare(x.Job.PandaID, y.Job.PandaID)
	})
	return a.res
}
