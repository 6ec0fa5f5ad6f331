package core

import (
	"runtime"
	"sort"
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
// Each worker takes one contiguous range of the job slice and streams its
// matches into one aggregator; the merged matches are sorted by pandaid,
// so the output is identical for any worker count. workers == 1 is the
// degenerate case that runs inline with no goroutines or channel. Ranges
// need no pre-pass over the jobs: which worker evaluates a job changes no
// result, because the aggregator is order-insensitive and finish imposes
// the pandaid order. The pass adds len(jobs) to core_match_probes_total
// once, at its end, rather than one atomic add per job on a cache line
// every worker shares.
//
// workers <= 0 selects GOMAXPROCS.
func (m *Matcher) RunParallel(jobs []*records.JobRecord, method Method, workers int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	passStart := time.Now()
	defer func() {
		mMatchProbes.Add(int64(len(jobs)))
		mMatchPasses.Inc()
		mMatchPassSeconds.ObserveSince(passStart)
	}()
	agg := newAggregator(m, method)

	if workers <= 1 {
		t0 := time.Now()
		for i, j := range jobs {
			if evs := m.matchJob(j, method); len(evs) > 0 {
				agg.add(i, Match{Job: j, Transfers: evs})
			}
		}
		mMatchWorkerSeconds.ObserveSince(t0)
		return agg.finish(len(jobs))
	}

	matches := make(chan indexedMatch, 4*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(jobs)/workers, (w+1)*len(jobs)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				if evs := m.matchJob(jobs[i], method); len(evs) > 0 {
					matches <- indexedMatch{i, Match{Job: jobs[i], Transfers: evs}}
				}
			}
			mMatchWorkerSeconds.ObserveSince(t0)
		}()
	}
	go func() {
		wg.Wait()
		close(matches)
	}()
	for im := range matches {
		agg.add(im.idx, im.match)
	}
	return agg.finish(len(jobs))
}

// indexedMatch tags a match with its job's position in the input slice so
// aggregation can order deterministically regardless of arrival order.
type indexedMatch struct {
	idx   int
	match Match
}

// aggregator is the one shared accounting routine of the pipeline: it
// consumes matches in any arrival order (every Result field it maintains
// is order-insensitive) and defers the deterministic ordering of Matches
// — by pandaid, input position breaking ties (duplicate pandaid rows are
// legal) — to finish.
type aggregator struct {
	res  *Result
	idxs []int          // input position of each match, for the tie-break
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

func (a *aggregator) add(idx int, match Match) {
	a.res.Matches = append(a.res.Matches, match)
	a.idxs = append(a.idxs, idx)
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

func (a *aggregator) finish(totalJobs int) *Result {
	a.res.TotalJobs = totalJobs
	sort.Sort(&byPandaThenInput{a.res.Matches, a.idxs})
	return a.res
}

// byPandaThenInput sorts matches by pandaid with the input position as the
// tie-break, keeping the match slice and its position tags in lockstep.
type byPandaThenInput struct {
	matches []Match
	idxs    []int
}

func (s *byPandaThenInput) Len() int { return len(s.matches) }
func (s *byPandaThenInput) Less(i, k int) bool {
	if a, b := s.matches[i].Job.PandaID, s.matches[k].Job.PandaID; a != b {
		return a < b
	}
	return s.idxs[i] < s.idxs[k]
}
func (s *byPandaThenInput) Swap(i, k int) {
	s.matches[i], s.matches[k] = s.matches[k], s.matches[i]
	s.idxs[i], s.idxs[k] = s.idxs[k], s.idxs[i]
}
