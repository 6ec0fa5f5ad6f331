package core

import "panrucio/internal/records"

// matchJobReference is the original O(files × candidate-transfers) nested
// scan over the task's candidate list, retained as the oracle the indexed
// MatchJob is tested (and benchmarked) against. Candidate order is the
// ingestion order of the task bucket restricted per file row — exactly the
// order the per-file join-key probes produce — so the two implementations
// must return identical slices, not just identical sets.
//
// Like MatchJob, a transfer matched by more than one file row is kept
// once; the historical duplicate-append behavior inflated Exact's size sum
// and the match set.
func (m *Matcher) matchJobReference(j *records.JobRecord, method Method) []*records.TransferEvent {
	files := m.store.FilesForJob(j.PandaID, j.JediTaskID) // F'_j
	if len(files) == 0 {
		return nil
	}
	candidates := m.store.TransfersByTaskID(j.JediTaskID)
	if len(candidates) == 0 {
		return nil
	}
	var set []*records.TransferEvent
	for _, f := range files {
		for _, ev := range candidates {
			if ev.LFN != f.LFN || ev.Scope != f.Scope ||
				ev.Dataset != f.Dataset || ev.ProdDBlock != f.ProdDBlock {
				continue
			}
			if method == Exact && ev.FileSize != f.FileSize {
				continue
			}
			if containsEvent(set, ev.EventID) {
				continue
			}
			set = append(set, ev)
		}
	}
	return finalizeSet(j, method, set)
}

// runReference is the single-worker pass built on the reference matcher —
// the naive end-to-end path the benchmarks compare the indexed pipeline
// against.
func (m *Matcher) runReference(jobs []*records.JobRecord, method Method) *Result {
	agg := newAggregator(m, method)
	for _, j := range jobs {
		if evs := m.matchJobReference(j, method); len(evs) > 0 {
			agg.add(Match{Job: j, Transfers: evs})
		}
	}
	return agg.finish(len(jobs))
}
