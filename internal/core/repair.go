package core

import (
	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/topology"
)

// RepairStats summarizes a metadata-repair pass.
type RepairStats struct {
	// EventsExamined is the number of RM2-matched transfer events visited.
	EventsExamined int
	// LabelsRepaired counts endpoint labels rewritten from inference.
	LabelsRepaired int
	// ByDuplicate / BySiteCondition split LabelsRepaired by evidence class.
	ByDuplicate     int
	BySiteCondition int
}

// RepairStore implements the paper's "improving metadata completeness and
// consistency" direction: it applies the site-label inferences from an RM2
// matching pass and materializes a new store whose transfer events carry
// the reconstructed labels. The original store is untouched; job and file
// records are shared (they are immutable).
//
// Re-running the matcher on the repaired store quantifies the uplift:
// events whose only defect was a lost endpoint label become matchable by
// the stricter methods, "effectively converting uncertain cases into exact
// ones" (Section 5.4).
func RepairStore(store *metastore.Store, grid *topology.Grid, rm2 *Result) (*metastore.Store, RepairStats) {
	// Collect label fixes keyed by event id.
	type fix struct{ src, dst string }
	fixes := map[int64]fix{}
	var st RepairStats
	for i := range rm2.Matches {
		m := &rm2.Matches[i]
		st.EventsExamined += len(m.Transfers)
		for _, inf := range InferUnknownSites(m, grid) {
			f := fixes[inf.Event.EventID]
			switch inf.Field {
			case "source":
				f.src = inf.InferredSite
			case "destination":
				f.dst = inf.InferredSite
			}
			fixes[inf.Event.EventID] = f
			st.LabelsRepaired++
			if inf.Evidence == "duplicate" {
				st.ByDuplicate++
			} else {
				st.BySiteCondition++
			}
		}
	}

	// Clean RM2 result: nothing to rewrite, so skip the full store copy and
	// hand the caller's store back unchanged. The copy below exists only to
	// carry edited rows; with zero fixes it would burn O(store) time and
	// memory to produce a semantic clone.
	if len(fixes) == 0 {
		return store, st
	}

	repaired := metastore.NewShardedSegmented(store.ShardCount(), 0)
	jobs := store.Jobs(0, 1<<62, "")
	for _, j := range jobs {
		repaired.PutJob(j)
	}
	for _, ev := range store.Transfers(0, 0) {
		if f, ok := fixes[ev.EventID]; ok {
			cp := *ev
			if f.src != "" {
				cp.SourceSite = f.src
			}
			if f.dst != "" {
				cp.DestinationSite = f.dst
			}
			repaired.PutTransfer(&cp)
			continue
		}
		repaired.PutTransfer(ev)
	}
	// File records have no windowed accessor by design; re-derive them per
	// job through the job index. They go in after the transfers so every
	// row finds its candidate bucket already built when it is put; file
	// rows carry no ingestion sequence, so the order changes no result.
	for _, j := range jobs {
		for _, f := range store.FilesForJob(j.PandaID, j.JediTaskID) {
			repaired.PutFile(f)
		}
	}
	return repaired, st
}

// Uplift compares matching before and after repair for one method.
type Uplift struct {
	Method        Method
	Before, After *Result
	JobGain       int
	TransferGain  int
}

// MeasureUplift runs the full repair-and-rematch experiment: RM2-match the
// original store, repair it, and re-match with the given (stricter) method
// on both stores.
func MeasureUplift(store *metastore.Store, grid *topology.Grid, jobs []*records.JobRecord, method Method) (Uplift, RepairStats) {
	m := NewMatcher(store)
	rm2 := m.RunParallel(jobs, RM2, 1)
	repairedStore, st := RepairStore(store, grid, rm2)

	before := m.RunParallel(jobs, method, 1)
	after := NewMatcher(repairedStore).RunParallel(jobs, method, 1)
	return Uplift{
		Method:       method,
		Before:       before,
		After:        after,
		JobGain:      after.MatchedJobs - before.MatchedJobs,
		TransferGain: after.MatchedTransfers - before.MatchedTransfers,
	}, st
}
