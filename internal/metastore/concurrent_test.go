package metastore_test

import (
	"reflect"
	"sync"
	"testing"

	"panrucio/internal/core"
	"panrucio/internal/metastore"
	"panrucio/internal/metastore/storetest"
	"panrucio/internal/records"
)

// taskKey addresses one single-shard TaskTransfersByKey probe.
type taskKey struct {
	jedi int64
	key  metastore.JoinKey
}

// queryBaseline captures one serial pass over every read surface the
// serving layer depends on, flattened to comparable values.
type queryBaseline struct {
	jobs      []records.JobRecord
	window    []records.TransferEvent
	all       []records.TransferEvent
	byTask    map[int64][]records.TransferEvent
	matches   [][]int64 // per job row (Jobs order) -> RM2 event ids
	exact     [][]int64 // per job row (Jobs order) -> Exact event ids
	entries   []int     // per job row (Jobs order) -> join-entry count
	keyProbes map[taskKey][]records.TransferEvent
}

// snapshot runs the serial pass. The job set is re-queried rather than
// passed in so the baseline exercises the same call sequence the
// concurrent readers will.
func snapshot(s *metastore.Store) *queryBaseline {
	b := &queryBaseline{
		byTask:    map[int64][]records.TransferEvent{},
		keyProbes: map[taskKey][]records.TransferEvent{},
	}
	b.jobs = storetest.JobValues(s.Jobs(0, 20, ""))
	b.window = storetest.EvValues(s.Transfers(3, 30))
	b.all = storetest.EvValues(s.Transfers(0, 0))
	m := core.NewMatcher(s)
	for _, j := range s.Jobs(0, 20, "") {
		b.entries = append(b.entries, len(s.JoinEntriesForJob(j.PandaID, j.JediTaskID)))
		for _, f := range s.FilesForJob(j.PandaID, j.JediTaskID) {
			tk := taskKey{j.JediTaskID, metastore.FileKey(f)}
			b.keyProbes[tk] = storetest.EvValues(s.TaskTransfersByKey(tk.jedi, tk.key))
		}
		b.matches = append(b.matches, eventIDs(m.MatchJob(j, core.RM2)))
		b.exact = append(b.exact, eventIDs(m.MatchJob(j, core.Exact)))
		if _, seen := b.byTask[j.JediTaskID]; !seen {
			b.byTask[j.JediTaskID] = storetest.EvValues(s.TransfersByTaskID(j.JediTaskID))
		}
	}
	return b
}

func eventIDs(evs []*records.TransferEvent) []int64 {
	out := make([]int64, len(evs))
	for i, ev := range evs {
		out[i] = ev.EventID
	}
	return out
}

// hammer issues the full query surface from workers goroutines, each
// iters times, comparing every result against the serial baseline. With
// freeze set, every reader also calls Freeze on every iteration: on a
// frozen store that must write nothing, so it may run beside the other
// readers.
func hammer(t *testing.T, s *metastore.Store, base *queryBaseline, workers, iters int, freeze bool) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := core.NewMatcher(s)
			for it := 0; it < iters; it++ {
				if freeze {
					s.Freeze()
				}
				if got := storetest.JobValues(s.Jobs(0, 20, "")); !reflect.DeepEqual(got, base.jobs) {
					errs <- "Jobs diverged from serial baseline"
					return
				}
				if got := storetest.EvValues(s.Transfers(3, 30)); !reflect.DeepEqual(got, base.window) {
					errs <- "windowed Transfers diverged from serial baseline"
					return
				}
				if got := storetest.EvValues(s.Transfers(0, 0)); !reflect.DeepEqual(got, base.all) {
					errs <- "full Transfers diverged from serial baseline"
					return
				}
				for i, j := range s.Jobs(0, 20, "") {
					if got := len(s.JoinEntriesForJob(j.PandaID, j.JediTaskID)); got != base.entries[i] {
						errs <- "JoinEntriesForJob diverged from serial baseline"
						return
					}
					if got := eventIDs(m.MatchJob(j, core.RM2)); !reflect.DeepEqual(got, base.matches[i]) {
						errs <- "MatchJob(RM2) diverged from serial baseline"
						return
					}
					if got := eventIDs(m.MatchJob(j, core.Exact)); !reflect.DeepEqual(got, base.exact[i]) {
						errs <- "MatchJob(Exact) diverged from serial baseline"
						return
					}
				}
				for tk, want := range base.keyProbes {
					if got := storetest.EvValues(s.TaskTransfersByKey(tk.jedi, tk.key)); !reflect.DeepEqual(got, want) {
						errs <- "TaskTransfersByKey diverged from serial baseline"
						return
					}
				}
				for task, want := range base.byTask {
					if got := storetest.EvValues(s.TransfersByTaskID(task)); !reflect.DeepEqual(got, want) {
						errs <- "TransfersByTaskID diverged from serial baseline"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestConcurrentFrozenReads is the read-only concurrency regression test
// the serving layer depends on: N goroutines issue Jobs, Transfers,
// MatchJob, JoinEntriesForJob, TaskTransfersByKey, and TransfersByTaskID
// against one frozen store, each calling Freeze beside the others, and
// every result must be identical to the serial baseline. Run under -race
// in CI.
func TestConcurrentFrozenReads(t *testing.T) {
	stream := storetest.Make(42, 4000)
	s := metastore.NewShardedSegmented(8, 64)
	stream.Ingest(s)
	s.Freeze()
	hammer(t, s, snapshot(s), 8, 3, true)
}

// TestConcurrentLiveReads is the same hammer on an un-frozen store mid
// ingest (sealed segments + mutable tails): concurrent readers share the
// lazily built tail views through the atomic cache, and all answers must
// equal the serial baseline over the same ingested prefix. Ingest itself
// is quiescent while readers run — the single-writer contract the serve
// layer's epoch windows enforce.
func TestConcurrentLiveReads(t *testing.T) {
	stream := storetest.Make(43, 4000)
	s := metastore.NewShardedSegmented(4, 64)
	stream.IngestPrefix(s, (stream.Len()*2)/3)
	base := snapshot(s)
	hammer(t, s, base, 8, 2, false)

	// Advance the ingest frontier (invalidating the tail caches), then
	// hammer again at the new cut: the baseline must move with the data.
	stream.IngestRange(s, (stream.Len()*2)/3, stream.Len())
	base2 := snapshot(s)
	hammer(t, s, base2, 8, 2, false)
	if reflect.DeepEqual(base.all, base2.all) {
		t.Fatal("second cut ingested no new events; test is vacuous")
	}
}
