package metastore_test

import (
	"reflect"
	"testing"

	"panrucio/internal/metastore"
	"panrucio/internal/metastore/storetest"
	"panrucio/internal/records"
)

// The fuzzed put streams and flattening helpers live in the shared
// storetest package; these tests pin the frozen (batch) query path, the
// cut-point suite in cutpoint_test.go pins the live one.

func ingestFrozen(st *storetest.Stream, s *metastore.Store) {
	st.Ingest(s)
	s.Freeze()
}

var (
	evValues  = storetest.EvValues
	jobValues = storetest.JobValues
)

// TestShardCountEquivalence is the core invariant of the sharded store:
// every query surface returns byte-identical results for any shard count.
func TestShardCountEquivalence(t *testing.T) {
	st := storetest.Make(42, 4000)
	ref := metastore.NewShardedSegmented(1, 0)
	ingestFrozen(st, ref)

	for _, n := range []int{4, 8} {
		s := metastore.NewShardedSegmented(n, 0)
		ingestFrozen(st, s)

		if s.ShardCount() != n {
			t.Fatalf("ShardCount() = %d, want %d", s.ShardCount(), n)
		}
		if s.JobCount() != ref.JobCount() || s.FileCount() != ref.FileCount() ||
			s.TransferCount() != ref.TransferCount() ||
			s.TransfersWithTaskID() != ref.TransfersWithTaskID() {
			t.Fatalf("shards=%d: counts diverged", n)
		}
		if !reflect.DeepEqual(s.TaskTransfersByActivity(), ref.TaskTransfersByActivity()) {
			t.Errorf("shards=%d: TaskTransfersByActivity diverged", n)
		}

		// Full and windowed time-ranged queries, with and without label.
		if !reflect.DeepEqual(evValues(s.Transfers(0, 0)), evValues(ref.Transfers(0, 0))) {
			t.Fatalf("shards=%d: Transfers(0,0) diverged", n)
		}
		if !reflect.DeepEqual(evValues(s.Transfers(5, 15)), evValues(ref.Transfers(5, 15))) {
			t.Errorf("shards=%d: windowed Transfers diverged", n)
		}
		for _, label := range []records.SourceLabel{"", records.LabelUser, records.LabelManaged} {
			if !reflect.DeepEqual(jobValues(s.Jobs(0, 100, label)), jobValues(ref.Jobs(0, 100, label))) {
				t.Errorf("shards=%d: Jobs(label=%q) diverged", n, label)
			}
		}

		// Point and per-task probes over the whole key space of the stream.
		for panda := int64(0); panda < 40; panda++ {
			sj, sok := s.Job(panda)
			rj, rok := ref.Job(panda)
			if sok != rok || (sok && *sj != *rj) {
				t.Fatalf("shards=%d: Job(%d) diverged", n, panda)
			}
			for task := int64(0); task < 17; task++ {
				sf, rf := s.FilesForJob(panda, task), ref.FilesForJob(panda, task)
				if len(sf) != len(rf) {
					t.Fatalf("shards=%d: FilesForJob(%d,%d) diverged", n, panda, task)
				}
				for i := range sf {
					if *sf[i] != *rf[i] {
						t.Fatalf("shards=%d: FilesForJob(%d,%d)[%d] diverged", n, panda, task, i)
					}
				}
				se, re := s.JoinEntriesForJob(panda, task), ref.JoinEntriesForJob(panda, task)
				if len(se) != len(re) {
					t.Fatalf("shards=%d: JoinEntriesForJob(%d,%d) diverged", n, panda, task)
				}
				for i := range se {
					if *se[i].File != *re[i].File ||
						!reflect.DeepEqual(evValues(se[i].Candidates()), evValues(re[i].Candidates())) {
						t.Fatalf("shards=%d: JoinEntriesForJob(%d,%d)[%d] diverged", n, panda, task, i)
					}
				}
			}
		}
		for task := int64(0); task < 17; task++ {
			if !reflect.DeepEqual(evValues(s.TransfersByTaskID(task)), evValues(ref.TransfersByTaskID(task))) {
				t.Errorf("shards=%d: TransfersByTaskID(%d) diverged", n, task)
			}
		}
	}
}

// TestResetClearsInternTable is the string-leak contract: a reused store
// must not pin one scenario's strings (or symbols) through the next.
func TestResetClearsInternTable(t *testing.T) {
	s := metastore.NewShardedSegmented(4, 0)
	st := storetest.Make(7, 500)
	ingestFrozen(st, s)
	if s.InternedStrings() == 0 {
		t.Fatal("ingest interned nothing")
	}
	s.Reset()
	if got := s.InternedStrings(); got != 0 {
		t.Fatalf("Reset left %d interned strings", got)
	}
	if s.JobCount() != 0 || s.FileCount() != 0 || s.TransferCount() != 0 ||
		s.TransfersWithTaskID() != 0 {
		t.Fatal("Reset left records behind")
	}
	if len(s.Transfers(0, 0)) != 0 || len(s.Jobs(0, 1<<40, "")) != 0 {
		t.Fatal("Reset left indexed entries behind")
	}
}

// TestResetReusedStoreMatchesFresh replays scenario B on a store dirtied by
// scenario A; every query surface must match a fresh store that only ever
// saw B.
func TestResetReusedStoreMatchesFresh(t *testing.T) {
	a, b := storetest.Make(1, 3000), storetest.Make(2, 3000)

	fresh := metastore.NewShardedSegmented(4, 0)
	ingestFrozen(b, fresh)

	reused := metastore.NewShardedSegmented(4, 0)
	ingestFrozen(a, reused)
	reused.Reset()
	ingestFrozen(b, reused)

	if reused.InternedStrings() != fresh.InternedStrings() {
		t.Errorf("interned strings diverged after reuse: %d vs %d",
			reused.InternedStrings(), fresh.InternedStrings())
	}
	if !reflect.DeepEqual(evValues(reused.Transfers(0, 0)), evValues(fresh.Transfers(0, 0))) {
		t.Fatal("Transfers diverged after reuse")
	}
	if !reflect.DeepEqual(jobValues(reused.Jobs(0, 100, "")), jobValues(fresh.Jobs(0, 100, ""))) {
		t.Fatal("Jobs diverged after reuse")
	}
	for panda := int64(0); panda < 40; panda++ {
		for task := int64(0); task < 17; task++ {
			re, fe := reused.JoinEntriesForJob(panda, task), fresh.JoinEntriesForJob(panda, task)
			if len(re) != len(fe) {
				t.Fatalf("JoinEntriesForJob(%d,%d) diverged after reuse", panda, task)
			}
			for i := range re {
				if *re[i].File != *fe[i].File ||
					!reflect.DeepEqual(evValues(re[i].Candidates()), evValues(fe[i].Candidates())) {
					t.Fatalf("JoinEntriesForJob(%d,%d)[%d] diverged after reuse", panda, task, i)
				}
			}
		}
	}
}

// TestPutCopiesRecords pins the arena-copy semantics: the store must not
// retain the caller's pointers, so producers may reuse their structs.
func TestPutCopiesRecords(t *testing.T) {
	s := metastore.New()
	ev := records.TransferEvent{EventID: 1, LFN: "f", Scope: "s", Dataset: "d", ProdDBlock: "p", JediTaskID: 3, StartedAt: 5}
	s.PutTransfer(&ev)
	ev.LFN = "clobbered"
	ev.EventID = 999
	got := s.TransfersByTaskID(3)
	if len(got) != 1 || got[0].LFN != "f" || got[0].EventID != 1 {
		t.Fatalf("store aliased the caller's record: %+v", got[0])
	}

	j := records.JobRecord{PandaID: 9, JediTaskID: 3, EndTime: 4}
	s.PutJob(&j)
	j.PandaID = 1000
	if stored, ok := s.Job(9); !ok || stored.PandaID != 9 {
		t.Fatal("store aliased the caller's job record")
	}
}
