package metastore

import (
	"testing"

	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

func TestJobQueriesWindowAndLabel(t *testing.T) {
	s := New()
	s.PutJob(&records.JobRecord{PandaID: 3, EndTime: 50, Label: records.LabelUser})
	s.PutJob(&records.JobRecord{PandaID: 1, EndTime: 150, Label: records.LabelUser})
	s.PutJob(&records.JobRecord{PandaID: 2, EndTime: 150, Label: records.LabelManaged})
	s.PutJob(&records.JobRecord{PandaID: 4, EndTime: 250, Label: records.LabelUser})

	got := s.Jobs(100, 200, records.LabelUser)
	if len(got) != 1 || got[0].PandaID != 1 {
		t.Fatalf("windowed user jobs = %v", got)
	}
	all := s.Jobs(0, 1000, "")
	if len(all) != 4 {
		t.Fatalf("all jobs = %d", len(all))
	}
	// Sorted by pandaid.
	for i := 1; i < len(all); i++ {
		if all[i-1].PandaID >= all[i].PandaID {
			t.Fatal("jobs not sorted by pandaid")
		}
	}
	if _, ok := s.Job(2); !ok {
		t.Error("Job(2) lookup failed")
	}
	if _, ok := s.Job(99); ok {
		t.Error("phantom job")
	}
	if s.JobCount() != 4 {
		t.Error("JobCount wrong")
	}
}

func TestFilesForJobFiltersTask(t *testing.T) {
	s := New()
	s.PutFile(&records.FileRecord{PandaID: 10, JediTaskID: 1, LFN: "a"})
	s.PutFile(&records.FileRecord{PandaID: 10, JediTaskID: 2, LFN: "b"})
	s.PutFile(&records.FileRecord{PandaID: 11, JediTaskID: 1, LFN: "c"})
	got := s.FilesForJob(10, 1)
	if len(got) != 1 || got[0].LFN != "a" {
		t.Fatalf("FilesForJob = %v", got)
	}
	if s.FileCount() != 3 {
		t.Error("FileCount wrong")
	}
	if s.FilesForJob(99, 1) != nil {
		t.Error("phantom files")
	}
}

func TestTransferIndexes(t *testing.T) {
	s := New()
	s.PutTransfer(&records.TransferEvent{EventID: 1, LFN: "x", JediTaskID: 5, StartedAt: 10})
	s.PutTransfer(&records.TransferEvent{EventID: 2, LFN: "x", JediTaskID: 0, StartedAt: 20})
	s.PutTransfer(&records.TransferEvent{EventID: 3, LFN: "y", JediTaskID: 5, StartedAt: 30})

	if got := s.TransfersByTaskID(5); len(got) != 2 {
		t.Fatalf("TransfersByTaskID(5) = %d", len(got))
	}
	if s.TransfersWithTaskID() != 2 {
		t.Errorf("TransfersWithTaskID = %d", s.TransfersWithTaskID())
	}
	if got := s.Transfers(15, 35); len(got) != 2 {
		t.Fatalf("windowed transfers = %d", len(got))
	}
	if got := s.Transfers(0, 0); len(got) != 3 {
		t.Fatalf("all transfers = %d", len(got))
	}
	if s.TransferCount() != 3 {
		t.Error("TransferCount wrong")
	}
}

func TestJoinKeyIndices(t *testing.T) {
	s := New()
	key := JoinKey{LFN: "f1", Scope: "data25", Dataset: "ds", ProdDBlock: "pb"}
	mk := func(id, task int64) *records.TransferEvent {
		return &records.TransferEvent{
			EventID: id, LFN: key.LFN, Scope: key.Scope, Dataset: key.Dataset,
			ProdDBlock: key.ProdDBlock, JediTaskID: task,
			Activity: records.AnalysisDownload,
		}
	}
	s.PutTransfer(mk(1, 5))
	s.PutTransfer(mk(2, 5))
	s.PutTransfer(mk(3, 6))
	s.PutTransfer(mk(4, 0)) // no jeditaskid: excluded from the task index
	other := mk(5, 5)
	other.Dataset = "other"
	s.PutTransfer(other)

	got := s.TaskTransfersByKey(5, key)
	if len(got) != 2 || got[0].EventID != 1 || got[1].EventID != 2 {
		t.Fatalf("TaskTransfersByKey(5) = %v, want events 1,2 in ingestion order", got)
	}
	if got := s.TaskTransfersByKey(6, key); len(got) != 1 || got[0].EventID != 3 {
		t.Fatalf("TaskTransfersByKey(6) wrong: %v", got)
	}
	if got := s.TaskTransfersByKey(7, key); got != nil {
		t.Errorf("phantom task bucket: %v", got)
	}
	f := &records.FileRecord{LFN: key.LFN, Scope: key.Scope, Dataset: key.Dataset, ProdDBlock: key.ProdDBlock}
	if FileKey(f) != key || EventKey(mk(9, 1)) != key {
		t.Error("FileKey/EventKey disagree with the composite key")
	}
	counts := s.TaskTransfersByActivity()
	if counts[records.AnalysisDownload] != 4 {
		t.Errorf("TaskTransfersByActivity = %v, want 4 task-carrying downloads", counts)
	}
	counts[records.AnalysisDownload] = 99 // callers get a copy
	if s.TaskTransfersByActivity()[records.AnalysisDownload] != 4 {
		t.Error("TaskTransfersByActivity exposed internal state")
	}
}

func TestRangedQueriesMatchLinearScan(t *testing.T) {
	s := New()
	// StartedAt/EndTime values deliberately out of order and with ties.
	starts := []simtime.VTime{50, 10, 30, 30, 90, 70, 10, 60}
	for i, at := range starts {
		s.PutTransfer(&records.TransferEvent{EventID: int64(i + 1), StartedAt: at})
		s.PutJob(&records.JobRecord{PandaID: int64(i + 1), EndTime: at, Label: records.LabelUser})
	}
	windows := [][2]simtime.VTime{{0, 100}, {10, 30}, {30, 31}, {0, 10}, {95, 99}, {60, 50}}
	for _, w := range windows {
		from, to := w[0], w[1]
		var wantEv int
		for _, at := range starts {
			if at >= from && at < to {
				wantEv++
			}
		}
		if got := len(s.Transfers(from, to)); got != wantEv {
			t.Errorf("Transfers(%d,%d) = %d events, want %d", from, to, got, wantEv)
		}
		if got := len(s.Jobs(from, to, records.LabelUser)); got != wantEv {
			t.Errorf("Jobs(%d,%d) = %d jobs, want %d", from, to, got, wantEv)
		}
	}
	// Time-ordered output with ingestion-order ties.
	all := s.Transfers(0, 100)
	for i := 1; i < len(all); i++ {
		if all[i-1].StartedAt > all[i].StartedAt {
			t.Fatal("Transfers not ordered by StartedAt")
		}
		if all[i-1].StartedAt == all[i].StartedAt && all[i-1].EventID > all[i].EventID {
			t.Fatal("StartedAt ties not in ingestion order")
		}
	}
}

func TestFreezeThenIngestRebuildsIndices(t *testing.T) {
	s := New()
	s.PutTransfer(&records.TransferEvent{EventID: 1, StartedAt: 10, JediTaskID: 1})
	s.Freeze()
	if got := len(s.Transfers(0, 100)); got != 1 {
		t.Fatalf("pre-ingest window = %d", got)
	}
	// Ingest after freeze: the next ranged query must see the new event.
	s.PutTransfer(&records.TransferEvent{EventID: 2, StartedAt: 5, JediTaskID: 2})
	s.PutJob(&records.JobRecord{PandaID: 1, EndTime: 50})
	got := s.Transfers(0, 100)
	if len(got) != 2 || got[0].EventID != 2 {
		t.Fatalf("post-ingest window = %v, want re-sorted [2 1]", got)
	}
	if len(s.Jobs(0, 100, "")) != 1 {
		t.Error("job ingested after freeze not visible")
	}
	if s.TransfersWithTaskID() != 2 {
		t.Errorf("cached taskid counter = %d", s.TransfersWithTaskID())
	}
}

// TestRefreezeDoesNotCorruptHandedOutSlices: ranged-query results alias
// the sorted index, so a rebuild after further ingestion must build a
// fresh array rather than re-sorting under the caller's slice.
func TestRefreezeDoesNotCorruptHandedOutSlices(t *testing.T) {
	s := New()
	for i := 1; i <= 8; i++ {
		s.PutTransfer(&records.TransferEvent{EventID: int64(i), StartedAt: simtime.VTime(i * 10)})
	}
	window := s.Transfers(30, 60) // events 3,4,5
	if len(window) != 3 {
		t.Fatalf("window = %d events", len(window))
	}
	s.PutTransfer(&records.TransferEvent{EventID: 9, StartedAt: 5}) // re-sorts on next query
	_ = s.Transfers(0, 100)
	for i, want := range []int64{3, 4, 5} {
		if window[i].EventID != want {
			t.Fatalf("handed-out slice corrupted by re-freeze: window[%d] = event %d, want %d",
				i, window[i].EventID, want)
		}
	}
}

func TestDuplicatePandaIDKeepsBothRows(t *testing.T) {
	s := New()
	s.PutJob(&records.JobRecord{PandaID: 7, EndTime: 10, Label: records.LabelUser})
	s.PutJob(&records.JobRecord{PandaID: 7, EndTime: 20, Label: records.LabelUser})
	if s.JobCount() != 2 {
		t.Errorf("rows = %d, want at-least-once retention of both", s.JobCount())
	}
	j, ok := s.Job(7)
	if !ok || j.EndTime != 20 {
		t.Error("index should point at the latest ingest")
	}
	if got := s.Jobs(0, 100, records.LabelUser); len(got) != 2 {
		t.Errorf("windowed query returned %d rows", len(got))
	}
}

func TestResetReusesStoreAcrossScenarios(t *testing.T) {
	s := New()
	fill := func(n int) {
		for i := 1; i <= n; i++ {
			s.PutJob(&records.JobRecord{PandaID: int64(i), JediTaskID: 1, EndTime: simtime.VTime(i), Label: records.LabelUser})
			s.PutFile(&records.FileRecord{PandaID: int64(i), JediTaskID: 1, LFN: "f", Scope: "s", Dataset: "d"})
			s.PutTransfer(&records.TransferEvent{EventID: int64(i), JediTaskID: 1,
				LFN: "f", Scope: "s", Dataset: "d", StartedAt: simtime.VTime(i), Activity: records.AnalysisDownload})
		}
	}
	fill(5)
	s.Freeze()
	if len(s.JoinEntriesForJob(1, 1)) != 1 {
		t.Fatal("join entries missing before reset")
	}

	s.Reset()
	if s.JobCount() != 0 || s.FileCount() != 0 || s.TransferCount() != 0 || s.TransfersWithTaskID() != 0 {
		t.Fatalf("reset left records behind: %d/%d/%d", s.JobCount(), s.FileCount(), s.TransferCount())
	}
	if got := s.Jobs(0, 100, ""); len(got) != 0 {
		t.Fatalf("ranged query after reset returned %d jobs", len(got))
	}
	if got := s.TaskTransfersByActivity(); len(got) != 0 {
		t.Fatalf("activity counters survived reset: %v", got)
	}

	// The second scenario must be indistinguishable from a fresh store.
	fill(3)
	if s.TransferCount() != 3 || s.TransfersWithTaskID() != 3 {
		t.Fatalf("counts after refill: %d transfers, %d with task id", s.TransferCount(), s.TransfersWithTaskID())
	}
	if got := s.Jobs(0, 100, records.LabelUser); len(got) != 3 {
		t.Fatalf("jobs after refill = %d", len(got))
	}
	entries := s.JoinEntriesForJob(2, 1)
	if len(entries) != 1 || len(entries[0].Candidates()) != 3 {
		t.Fatalf("join entries after refill: %d entries", len(entries))
	}
}

// TestIngestCountersFlushAtSeal: the batched ingest counters flush
// whenever a put seals a tail and on Seal, so a scrape between checkpoints
// sees every row up to the last seal without any Freeze.
func TestIngestCountersFlushAtSeal(t *testing.T) {
	j0, f0, e0 := mJobsIngested.Value(), mFilesIngested.Value(), mTransfersIngested.Value()
	s := NewShardedSegmented(1, 8)
	for i := 1; i <= 20; i++ {
		s.PutFile(&records.FileRecord{PandaID: int64(i), JediTaskID: 1, LFN: "f"})
		s.PutTransfer(&records.TransferEvent{EventID: int64(i), JediTaskID: 1, LFN: "f", StartedAt: simtime.VTime(i)})
		s.PutJob(&records.JobRecord{PandaID: int64(i), JediTaskID: 1, EndTime: simtime.VTime(i)})
	}
	if got := s.SealedSegments(); got != 4 {
		t.Fatalf("%d sealed segments, want two threshold seals per arena", got)
	}
	// The 16th transfer sealed the events tail and the 16th job the jobs
	// tail: every row put before them has been published.
	counts := func() [3]int64 {
		return [3]int64{mJobsIngested.Value() - j0, mFilesIngested.Value() - f0, mTransfersIngested.Value() - e0}
	}
	if got := counts(); got != [3]int64{16, 16, 16} {
		t.Fatalf("jobs/files/transfers ingested after two seals = %v, want [16 16 16]", got)
	}
	s.Seal()
	if got := counts(); got != [3]int64{20, 20, 20} {
		t.Fatalf("jobs/files/transfers ingested after Seal = %v, want [20 20 20]", got)
	}
}
