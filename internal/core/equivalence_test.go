package core

import (
	"fmt"
	"math/rand"
	"testing"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// fuzzStore fabricates a store with adversarial metadata: join keys shared
// across jobs and tasks, duplicate file rows inside one job, size jitter,
// unknown endpoints, late starts, wrong datasets, and noise events — the
// collisions the composite index must resolve exactly like the nested
// loop.
func fuzzStore(r *rand.Rand) (*metastore.Store, []*records.JobRecord) {
	store := metastore.New()
	sites := []string{"CERN-PROD", "BNL-ATLAS", "FZK-LCG2", topology.UnknownSite}
	scopes := []string{"data25", "mc23", "user.a"}
	datasets := []string{"ds0", "ds1", "ds2"}
	lfnPool := 12 // small pool so keys collide across rows and tasks

	var jobs []*records.JobRecord
	eventID := int64(1)
	for task := int64(1); task <= int64(1+r.Intn(4)); task++ {
		nJobs := 1 + r.Intn(5)
		for jn := 0; jn < nJobs; jn++ {
			site := sites[r.Intn(len(sites)-1)] // jobs never run at UNKNOWN
			j := &records.JobRecord{
				PandaID:       task*1000 + int64(jn),
				JediTaskID:    task,
				ComputingSite: site,
				Label:         records.LabelUser,
				CreationTime:  1000,
				StartTime:     simtime.VTime(2000 + r.Intn(2000)),
				EndTime:       simtime.VTime(8000 + r.Intn(4000)),
				Status:        records.JobFinished,
				TaskStatus:    records.TaskDone,
			}
			var inBytes int64
			nFiles := 1 + r.Intn(6)
			for fn := 0; fn < nFiles; fn++ {
				f := &records.FileRecord{
					PandaID:    j.PandaID,
					JediTaskID: task,
					LFN:        fmt.Sprintf("f%02d", r.Intn(lfnPool)),
					Scope:      scopes[r.Intn(len(scopes))],
					Dataset:    datasets[r.Intn(len(datasets))],
					ProdDBlock: datasets[r.Intn(len(datasets))],
					FileSize:   int64(1e9 + r.Intn(5)*1e8),
					Kind:       records.FileInput,
				}
				inBytes += f.FileSize
				store.PutFile(f)
				if r.Intn(4) == 0 { // duplicate row, same join key
					dup := *f
					store.PutFile(&dup)
				}
				for e := 0; e < r.Intn(3); e++ {
					ev := &records.TransferEvent{
						EventID:         eventID,
						LFN:             f.LFN,
						Scope:           f.Scope,
						Dataset:         f.Dataset,
						ProdDBlock:      f.ProdDBlock,
						FileSize:        f.FileSize,
						SourceSite:      sites[r.Intn(len(sites))],
						DestinationSite: site,
						Activity:        records.AnalysisDownload,
						IsDownload:      true,
						JediTaskID:      task,
						StartedAt:       simtime.VTime(1500 + r.Intn(12000)),
					}
					ev.EndedAt = ev.StartedAt + simtime.VTime(50+r.Intn(500))
					eventID++
					switch r.Intn(6) {
					case 0:
						ev.FileSize += int64(1 + r.Intn(20)) // jitter
					case 1:
						ev.DestinationSite = topology.UnknownSite
					case 2:
						ev.Dataset = "ds_broken"
					case 3:
						ev.JediTaskID = task + 100 // wrong task
					case 4:
						ev.IsDownload = false
						ev.IsUpload = true
						ev.SourceSite = site
					}
					store.PutTransfer(ev)
				}
			}
			if r.Intn(3) > 0 {
				j.NInputFileBytes = inBytes
			} else {
				j.NInputFileBytes = int64(r.Intn(int(2e10)))
			}
			store.PutJob(j)
			jobs = append(jobs, j)
		}
	}
	// Noise: task-carrying events no file row points at.
	for n := 0; n < r.Intn(10); n++ {
		store.PutTransfer(&records.TransferEvent{
			EventID: eventID, LFN: fmt.Sprintf("noise%d", n), Scope: "noise",
			Dataset: "noise", ProdDBlock: "noise", FileSize: 1,
			JediTaskID: int64(1 + r.Intn(5)), StartedAt: 2000, EndedAt: 2100,
			SourceSite: sites[0], DestinationSite: sites[1],
			Activity: records.AnalysisDownload, IsDownload: true,
		})
		eventID++
	}
	return store, jobs
}

func sameEvents(t *testing.T, label string, got, want []*records.TransferEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].EventID != want[i].EventID {
			t.Fatalf("%s: event %d is %d, reference has %d", label, i, got[i].EventID, want[i].EventID)
		}
	}
}

func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Method != want.Method || got.TotalJobs != want.TotalJobs ||
		got.TotalTransfers != want.TotalTransfers ||
		got.TransfersWithTaskID != want.TransfersWithTaskID ||
		got.MatchedJobs != want.MatchedJobs ||
		got.MatchedTransfers != want.MatchedTransfers ||
		got.LocalTransfers != want.LocalTransfers ||
		got.RemoteTransfers != want.RemoteTransfers ||
		got.JobsAllLocal != want.JobsAllLocal ||
		got.JobsAllRemote != want.JobsAllRemote ||
		got.JobsMixed != want.JobsMixed {
		t.Fatalf("%s: result counters diverge:\n got  %+v\n want %+v", label, got, want)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("%s: %d matches, reference has %d", label, len(got.Matches), len(want.Matches))
	}
	for i := range got.Matches {
		if got.Matches[i].Job.PandaID != want.Matches[i].Job.PandaID {
			t.Fatalf("%s: match %d is job %d, reference has %d",
				label, i, got.Matches[i].Job.PandaID, want.Matches[i].Job.PandaID)
		}
		sameEvents(t, fmt.Sprintf("%s match %d", label, i), got.Matches[i].Transfers, want.Matches[i].Transfers)
	}
}

// TestIndexedMatcherEquivalence fuzzes stores and asserts the indexed
// MatchJob and the RunParallel pipeline (workers 1 and 4) reproduce
// the nested-loop reference exactly, per job and in aggregate.
func TestIndexedMatcherEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		store, jobs := fuzzStore(r)
		m := NewMatcher(store)
		for _, method := range []Method{Exact, RM1, RM2} {
			for _, j := range jobs {
				sameEvents(t, fmt.Sprintf("seed %d %v job %d", seed, method, j.PandaID),
					m.MatchJob(j, method), m.matchJobReference(j, method))
			}
			ref := m.runReference(jobs, method)
			for _, workers := range []int{1, 4} {
				sameResult(t, fmt.Sprintf("seed %d %v RunParallel(%d)", seed, method, workers),
					m.RunParallel(jobs, method, workers), ref)
			}
		}
	}
}

// TestDuplicatePandaIDDeterministicOrder: the store legally retains
// duplicate-pandaid job rows, and the pipeline must order their matches by
// input position, identically for every worker count.
func TestDuplicatePandaIDDeterministicOrder(t *testing.T) {
	store := metastore.New()
	var jobs []*records.JobRecord
	for i := 0; i < 6; i++ {
		j := &records.JobRecord{
			PandaID: 1, JediTaskID: 7, ComputingSite: "CERN-PROD",
			Label: records.LabelUser, CreationTime: 1000, StartTime: 2000, EndTime: 5000,
		}
		store.PutJob(j)
		store.PutFile(&records.FileRecord{
			PandaID: 1, JediTaskID: 7, LFN: "in0", Scope: "data25",
			Dataset: "ds", ProdDBlock: "ds", FileSize: 3e9, Kind: records.FileInput,
		})
		jobs = append(jobs, j)
	}
	store.PutTransfer(&records.TransferEvent{
		EventID: 100, LFN: "in0", Scope: "data25", Dataset: "ds", ProdDBlock: "ds",
		FileSize: 3e9, SourceSite: "CERN-PROD", DestinationSite: "CERN-PROD",
		Activity: records.AnalysisDownload, IsDownload: true,
		JediTaskID: 7, StartedAt: 1100, EndedAt: 1300,
	})
	m := NewMatcher(store)
	want := m.RunParallel(jobs, RM1, 1)
	if want.MatchedJobs != 6 {
		t.Fatalf("MatchedJobs = %d, want all 6 duplicate rows", want.MatchedJobs)
	}
	for trial := 0; trial < 20; trial++ {
		got := m.RunParallel(jobs, RM1, 4)
		for i := range got.Matches {
			if got.Matches[i].Job != want.Matches[i].Job {
				t.Fatalf("trial %d: match %d is a different duplicate row than the one-worker pass's", trial, i)
			}
		}
	}
}

// TestDuplicateFileRowKeptOnce is the regression test for the historical
// duplicate-append bug: a transfer matched by two identical file rows was
// appended twice, doubling the Exact size sum (3e9+3e9 != 3e9) and
// spuriously unmatching the job.
func TestDuplicateFileRowKeptOnce(t *testing.T) {
	store := metastore.New()
	j := &records.JobRecord{
		PandaID: 1, JediTaskID: 7, ComputingSite: "CERN-PROD",
		Label: records.LabelUser, CreationTime: 1000, StartTime: 2000, EndTime: 5000,
		NInputFileBytes: 3e9,
	}
	store.PutJob(j)
	row := &records.FileRecord{
		PandaID: 1, JediTaskID: 7, LFN: "in0", Scope: "data25",
		Dataset: "ds", ProdDBlock: "ds", FileSize: 3e9, Kind: records.FileInput,
	}
	store.PutFile(row)
	dup := *row
	store.PutFile(&dup) // at-least-once ingestion duplicated the row
	store.PutTransfer(&records.TransferEvent{
		EventID: 100, LFN: "in0", Scope: "data25", Dataset: "ds", ProdDBlock: "ds",
		FileSize: 3e9, SourceSite: "CERN-PROD", DestinationSite: "CERN-PROD",
		Activity: records.AnalysisDownload, IsDownload: true,
		JediTaskID: 7, StartedAt: 1100, EndedAt: 1300,
	})
	m := NewMatcher(store)
	for _, method := range []Method{Exact, RM1, RM2} {
		got := m.MatchJob(j, method)
		if len(got) != 1 {
			t.Errorf("%v matched %d events through a duplicated file row, want exactly 1", method, len(got))
		}
	}
}
