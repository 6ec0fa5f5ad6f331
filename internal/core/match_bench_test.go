package core

import (
	"fmt"
	"runtime"
	"testing"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// reportBytesPerEvent converts the pass's allocation churn into bytes per
// stored transfer event, the same memory axis BenchmarkSimulation reports,
// so matcher-side regressions are visible next to store-side wins. Call
// measureAllocs after ResetTimer and pass its result here after the loop.
func measureAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func reportBytesPerEvent(b *testing.B, before uint64, store *metastore.Store) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.ReportMetric(float64(m.TotalAlloc-before)/float64(b.N)/float64(store.TransferCount()), "B/event")
}

// benchStore builds a store shaped like the paper's workload: tasks whose
// candidate transfer lists grow with jobs-per-task × files-per-job, so the
// nested loop pays O(files × candidates) per job while the index pays
// O(files). One job in every candidateEvery has candidates: the other
// jobs' transfers carry an LFN no file row names, so they stay in their
// task's candidate list but match nothing, and the store holds the same
// rows for any share.
func benchStore(tasks, jobsPerTask, filesPerJob, candidateEvery int) (*metastore.Store, []*records.JobRecord) {
	store := metastore.New()
	var jobs []*records.JobRecord
	eventID := int64(1)
	for t := 1; t <= tasks; t++ {
		for jn := 0; jn < jobsPerTask; jn++ {
			j := &records.JobRecord{
				PandaID: int64(t*10000 + jn), JediTaskID: int64(t),
				ComputingSite: "CERN-PROD", Label: records.LabelUser,
				CreationTime: 1000, StartTime: 2000, EndTime: 9000,
				Status: records.JobFinished, TaskStatus: records.TaskDone,
			}
			var inBytes int64
			for fn := 0; fn < filesPerJob; fn++ {
				f := &records.FileRecord{
					PandaID: j.PandaID, JediTaskID: j.JediTaskID,
					LFN:   fmt.Sprintf("t%d.j%d.f%d", t, jn, fn),
					Scope: "data25", Dataset: fmt.Sprintf("ds%d", t), ProdDBlock: fmt.Sprintf("ds%d", t),
					FileSize: int64(1e9 + fn), Kind: records.FileInput,
				}
				inBytes += f.FileSize
				store.PutFile(f)
				lfn := f.LFN
				if len(jobs)%candidateEvery != 0 {
					lfn += ".other"
				}
				store.PutTransfer(&records.TransferEvent{
					EventID: eventID, LFN: lfn, Scope: f.Scope,
					Dataset: f.Dataset, ProdDBlock: f.ProdDBlock, FileSize: f.FileSize,
					SourceSite: "CERN-PROD", DestinationSite: "CERN-PROD",
					Activity: records.AnalysisDownload, IsDownload: true,
					JediTaskID: j.JediTaskID,
					StartedAt:  simtime.VTime(1200 + fn*10), EndedAt: simtime.VTime(1300 + fn*10),
				})
				eventID++
			}
			j.NInputFileBytes = inBytes
			store.PutJob(j)
			jobs = append(jobs, j)
		}
	}
	store.Freeze()
	return store, jobs
}

// benchMatchRun times one Exact pass over a 50-task, 40-jobs-per-task,
// 8-files-per-job store (2,000 jobs, 16,000 events; candidate lists of
// 320 events per task) in which one job in every candidateEvery has
// candidates.
func benchMatchRun(b *testing.B, candidateEvery int, pass func(*Matcher, []*records.JobRecord) *Result) {
	store, jobs := benchStore(50, 40, 8, candidateEvery)
	m := NewMatcher(store)
	b.ReportAllocs()
	b.ResetTimer()
	before := measureAllocs()
	var matched int
	for i := 0; i < b.N; i++ {
		matched = pass(m, jobs).MatchedJobs
	}
	reportBytesPerEvent(b, before, store)
	b.ReportMetric(float64(matched), "matched_jobs")
}

func indexedPass(m *Matcher, jobs []*records.JobRecord) *Result   { return m.RunParallel(jobs, Exact, 1) }
func referencePass(m *Matcher, jobs []*records.JobRecord) *Result { return m.runReference(jobs, Exact) }
func parallelPass(m *Matcher, jobs []*records.JobRecord) *Result {
	return m.RunParallel(jobs, Exact, 4)
}

// BenchmarkMatchRunIndexed is the indexed fast path with every job
// holding candidates.
func BenchmarkMatchRunIndexed(b *testing.B) { benchMatchRun(b, 1, indexedPass) }

// BenchmarkMatchRunReference is the same pass through the retained
// nested-loop oracle — the before side of the speedup recorded in
// CHANGES.md.
func BenchmarkMatchRunReference(b *testing.B) { benchMatchRun(b, 1, referencePass) }

// BenchmarkMatchRunParallel measures the pipeline at 4 workers on the
// indexed path, every job holding candidates.
func BenchmarkMatchRunParallel(b *testing.B) { benchMatchRun(b, 1, parallelPass) }

// BenchmarkMatchRunIndexedSparse is BenchmarkMatchRunIndexed with
// candidates for one job in 80, about the share of a PaperConfig(1)
// window's user jobs that have any (549 of 46,952, 1.2%).
func BenchmarkMatchRunIndexedSparse(b *testing.B) { benchMatchRun(b, 80, indexedPass) }

// BenchmarkMatchRunParallelSparse is BenchmarkMatchRunParallel at the
// same sparse share.
func BenchmarkMatchRunParallelSparse(b *testing.B) { benchMatchRun(b, 80, parallelPass) }
