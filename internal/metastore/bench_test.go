package metastore_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// ingestWorkload streams a synthetic but paper-shaped record mix into the
// store: tasks of several jobs, each with a handful of file rows whose
// transfers share scope/dataset/proddblock strings within the task — the
// string-sharing profile the intern table exploits.
func ingestWorkload(s *metastore.Store, tasks, jobsPerTask, filesPerJob int) int {
	return ingestWorkloadEach(s, tasks, jobsPerTask, filesPerJob, func() {})
}

// ingestWorkloadEach is ingestWorkload calling afterPut after every put.
func ingestWorkloadEach(s *metastore.Store, tasks, jobsPerTask, filesPerJob int, afterPut func()) int {
	events := 0
	eventID := int64(1)
	for t := 1; t <= tasks; t++ {
		scope := "data25"
		ds := fmt.Sprintf("ds%d", t)
		for jn := 0; jn < jobsPerTask; jn++ {
			panda := int64(t*10000 + jn)
			for fn := 0; fn < filesPerJob; fn++ {
				lfn := fmt.Sprintf("t%d.j%d.f%d", t, jn, fn)
				s.PutFile(&records.FileRecord{
					PandaID: panda, JediTaskID: int64(t),
					LFN: lfn, Scope: scope, Dataset: ds, ProdDBlock: ds,
					FileSize: int64(1e9 + fn), Kind: records.FileInput,
				})
				afterPut()
				s.PutTransfer(&records.TransferEvent{
					EventID: eventID, LFN: lfn, Scope: scope, Dataset: ds, ProdDBlock: ds,
					FileSize: int64(1e9 + fn), SourceRSE: "CERN-PROD_DATADISK",
					DestinationRSE: "BNL-ATLAS_DATADISK",
					SourceSite:     "CERN-PROD", DestinationSite: "BNL-ATLAS",
					Activity: records.AnalysisDownload, IsDownload: true,
					JediTaskID: int64(t),
					StartedAt:  simtime.VTime(1000 + fn*10), EndedAt: simtime.VTime(1100 + fn*10),
				})
				afterPut()
				eventID++
				events++
			}
			s.PutJob(&records.JobRecord{
				PandaID: panda, JediTaskID: int64(t),
				ComputingSite: "BNL-ATLAS", Label: records.LabelUser,
				CreationTime: 500, StartTime: 2000, EndTime: simtime.VTime(9000 + jn),
				Status: records.JobFinished, TaskStatus: records.TaskDone,
			})
			afterPut()
		}
	}
	s.Freeze()
	return events
}

// BenchmarkStoreIngest measures ingest + freeze of a 200-task workload
// (16,000 events) and reports the store's retained heap per event
// (live_B/event) — the direct measure of the record-storage memory ceiling
// — alongside allocation churn.
func BenchmarkStoreIngest(b *testing.B) {
	b.ReportAllocs()
	var events, liveB float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		s := metastore.New()
		n := ingestWorkload(s, 200, 10, 8)
		b.StopTimer()
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		events += float64(n)
		liveB += float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
		runtime.KeepAlive(s)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(liveB/events, "live_B/event")
}

// refreezeRows is BenchmarkStoreRefreeze's checkpoint interval: 34 freezes
// over the 34,000-row stream, about the 31 a live server makes over a
// PaperConfig run at its 6-hour cadence.
const refreezeRows = 1000

// BenchmarkStoreRefreeze ingests BenchmarkStoreIngest's stream with a
// Freeze every refreezeRows rows, the checkpoint pattern of a live server.
// It reports the cost per ingested row (ns/row) and the share of it spent
// inside Freeze (freeze_frac): a Freeze that redid work over every row
// held would make the share grow with the stream.
func BenchmarkStoreRefreeze(b *testing.B) {
	b.ReportAllocs()
	var rows int
	var freeze time.Duration
	for i := 0; i < b.N; i++ {
		s := metastore.New()
		ingestWorkloadEach(s, 200, 10, 8, func() {
			rows++
			if rows%refreezeRows == 0 {
				t0 := time.Now()
				s.Freeze()
				freeze += time.Since(t0)
			}
		})
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
	b.ReportMetric(freeze.Seconds()/b.Elapsed().Seconds(), "freeze_frac")
}

// BenchmarkStoreIngestIncremental is BenchmarkStoreIngest on the
// incremental path: small segments force many mid-run seals (with their
// background sorts), and a windowed query after every task keeps the live
// sealed+tail merge hot instead of the single end-of-run Freeze. The
// events/sec and live_B/event deltas against BenchmarkStoreIngest are the
// price of mid-run queryability (recorded in bench/BENCH_incremental.json).
func BenchmarkStoreIngestIncremental(b *testing.B) {
	b.ReportAllocs()
	var events, liveB float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		s := metastore.NewShardedSegmented(0, 2048)
		n := 0
		eventID := int64(1)
		for t := 1; t <= 200; t++ {
			scope := "data25"
			ds := fmt.Sprintf("ds%d", t)
			for jn := 0; jn < 10; jn++ {
				panda := int64(t*10000 + jn)
				for fn := 0; fn < 8; fn++ {
					lfn := fmt.Sprintf("t%d.j%d.f%d", t, jn, fn)
					s.PutFile(&records.FileRecord{
						PandaID: panda, JediTaskID: int64(t),
						LFN: lfn, Scope: scope, Dataset: ds, ProdDBlock: ds,
						FileSize: int64(1e9 + fn), Kind: records.FileInput,
					})
					s.PutTransfer(&records.TransferEvent{
						EventID: eventID, LFN: lfn, Scope: scope, Dataset: ds, ProdDBlock: ds,
						FileSize: int64(1e9 + fn), SourceRSE: "CERN-PROD_DATADISK",
						DestinationRSE: "BNL-ATLAS_DATADISK",
						SourceSite:     "CERN-PROD", DestinationSite: "BNL-ATLAS",
						Activity: records.AnalysisDownload, IsDownload: true,
						JediTaskID: int64(t),
						StartedAt:  simtime.VTime(1000 + fn*10), EndedAt: simtime.VTime(1100 + fn*10),
					})
					eventID++
					n++
				}
				s.PutJob(&records.JobRecord{
					PandaID: panda, JediTaskID: int64(t),
					ComputingSite: "BNL-ATLAS", Label: records.LabelUser,
					CreationTime: 500, StartTime: 2000, EndTime: simtime.VTime(9000 + jn),
					Status: records.JobFinished, TaskStatus: records.TaskDone,
				})
			}
			// The mid-run query that batch ingest never pays for.
			if len(s.Transfers(1000, 1100)) == 0 {
				b.Fatal("live window came back empty")
			}
		}
		b.StopTimer()
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		events += float64(n)
		liveB += float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
		runtime.KeepAlive(s)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(liveB/events, "live_B/event")
}

// BenchmarkAuditSealed measures the commitment-audit scan: re-hash every
// sealed row of a frozen 16,000-event store and check it against the
// seal-time commitments. rows/sec is the verification throughput the
// online verify loop and the /api/verify endpoint pay per audit
// (recorded in bench/BENCH_verify.json).
func BenchmarkAuditSealed(b *testing.B) {
	b.ReportAllocs()
	s := metastore.NewShardedSegmented(0, 2048)
	ingestWorkload(s, 200, 10, 8)
	rep := s.AuditSealed()
	if !rep.Clean() || rep.Rows == 0 {
		b.Fatalf("audit setup broken: %+v", rep)
	}
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rep := s.AuditSealed()
		if !rep.Clean() {
			b.Fatal("clean store audited dirty")
		}
		rows += rep.Rows
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/sec")
}
