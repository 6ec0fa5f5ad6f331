package metastore_test

import (
	"sort"
	"testing"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// fuzzPandaIDs is FuzzSegmentMerge's pandaid pool: few 10-digit values,
// so duplicate pandaids (the at-least-once rows) are common.
var fuzzPandaIDs = []int64{6_400_000_017, 6_400_000_001, 6_399_999_990, 6_400_000_001, 7_000_000_000}

// FuzzSegmentMerge fuzzes the k-way (time, ingestion-seq) merge over
// sealed segments + tail through the public query surface. The input
// bytes drive shard count, segment size, event times, and explicit Seal()
// calls, so the fuzzer explores arbitrary segment boundaries; the oracle
// is the definition of the merge itself — a stable sort of the full put
// stream by time, which a single-run store trivially produces and which
// any segmentation must reproduce byte-identically. Jobs get an oracle
// outside the store the same way: the job put stream stable-sorted by
// EndTime, cut to the window and label, then stable-sorted by pandaid.
//
// Input layout: data[0] → segment rows (1..8), data[1] → shard count
// (1..8), then one step per byte: 0xFF seals every shard's tail, any
// other value b ingests a transfer with StartedAt = b%23 (tiny time pool →
// heavy ties, so the seq tiebreak is always load-bearing) and then a job
// with EndTime = b%23, a pandaid drawn from fuzzPandaIDs by b/23, and a
// label alternating user/managed.
func FuzzSegmentMerge(f *testing.F) {
	f.Add([]byte("\x02\x03abacus-sealed\xffsegments-tail"))
	f.Add([]byte("\x01\x01\x00\x00\x00\x00"))
	f.Add([]byte("\x03\x08\xff\xff\x01\x02\x03\xff\x04\x05"))
	f.Add([]byte("\x05\x04the same byte the same byte the same byte"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		segRows := 1 + int(data[0]%8)
		shards := 1 + int(data[1]%8)
		s := metastore.NewShardedSegmented(shards, segRows)

		var model []records.TransferEvent
		var jobModel []records.JobRecord
		for i, b := range data[2:] {
			if b == 0xFF {
				s.Seal()
				continue
			}
			ev := records.TransferEvent{
				EventID:    int64(i + 1),
				JediTaskID: int64(1 + b%3), // tasks spread rows across shards
				LFN:        "f", Scope: "s", Dataset: "d", ProdDBlock: "p",
				StartedAt: simtime.VTime(b % 23),
				EndedAt:   simtime.VTime(b%23) + 40,
			}
			s.PutTransfer(&ev)
			model = append(model, ev)

			label := records.LabelUser
			if len(jobModel)%2 == 1 {
				label = records.LabelManaged
			}
			job := records.JobRecord{
				PandaID:         fuzzPandaIDs[int(b/23)%len(fuzzPandaIDs)],
				JediTaskID:      int64(1 + b%3),
				Label:           label,
				EndTime:         simtime.VTime(b % 23),
				NInputFileBytes: int64(len(jobModel) + 1), // row id
			}
			s.PutJob(&job)
			jobModel = append(jobModel, job)
		}

		// Oracle: the stable sort of the ingest stream by StartedAt.
		want := make([]records.TransferEvent, len(model))
		copy(want, model)
		sort.SliceStable(want, func(i, j int) bool { return want[i].StartedAt < want[j].StartedAt })

		check := func(label string, got []*records.TransferEvent, want []records.TransferEvent) {
			if len(got) != len(want) {
				t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
			}
			for i := range got {
				if got[i].EventID != want[i].EventID {
					t.Fatalf("%s: event %d is id=%d, want id=%d", label, i, got[i].EventID, want[i].EventID)
				}
			}
		}

		// Job oracle: the put stream stable-sorted by EndTime (the window
		// order), then cut and stable-sorted by pandaid per query.
		byEnd := make([]records.JobRecord, len(jobModel))
		copy(byEnd, jobModel)
		sort.SliceStable(byEnd, func(i, j int) bool { return byEnd[i].EndTime < byEnd[j].EndTime })
		wantJobs := func(lo, hi simtime.VTime, label records.SourceLabel) []records.JobRecord {
			var out []records.JobRecord
			for _, j := range byEnd {
				if j.EndTime >= lo && j.EndTime < hi && (label == "" || j.Label == label) {
					out = append(out, j)
				}
			}
			sort.SliceStable(out, func(i, j int) bool { return out[i].PandaID < out[j].PandaID })
			return out
		}
		checkJobs := func(path string, lo, hi simtime.VTime) {
			for _, label := range []records.SourceLabel{"", records.LabelUser, records.LabelManaged} {
				got, want := s.Jobs(lo, hi, label), wantJobs(lo, hi, label)
				if len(got) != len(want) {
					t.Fatalf("%s Jobs(%d,%d,%q): %d jobs, want %d", path, lo, hi, label, len(got), len(want))
				}
				for i := range got {
					if *got[i] != want[i] {
						t.Fatalf("%s Jobs(%d,%d,%q): job %d is row %d (pandaid %d), want row %d (pandaid %d)",
							path, lo, hi, label, i, got[i].NInputFileBytes, got[i].PandaID,
							want[i].NInputFileBytes, want[i].PandaID)
					}
				}
			}
		}

		windowed := len(data) >= 5
		var lo, hi simtime.VTime
		if windowed {
			lo = simtime.VTime(data[2] % 23)
			hi = simtime.VTime(data[3]%23) + 1
			if hi < lo {
				lo, hi = hi, lo
			}
		}

		check("live full", s.Transfers(0, 0), want)
		checkJobs("live", 0, 23)
		if windowed {
			var ww []records.TransferEvent
			for _, ev := range want {
				if ev.StartedAt >= lo && ev.StartedAt < hi {
					ww = append(ww, ev)
				}
			}
			check("live window", s.Transfers(lo, hi), ww)
			checkJobs("live", lo, hi)
		}

		// The frozen (compacted) path must agree with the live merge.
		s.Freeze()
		check("frozen full", s.Transfers(0, 0), want)
		checkJobs("frozen", 0, 23)
		if windowed {
			checkJobs("frozen", lo, hi)
		}
	})
}
