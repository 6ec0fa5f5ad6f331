package core

import (
	"fmt"
	"testing"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// fuzzSites is the endpoint pool FuzzMatchJob draws from; jobs run only at
// the first two, so UNKNOWN endpoints exercise the RM2 relaxation.
var fuzzSites = []string{"CERN-PROD", "BNL-ATLAS", "UNKNOWN"}

// FuzzMatchJob holds the indexed matcher to the nested-loop reference over
// put streams in which some job groups never see a candidate and file
// rows arrive both before and after their key's first event, so groups
// bind at PutFile and late, when an event binds parked rows. On the live
// store and again after Freeze, MatchJob must equal matchJobReference for
// every job under Exact, RM1 and RM2. Run must equal the reference pass,
// and RunParallel with 1–5 workers must equal Run over no jobs, over the
// first three (fewer jobs than workers) and over every job.
//
// Input layout: data[0] → shard count (1..4), then two bytes per put, up
// to 256 puts. The first byte a picks the kind a%4 — a job, a file row, a
// transfer, or the previous file row put again (a new file row when there
// is none) — with pandaid (a/4)%3 and task (a/12)%3, task 0 being
// task-less. The second byte b picks LFN f(b%3), size 1+(b/3)%2, site
// (b/6)%3 and time (b/18)%5; a transfer is a download to the site when
// (b/90)%2 is 0 and an upload from it otherwise; a job runs at site%2,
// ends at the time and wants 1+b%6 input bytes.
func FuzzMatchJob(f *testing.F) {
	f.Add([]byte{}) // empty input
	// A job whose file row never sees an event: the task's only transfer
	// carries another LFN.
	f.Add([]byte{2, 17, 0, 18, 1, 16, 36})
	// Files first: the rows of jobs (1, 1) and (2, 1) park until their
	// keys' events bind them; then (1, 1) twice, (2, 1) and a job with no
	// rows, so the first three jobs split unevenly across workers.
	f.Add([]byte{1, 17, 0, 17, 1, 21, 5, 18, 0, 18, 1, 18, 5, 16, 37, 20, 37, 16, 37, 12, 36})
	// Events first: the same puts, each file row binding at PutFile.
	f.Add([]byte{3, 18, 0, 18, 1, 18, 5, 17, 0, 17, 1, 21, 5, 16, 37, 20, 37, 16, 37, 12, 36})
	// A duplicate file row: its transfer must count once toward Exact's
	// size sum.
	f.Add([]byte{1, 17, 0, 19, 0, 18, 0, 16, 36})
	// The job's first row never sees an event; a later row binds at
	// PutFile, which moves the whole group to bound.
	f.Add([]byte{1, 17, 0, 18, 1, 17, 1, 16, 36})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [1]byte
		copy(hdr[:], data)
		s := metastore.NewShardedSegmented(1+int(hdr[0]%4), 4)
		var file *records.FileRecord
		// At most 256 puts: the pools are tiny, so longer streams only pile
		// more rows into the same nine groups, and the reference costs
		// files × candidates per job.
		ops := data[min(len(data), 1):min(len(data), 1+512)]
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := ops[i], ops[i+1]
			panda, task := int64(a/4%3), int64(a/12%3)
			lfn, size := fmt.Sprintf("f%d", b%3), int64(1+b/3%2)
			site, at := int(b/6%3), simtime.VTime(b/18%5)
			switch a % 4 {
			case 0:
				s.PutJob(&records.JobRecord{PandaID: panda, JediTaskID: task, Label: records.LabelUser,
					ComputingSite: fuzzSites[site%2], EndTime: at, NInputFileBytes: int64(1 + b%6)})
			case 3:
				if file != nil {
					s.PutFile(file)
					continue
				}
				fallthrough
			case 1:
				file = &records.FileRecord{PandaID: panda, JediTaskID: task, LFN: lfn, Scope: "s",
					Dataset: "d", ProdDBlock: "p", FileSize: size, Kind: records.FileInput}
				s.PutFile(file)
			default:
				ev := &records.TransferEvent{EventID: int64(i + 1), JediTaskID: task, LFN: lfn, Scope: "s",
					Dataset: "d", ProdDBlock: "p", FileSize: size, StartedAt: at, EndedAt: at + 40}
				if b/90%2 == 0 {
					ev.IsDownload = true
					ev.SourceSite, ev.DestinationSite = fuzzSites[(site+1)%3], fuzzSites[site]
				} else {
					ev.IsUpload = true
					ev.SourceSite, ev.DestinationSite = fuzzSites[site], fuzzSites[(site+2)%3]
				}
				s.PutTransfer(ev)
			}
		}

		m := NewMatcher(s)
		methods := []Method{Exact, RM1, RM2}
		checkJobs := func(when string) {
			t.Helper()
			for _, j := range s.Jobs(0, 5, "") {
				for _, method := range methods {
					sameEvents(t, fmt.Sprintf("%s: %v job (%d, %d)", when, method, j.PandaID, j.JediTaskID),
						m.MatchJob(j, method), m.matchJobReference(j, method))
				}
			}
		}
		checkJobs("live")
		s.Freeze()
		checkJobs("frozen")

		jobs := s.Jobs(0, 5, "")
		for _, method := range methods {
			sameResult(t, fmt.Sprintf("%v Run", method), m.Run(jobs, method), m.runReference(jobs, method))
			for _, n := range []int{0, min(len(jobs), 3), len(jobs)} {
				want := m.Run(jobs[:n], method)
				for workers := 1; workers <= 5; workers++ {
					sameResult(t, fmt.Sprintf("%v RunParallel(%d jobs, %d workers)", method, n, workers),
						m.RunParallel(jobs[:n], method, workers), want)
				}
			}
		}
	})
}
