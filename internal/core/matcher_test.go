package core

import (
	"testing"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// scenario builds a one-job store with configurable transfers.
type scenario struct {
	store *metastore.Store
	job   *records.JobRecord
}

const (
	sJedi  = 41_000_001
	sPanda = 6_583_000_001
	sSite  = "CERN-PROD"
)

// newScenario creates a job with two input files (3e9 and 4e9 bytes) and an
// output file (1e9), queuing 1000..2000, running to 5000.
func newScenario() *scenario {
	s := &scenario{store: metastore.New()}
	s.job = &records.JobRecord{
		PandaID: sPanda, JediTaskID: sJedi, ComputingSite: sSite,
		Label:        records.LabelUser,
		CreationTime: 1000, StartTime: 2000, EndTime: 5000,
		Status: records.JobFinished, TaskStatus: records.TaskDone,
		NInputFileBytes: 7e9, NOutputFileBytes: 1e9,
	}
	s.store.PutJob(s.job)
	for i, size := range []int64{3e9, 4e9} {
		s.store.PutFile(&records.FileRecord{
			PandaID: sPanda, JediTaskID: sJedi,
			LFN: lfn(i), Scope: "data25", Dataset: "ds", ProdDBlock: "ds",
			FileSize: size, Kind: records.FileInput,
		})
	}
	s.store.PutFile(&records.FileRecord{
		PandaID: sPanda, JediTaskID: sJedi,
		LFN: "out0", Scope: "user.out", Dataset: "ods", ProdDBlock: "ods",
		FileSize: 1e9, Kind: records.FileOutput,
	})
	return s
}

func lfn(i int) string { return []string{"in0", "in1"}[i] }

// download returns a well-formed local download event for input file i.
func (s *scenario) download(i int, size int64, start, end simtime.VTime) *records.TransferEvent {
	return &records.TransferEvent{
		EventID: int64(100 + i), LFN: lfn(i), Scope: "data25",
		Dataset: "ds", ProdDBlock: "ds", FileSize: size,
		SourceSite: sSite, DestinationSite: sSite,
		Activity: records.AnalysisDownload, IsDownload: true,
		JediTaskID: sJedi, StartedAt: start, EndedAt: end,
	}
}

func (s *scenario) matcher() *Matcher { return NewMatcher(s.store) }

func TestExactMatchHappyPath(t *testing.T) {
	s := newScenario()
	s.store.PutTransfer(s.download(0, 3e9, 1100, 1200))
	s.store.PutTransfer(s.download(1, 4e9, 1200, 1400))
	got := s.matcher().MatchJob(s.job, Exact)
	if len(got) != 2 {
		t.Fatalf("exact matched %d transfers, want 2", len(got))
	}
}

func TestExactRejectsSizeJitterRM1Recovers(t *testing.T) {
	s := newScenario()
	s.store.PutTransfer(s.download(0, 3e9+17, 1100, 1200)) // imprecise size
	s.store.PutTransfer(s.download(1, 4e9, 1200, 1400))
	if got := s.matcher().MatchJob(s.job, Exact); got != nil {
		t.Fatalf("exact matched jittered size: %v", got)
	}
	if got := s.matcher().MatchJob(s.job, RM1); len(got) != 2 {
		t.Fatalf("RM1 matched %d, want 2", len(got))
	}
}

func TestExactRejectsSubsetRM1Recovers(t *testing.T) {
	s := newScenario()
	// Only one of the two inputs produced an event (the other was cached):
	// the size sum (3e9) matches neither 7e9 nor 1e9.
	s.store.PutTransfer(s.download(0, 3e9, 1100, 1200))
	if got := s.matcher().MatchJob(s.job, Exact); got != nil {
		t.Fatal("exact matched an incomplete transfer set")
	}
	if got := s.matcher().MatchJob(s.job, RM1); len(got) != 1 {
		t.Fatalf("RM1 matched %d, want 1", len(got))
	}
}

func TestSiteConditionRM2Recovers(t *testing.T) {
	s := newScenario()
	ev0 := s.download(0, 3e9, 1100, 1200)
	ev0.DestinationSite = topology.UnknownSite
	ev1 := s.download(1, 4e9, 1200, 1400)
	ev1.DestinationSite = topology.UnknownSite
	s.store.PutTransfer(ev0)
	s.store.PutTransfer(ev1)
	if got := s.matcher().MatchJob(s.job, Exact); got != nil {
		t.Fatal("exact matched UNKNOWN destination")
	}
	if got := s.matcher().MatchJob(s.job, RM1); got != nil {
		t.Fatal("RM1 matched UNKNOWN destination")
	}
	if got := s.matcher().MatchJob(s.job, RM2); len(got) != 2 {
		t.Fatalf("RM2 matched %d, want 2", len(got))
	}
}

func TestTransferAfterJobEndExcludedEverywhere(t *testing.T) {
	s := newScenario()
	late := s.download(0, 3e9, 6000, 6100) // starts after EndTime=5000
	s.store.PutTransfer(late)
	for _, m := range []Method{Exact, RM1, RM2} {
		if got := s.matcher().MatchJob(s.job, m); got != nil {
			t.Errorf("%v matched a transfer starting after job end", m)
		}
	}
}

func TestUploadMatching(t *testing.T) {
	s := newScenario()
	up := &records.TransferEvent{
		EventID: 200, LFN: "out0", Scope: "user.out",
		Dataset: "ods", ProdDBlock: "ods", FileSize: 1e9,
		SourceSite: sSite, DestinationSite: sSite,
		Activity: records.AnalysisUpload, IsUpload: true,
		JediTaskID: sJedi, StartedAt: 4500, EndedAt: 4900,
	}
	s.store.PutTransfer(up)
	got := s.matcher().MatchJob(s.job, Exact)
	if len(got) != 1 || !got[0].IsUpload {
		t.Fatalf("upload not exactly matched: %v", got)
	}
	// Upload from the wrong site fails Exact/RM1 but passes RM2.
	s2 := newScenario()
	up2 := *up
	up2.SourceSite = "BNL-ATLAS"
	s2.store.PutTransfer(&up2)
	if got := s2.matcher().MatchJob(s2.job, RM1); got != nil {
		t.Error("RM1 accepted upload from wrong site")
	}
	if got := s2.matcher().MatchJob(s2.job, RM2); len(got) != 1 {
		t.Error("RM2 rejected wrong-site upload")
	}
}

func TestMixedSetFailsExactSum(t *testing.T) {
	s := newScenario()
	s.store.PutTransfer(s.download(0, 3e9, 1100, 1200))
	s.store.PutTransfer(s.download(1, 4e9, 1200, 1400))
	s.store.PutTransfer(&records.TransferEvent{
		EventID: 200, LFN: "out0", Scope: "user.out",
		Dataset: "ods", ProdDBlock: "ods", FileSize: 1e9,
		SourceSite: sSite, DestinationSite: sSite,
		Activity: records.AnalysisUpload, IsUpload: true,
		JediTaskID: sJedi, StartedAt: 4500, EndedAt: 4900,
	})
	// Sum = 8e9, equals neither 7e9 (input) nor 1e9 (output).
	if got := s.matcher().MatchJob(s.job, Exact); got != nil {
		t.Fatal("exact matched a mixed download+upload set")
	}
	if got := s.matcher().MatchJob(s.job, RM1); len(got) != 3 {
		t.Fatalf("RM1 matched %d, want 3", len(got))
	}
}

func TestWrongTaskOrAttributesNeverMatch(t *testing.T) {
	s := newScenario()
	wrongTask := s.download(0, 3e9, 1100, 1200)
	wrongTask.JediTaskID = sJedi + 1
	s.store.PutTransfer(wrongTask)
	wrongDS := s.download(1, 4e9, 1100, 1200)
	wrongDS.Dataset = "other"
	s.store.PutTransfer(wrongDS)
	for _, m := range []Method{Exact, RM1, RM2} {
		if got := s.matcher().MatchJob(s.job, m); got != nil {
			t.Errorf("%v matched on wrong task/dataset", m)
		}
	}
}

func TestJobWithoutFilesUnmatched(t *testing.T) {
	s := newScenario()
	orphan := &records.JobRecord{PandaID: 999, JediTaskID: 888, ComputingSite: sSite, EndTime: 100}
	s.store.PutJob(orphan)
	if got := s.matcher().MatchJob(orphan, RM2); got != nil {
		t.Fatal("job with no file rows matched")
	}
}

func TestMatchClass(t *testing.T) {
	local := &records.TransferEvent{SourceSite: "A", DestinationSite: "A"}
	remote := &records.TransferEvent{SourceSite: "A", DestinationSite: "B"}
	j := &records.JobRecord{}
	if c := (&Match{j, []*records.TransferEvent{local, local}}).Class(); c != AllLocal {
		t.Errorf("class = %v", c)
	}
	if c := (&Match{j, []*records.TransferEvent{remote}}).Class(); c != AllRemote {
		t.Errorf("class = %v", c)
	}
	if c := (&Match{j, []*records.TransferEvent{local, remote}}).Class(); c != Mixed {
		t.Errorf("class = %v", c)
	}
	for c, want := range map[TransferClass]string{AllLocal: "all-local", AllRemote: "all-remote", Mixed: "mixed"} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestQueueTransferTimeUnion(t *testing.T) {
	j := &records.JobRecord{CreationTime: 1000, StartTime: 2000, EndTime: 3000}
	mk := func(a, b simtime.VTime) *records.TransferEvent {
		return &records.TransferEvent{StartedAt: a, EndedAt: b}
	}
	cases := []struct {
		evs  []*records.TransferEvent
		want simtime.VTime
	}{
		{[]*records.TransferEvent{mk(1100, 1200)}, 100},
		{[]*records.TransferEvent{mk(1100, 1200), mk(1150, 1300)}, 200}, // overlap merges
		{[]*records.TransferEvent{mk(1100, 1200), mk(1400, 1500)}, 200}, // disjoint adds
		{[]*records.TransferEvent{mk(500, 1100)}, 100},                  // clip at creation
		{[]*records.TransferEvent{mk(1900, 2500)}, 100},                 // clip at start
		{[]*records.TransferEvent{mk(2100, 2500)}, 0},                   // wholly in wall time
		{[]*records.TransferEvent{mk(500, 3000)}, 1000},                 // spans everything
		{[]*records.TransferEvent{mk(1100, 1200), mk(1100, 1200)}, 100}, // duplicates
		{nil, 0},
	}
	for i, c := range cases {
		m := &Match{Job: j, Transfers: c.evs}
		if got := m.QueueTransferTime(); got != c.want {
			t.Errorf("case %d: QueueTransferTime = %d, want %d", i, got, c.want)
		}
	}
	m := &Match{Job: j, Transfers: []*records.TransferEvent{mk(1000, 1500)}}
	if f := m.QueueTransferFraction(); f != 0.5 {
		t.Errorf("fraction = %f", f)
	}
	zeroQ := &Match{Job: &records.JobRecord{CreationTime: 5, StartTime: 5}, Transfers: nil}
	if zeroQ.QueueTransferFraction() != 0 {
		t.Error("zero queue time should give zero fraction")
	}
}

func TestRunAggregation(t *testing.T) {
	s := newScenario()
	s.store.PutTransfer(s.download(0, 3e9, 1100, 1200))
	s.store.PutTransfer(s.download(1, 4e9, 1200, 1400))
	// A second job in the same task sharing file in0: the shared event must
	// be counted once in MatchedTransfers.
	j2 := &records.JobRecord{
		PandaID: sPanda + 1, JediTaskID: sJedi, ComputingSite: sSite,
		Label: records.LabelUser, CreationTime: 1000, StartTime: 2000, EndTime: 5000,
		NInputFileBytes: 3e9,
	}
	s.store.PutJob(j2)
	s.store.PutFile(&records.FileRecord{
		PandaID: j2.PandaID, JediTaskID: sJedi,
		LFN: "in0", Scope: "data25", Dataset: "ds", ProdDBlock: "ds",
		FileSize: 3e9, Kind: records.FileInput,
	})
	jobs := []*records.JobRecord{s.job, j2}
	res := s.matcher().RunParallel(jobs, Exact, 1)
	if res.MatchedJobs != 2 {
		t.Fatalf("MatchedJobs = %d, want 2", res.MatchedJobs)
	}
	if res.MatchedTransfers != 2 {
		t.Fatalf("MatchedTransfers = %d, want 2 unique", res.MatchedTransfers)
	}
	if res.LocalTransfers != 2 || res.RemoteTransfers != 0 {
		t.Error("locality counts wrong")
	}
	if res.JobsAllLocal != 2 || res.JobsAllRemote != 0 || res.JobsMixed != 0 {
		t.Error("class counts wrong")
	}
	if res.TotalJobs != 2 || res.TransfersWithTaskID != 2 {
		t.Error("denominators wrong")
	}
	if pct := res.MatchedTransferPct(); pct != 100 {
		t.Errorf("MatchedTransferPct = %f", pct)
	}
	if pct := res.MatchedJobPct(); pct != 100 {
		t.Errorf("MatchedJobPct = %f", pct)
	}
	empty := &Result{}
	if empty.MatchedTransferPct() != 0 || empty.MatchedJobPct() != 0 {
		t.Error("zero denominators must give zero percent")
	}
}

func TestFindRedundant(t *testing.T) {
	s := newScenario()
	a := s.download(0, 3e9, 1100, 1200)
	b := s.download(0, 3e9, 1300, 1400)
	b.EventID = 150
	c := s.download(1, 4e9, 1200, 1250)
	m := &Match{Job: s.job, Transfers: []*records.TransferEvent{b, a, c}}
	groups := FindRedundant(m)
	if len(groups) != 1 || groups[0].LFN != "in0" {
		t.Fatalf("groups = %+v", groups)
	}
	if len(groups[0].Events) != 2 || groups[0].Events[0].StartedAt != 1100 {
		t.Error("group not time-sorted")
	}
	if got := FindRedundant(&Match{Job: s.job, Transfers: []*records.TransferEvent{a, c}}); got != nil {
		t.Error("false redundancy")
	}
}

func TestInferUnknownSites(t *testing.T) {
	grid := topology.Default(topology.DefaultSpec{})
	s := newScenario()
	// Table 3 pattern: duplicate pair, first with UNKNOWN destination.
	bad := s.download(0, 3e9, 900, 950) // before job creation, like Fig. 12
	bad.DestinationSite = topology.UnknownSite
	good := s.download(0, 3e9, 1100, 1200)
	good.EventID = 150
	m := &Match{Job: s.job, Transfers: []*records.TransferEvent{bad, good}}
	infs := InferUnknownSites(m, grid)
	if len(infs) != 1 {
		t.Fatalf("inferences = %+v", infs)
	}
	if infs[0].Field != "destination" || infs[0].InferredSite != sSite || infs[0].Evidence != "duplicate" {
		t.Errorf("inference = %+v", infs[0])
	}
	// Without a duplicate, fall back to the site-condition argument.
	m2 := &Match{Job: s.job, Transfers: []*records.TransferEvent{bad}}
	infs2 := InferUnknownSites(m2, grid)
	if len(infs2) != 1 || infs2[0].Evidence != "site-condition" || infs2[0].InferredSite != sSite {
		t.Errorf("fallback inference = %+v", infs2)
	}
	// Garbled source on an upload infers the computing site.
	up := &records.TransferEvent{
		LFN: "out0", FileSize: 1e9, SourceSite: "gsiftp://invalid/X",
		DestinationSite: sSite, IsUpload: true, StartedAt: 4500, EndedAt: 4600,
	}
	m3 := &Match{Job: s.job, Transfers: []*records.TransferEvent{up}}
	infs3 := InferUnknownSites(m3, grid)
	if len(infs3) != 1 || infs3[0].Field != "source" || infs3[0].InferredSite != sSite {
		t.Errorf("upload inference = %+v", infs3)
	}
	// Intact events produce no inferences.
	if got := InferUnknownSites(&Match{Job: s.job, Transfers: []*records.TransferEvent{good}}, grid); got != nil {
		t.Error("inference on intact metadata")
	}
}

func TestMethodStrings(t *testing.T) {
	if Exact.String() != "Exact" || RM1.String() != "RM1" || RM2.String() != "RM2" {
		t.Error("method strings wrong")
	}
}
