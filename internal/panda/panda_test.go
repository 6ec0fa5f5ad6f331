package panda

import (
	"fmt"
	"testing"

	"panrucio/internal/netsim"
	"panrucio/internal/records"
	"panrucio/internal/rucio"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

type fixture struct {
	eng   *simtime.Engine
	grid  *topology.Grid
	ruc   *rucio.Rucio
	sys   *System
	jobs  []*records.JobRecord
	files []*records.FileRecord
	evs   []*records.TransferEvent
}

func newFixture(seed int64, opts Options) *fixture {
	f := &fixture{}
	f.eng = simtime.NewEngine(0, 0)
	f.grid = topology.Default(topology.DefaultSpec{})
	root := simtime.NewRNG(seed)
	net := netsim.New(f.eng, f.grid, root.Split("net"), netsim.Options{})
	f.ruc = rucio.New(f.eng, f.grid, net, root.Split("rucio"), rucio.Options{}, func(ev *records.TransferEvent) {
		f.evs = append(f.evs, ev)
	})
	f.sys = NewSystem(f.eng, f.grid, f.ruc, root.Split("panda"), opts,
		// The sinks' records are borrowed for the call: keep copies.
		func(j *records.JobRecord) { cp := *j; f.jobs = append(f.jobs, &cp) },
		func(fr *records.FileRecord) { cp := *fr; f.files = append(f.files, &cp) },
	)
	return f
}

// seedDataset places a dataset with nfiles files of size each at the named
// site's primary disk RSE.
func (f *fixture) seedDataset(name, site string, nfiles int, size int64) {
	f.ruc.Catalog().CreateDataset("data25", name)
	rse, ok := f.grid.PrimaryRSE(site)
	if !ok {
		panic("no RSE at " + site)
	}
	for i := 0; i < nfiles; i++ {
		file := &rucio.FileInfo{
			LFN: fmt.Sprintf("%s.f%04d", name, i), Scope: "data25",
			Dataset: name, ProdDBlock: name, Size: size,
		}
		if err := f.ruc.Catalog().AddFile(file); err != nil {
			panic(err)
		}
		f.ruc.Catalog().SetReplica(file, rse.Name, rucio.ReplicaAvailable)
	}
}

func TestSubmitTaskValidation(t *testing.T) {
	f := newFixture(1, Options{})
	if _, err := f.sys.SubmitTask(TaskSpec{JobCount: 0}); err == nil {
		t.Error("zero jobs accepted")
	}
	if _, err := f.sys.SubmitTask(TaskSpec{JobCount: 1, InputDatasets: []string{"nope"}}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := f.sys.SubmitTask(TaskSpec{JobCount: 1}); err == nil {
		t.Error("task without input files accepted")
	}
}

func TestTaskRunsToCompletion(t *testing.T) {
	f := newFixture(2, Options{})
	f.seedDataset("data25.ds1", "CERN-PROD", 20, 2e9)
	task, err := f.sys.SubmitTask(TaskSpec{
		Label: records.LabelUser, InputDatasets: []string{"data25.ds1"},
		JobCount: 10, FilesPerJob: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if task.Status != records.TaskDone && task.Status != records.TaskFailed {
		t.Fatalf("task not terminal: %q", task.Status)
	}
	if len(f.jobs) != 10 {
		t.Fatalf("%d job records, want 10", len(f.jobs))
	}
	for _, j := range f.jobs {
		if j.CreationTime > j.StartTime || j.StartTime > j.EndTime {
			t.Errorf("job %d time order broken: %d/%d/%d", j.PandaID, j.CreationTime, j.StartTime, j.EndTime)
		}
		if j.JediTaskID != task.JediTaskID {
			t.Error("jeditaskid mismatch")
		}
		if j.NInputFileBytes != 2*2e9 {
			t.Errorf("NInputFileBytes = %d", j.NInputFileBytes)
		}
		if j.Status != records.JobFinished && j.Status != records.JobFailed {
			t.Errorf("job status %q", j.Status)
		}
	}
	// File records: 2 inputs per job plus outputs for jobs that produced one.
	inputs, outputs := 0, 0
	for _, fr := range f.files {
		switch fr.Kind {
		case records.FileInput:
			inputs++
		case records.FileOutput:
			outputs++
		}
		if fr.JediTaskID != task.JediTaskID {
			t.Error("file record task id mismatch")
		}
	}
	if inputs != 20 {
		t.Errorf("input file records = %d, want 20", inputs)
	}
	if outputs == 0 {
		t.Error("no output file records")
	}
	if f.sys.Backlog() != 0 || f.sys.Running() != 0 {
		t.Error("pilots leaked")
	}
}

// TestEmitTaskAllocatesNoRecord pins a finished task's emit at zero
// allocations when the sinks copy, as the ingest pipe and the store do: the
// sinks borrow the System's job and file records for the call instead of
// receiving a heap record per put.
func TestEmitTaskAllocatesNoRecord(t *testing.T) {
	f := newFixture(2, Options{})
	f.seedDataset("data25.ds1", "CERN-PROD", 20, 2e9)
	task, err := f.sys.SubmitTask(TaskSpec{
		Label: records.LabelUser, InputDatasets: []string{"data25.ds1"},
		JobCount: 10, FilesPerJob: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	var job records.JobRecord
	var file records.FileRecord
	var jobs, files int
	f.sys.jobSink = func(j *records.JobRecord) { job = *j; jobs++ }
	f.sys.fileSink = func(fr *records.FileRecord) { file = *fr; files++ }
	allocs := testing.AllocsPerRun(20, func() { f.sys.emitTask(task) })
	if allocs != 0 {
		t.Fatalf("emitting a 10-job task allocated %.1f times, want 0", allocs)
	}
	if jobs != 21*10 || files < 21*20 || job.JediTaskID != task.JediTaskID || file.JediTaskID != task.JediTaskID {
		t.Fatalf("sinks saw %d jobs and %d files (last task ids %d, %d)", jobs, files, job.JediTaskID, file.JediTaskID)
	}
}

// Replicas on a tape RSE, still copying, or at an RSE outside the grid are
// input at no site: the per-site slice must agree with InputBytesAt, which
// probes each site's primary disk RSE only.
func TestInputBytesBySiteCountsPrimaryReplicasOnly(t *testing.T) {
	f := newFixture(12, Options{})
	f.seedDataset("data25.ds11", "BNL-ATLAS", 3, 1e9)
	ds, _ := f.ruc.Catalog().Dataset("data25.ds11")
	cat := f.ruc.Catalog()
	mwt2, _ := f.grid.PrimaryRSE("MWT2")
	cat.SetReplica(ds.Files[0], "CERN-PROD_MCTAPE", rucio.ReplicaAvailable)
	cat.SetReplica(ds.Files[1], mwt2.Name, rucio.ReplicaCopying)
	cat.SetReplica(ds.Files[2], "NOT-IN-GRID_DATADISK", rucio.ReplicaAvailable)
	cat.SetReplica(ds.Files[2], mwt2.Name, rucio.ReplicaAvailable)
	j := &Job{Inputs: ds.Files}
	bySite := f.sys.inputBytesBySite(j)
	for i, name := range f.sys.SiteNames() {
		if want := f.sys.InputBytesAt(j, name); bySite[i] != want {
			t.Errorf("%s: per-site slice %d, InputBytesAt %d", name, bySite[i], want)
		}
	}
	for site, want := range map[string]int64{"BNL-ATLAS": 3e9, "MWT2": 1e9, "CERN-PROD": 0} {
		if got := bySite[f.grid.SiteIndex(site)]; got != want {
			t.Errorf("%s holds %d input bytes, want %d", site, got, want)
		}
	}
}

func TestBrokerageFollowsData(t *testing.T) {
	f := newFixture(3, Options{RemoteBrokerageProb: 1e-12, CacheHitProb: 1e-12})
	f.seedDataset("data25.ds2", "TOKYO-LCG2", 8, 1e9)
	task, err := f.sys.SubmitTask(TaskSpec{
		Label: records.LabelUser, InputDatasets: []string{"data25.ds2"},
		JobCount: 8, FilesPerJob: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range task.Jobs {
		if j.Site != "TOKYO-LCG2" {
			t.Errorf("job sent to %s, want data site TOKYO-LCG2", j.Site)
		}
	}
	f.eng.Run()
	// All non-cached stage-ins should be local.
	for _, ev := range f.evs {
		if ev.IsDownload && !ev.IsLocal() {
			t.Errorf("data-local job staged remotely: %s->%s", ev.SourceSite, ev.DestinationSite)
		}
	}
}

func TestRemoteBrokerageProducesRemoteTransfers(t *testing.T) {
	f := newFixture(4, Options{RemoteBrokerageProb: 0.999999, CacheHitProb: 1e-12, DirectIOFraction: 1e-12})
	f.seedDataset("data25.ds3", "CERN-PROD", 4, 1e9)
	f.sys.SubmitTask(TaskSpec{
		Label: records.LabelUser, InputDatasets: []string{"data25.ds3"},
		JobCount: 4, FilesPerJob: 1,
	})
	f.eng.Run()
	remote := 0
	for _, ev := range f.evs {
		if ev.IsDownload && !ev.IsLocal() {
			remote++
		}
	}
	if remote == 0 {
		t.Error("forced remote brokerage produced no remote transfers")
	}
}

func TestDirectIOOverlapsExecution(t *testing.T) {
	f := newFixture(5, Options{DirectIOFraction: 0.999999, CacheHitProb: 1e-12})
	f.seedDataset("data25.ds4", "BNL-ATLAS", 6, 5e9)
	task, _ := f.sys.SubmitTask(TaskSpec{
		Label: records.LabelUser, InputDatasets: []string{"data25.ds4"},
		JobCount: 3, FilesPerJob: 2,
	})
	f.eng.Run()
	var dio []*records.TransferEvent
	for _, ev := range f.evs {
		if ev.Activity == records.AnalysisDirectIO {
			dio = append(dio, ev)
		}
	}
	if len(dio) == 0 {
		t.Fatal("no direct-IO events")
	}
	// Direct-IO transfers begin at/after payload start of their job.
	byTask := map[int64]simtime.VTime{}
	for _, j := range task.Jobs {
		if byTask[j.Task.JediTaskID] == 0 || j.Start < byTask[j.Task.JediTaskID] {
			byTask[j.Task.JediTaskID] = j.Start
		}
	}
	for _, ev := range dio {
		if ev.StartedAt < byTask[ev.JediTaskID] {
			t.Error("direct-IO transfer started before any job start")
		}
	}
}

func TestProductionUsesProductionActivities(t *testing.T) {
	f := newFixture(6, Options{CacheHitProb: 1e-12, DirectIOFraction: 1e-12})
	f.seedDataset("mc25.ds5", "FZK-LCG2", 10, 2e9)
	f.sys.SubmitTask(TaskSpec{
		Label: records.LabelManaged, InputDatasets: []string{"mc25.ds5"},
		JobCount: 5, FilesPerJob: 2, OutputScope: "mc25.out",
	})
	f.eng.Run()
	var down, up int
	for _, ev := range f.evs {
		switch ev.Activity {
		case records.ProductionDown:
			down++
			if ev.JediTaskID == 0 {
				t.Error("production download lost jeditaskid")
			}
		case records.ProductionUp:
			up++
			if ev.JediTaskID == 0 {
				t.Error("production upload lost jeditaskid")
			}
		case records.AnalysisDownload, records.AnalysisUpload, records.AnalysisDirectIO:
			t.Errorf("production task emitted analysis activity %q", ev.Activity)
		}
	}
	if down == 0 {
		t.Error("no production downloads")
	}
	if up == 0 {
		t.Error("no production uploads")
	}
	for _, j := range f.jobs {
		if j.Label != records.LabelManaged {
			t.Error("job record label wrong")
		}
	}
}

func TestCacheHitProducesNoDownloads(t *testing.T) {
	f := newFixture(7, Options{CacheHitProb: 0.999999, DirectIOFraction: 1e-12, UploadWithJediFraction: 1e-12, RedundantPrestageProb: 1e-12})
	f.seedDataset("data25.ds6", "PIC", 4, 1e9)
	f.sys.SubmitTask(TaskSpec{
		Label: records.LabelUser, InputDatasets: []string{"data25.ds6"},
		JobCount: 4, FilesPerJob: 1,
	})
	f.eng.Run()
	for _, ev := range f.evs {
		if ev.IsDownload {
			t.Fatalf("cache-hit job still downloaded: %+v", ev)
		}
	}
}

func TestRedundantPrestageDuplicatesFileSet(t *testing.T) {
	f := newFixture(8, Options{RedundantPrestageProb: 0.999999, CacheHitProb: 1e-12, DirectIOFraction: 1e-12})
	f.seedDataset("data25.ds7", "CERN-PROD", 3, 3e9)
	f.sys.SubmitTask(TaskSpec{
		Label: records.LabelUser, InputDatasets: []string{"data25.ds7"},
		JobCount: 1, FilesPerJob: 3,
	})
	f.eng.Run()
	counts := map[string]int{}
	for _, ev := range f.evs {
		if ev.Activity == records.AnalysisDownload {
			counts[ev.LFN]++
		}
	}
	dup := 0
	for _, c := range counts {
		if c >= 2 {
			dup++
		}
	}
	if dup != 3 {
		t.Errorf("redundant prestage duplicated %d/3 files", dup)
	}
}

func TestLateStartSpansQueueAndWall(t *testing.T) {
	f := newFixture(9, Options{LateStartProb: 0.999999, CacheHitProb: 1e-12, DirectIOFraction: 1e-12, RedundantPrestageProb: 1e-12, RemoteBrokerageProb: 1e-12})
	// Unequal sizes: the payload starts after the small file lands while
	// the big one is still moving.
	f.ruc.Catalog().CreateDataset("data25", "data25.ds8")
	rse, _ := f.grid.PrimaryRSE("SIGNET")
	for i, size := range []int64{2e9, 120e9} {
		file := &rucio.FileInfo{
			LFN: fmt.Sprintf("data25.ds8.f%d", i), Scope: "data25",
			Dataset: "data25.ds8", ProdDBlock: "data25.ds8", Size: size,
		}
		f.ruc.Catalog().AddFile(file)
		f.ruc.Catalog().SetReplica(file, rse.Name, rucio.ReplicaAvailable)
	}
	task, _ := f.sys.SubmitTask(TaskSpec{
		Label: records.LabelUser, InputDatasets: []string{"data25.ds8"},
		JobCount: 1, FilesPerJob: 2,
	})
	f.eng.Run()
	j := task.Jobs[0]
	spans := false
	for _, ev := range f.evs {
		if ev.IsDownload && ev.StartedAt < j.Start && ev.EndedAt > j.Start {
			spans = true
		}
	}
	if !spans {
		t.Error("late-start job has no transfer spanning queue and wall time")
	}
}

func TestUploadJediFraction(t *testing.T) {
	f := newFixture(10, Options{UploadWithJediFraction: 0.999999, CacheHitProb: 0.999999, BaseFailureProb: 1e-12, StagingFailureBoost: 1e-12, RemoteBrokerageProb: 1e-12})
	f.seedDataset("data25.ds9", "MWT2", 4, 1e9)
	f.sys.SubmitTask(TaskSpec{
		Label: records.LabelUser, InputDatasets: []string{"data25.ds9"},
		JobCount: 4, FilesPerJob: 1,
	})
	f.eng.Run()
	uploads := 0
	for _, ev := range f.evs {
		if ev.Activity == records.AnalysisUpload {
			uploads++
			if ev.JediTaskID == 0 {
				t.Error("upload missing jeditaskid despite fraction=1")
			}
			if ev.SourceSite != "MWT2" {
				t.Errorf("upload source %s, want computing site", ev.SourceSite)
			}
		}
	}
	if uploads != 4 {
		t.Errorf("uploads = %d, want 4 (all jobs finished)", uploads)
	}
}

func TestSlotContentionQueuesJobs(t *testing.T) {
	f := newFixture(11, Options{CacheHitProb: 0.999999, RemoteBrokerageProb: 1e-12})
	// Shrink a site to 2 slots to force queueing.
	f.sys.site("GENOVA-T3").slots = 2
	f.seedDataset("data25.ds10", "GENOVA-T3", 10, 1e9)
	task, _ := f.sys.SubmitTask(TaskSpec{
		Label: records.LabelUser, InputDatasets: []string{"data25.ds10"},
		JobCount: 10, FilesPerJob: 1,
	})
	for _, j := range task.Jobs {
		if j.Site != "GENOVA-T3" {
			t.Fatalf("job escaped to %s", j.Site)
		}
	}
	if got := f.sys.site("GENOVA-T3").running; got > 2 {
		t.Errorf("running=%d exceeds 2 slots", got)
	}
	f.eng.Run()
	if task.Status == "" {
		t.Error("task never finished under contention")
	}
	// Later jobs must have waited: at least one job with queue time > 0.
	waited := false
	for _, j := range f.jobs {
		if j.QueueTime() > 0 {
			waited = true
		}
	}
	if !waited {
		t.Error("no job experienced queue delay despite 10 jobs on 2 slots")
	}
}

func TestFailedJobsGetErrorCodes(t *testing.T) {
	f := newFixture(12, Options{BaseFailureProb: 0.999999, CacheHitProb: 0.999999})
	f.seedDataset("data25.ds11", "LAPP-T2", 5, 1e9)
	f.sys.SubmitTask(TaskSpec{
		Label: records.LabelUser, InputDatasets: []string{"data25.ds11"},
		JobCount: 5, FilesPerJob: 1,
	})
	f.eng.Run()
	for _, j := range f.jobs {
		if j.Status != records.JobFailed {
			t.Fatalf("job %d not failed despite p=1", j.PandaID)
		}
		if j.ErrorCode == 0 || j.ErrorMessage == "" {
			t.Error("failed job lacks error code/message")
		}
		if j.TaskStatus != records.TaskFailed {
			t.Error("all-failed task not marked failed")
		}
	}
	if f.sys.FailedJobs != 5 {
		t.Errorf("FailedJobs = %d", f.sys.FailedJobs)
	}
}

func TestIDRangesAndDeterminism(t *testing.T) {
	run := func() []int64 {
		f := newFixture(13, Options{})
		f.seedDataset("data25.ds12", "CERN-PROD", 6, 1e9)
		task, _ := f.sys.SubmitTask(TaskSpec{
			Label: records.LabelUser, InputDatasets: []string{"data25.ds12"},
			JobCount: 6, FilesPerJob: 1,
		})
		f.eng.Run()
		_ = task
		var out []int64
		for _, j := range f.jobs {
			out = append(out, j.PandaID, int64(j.EndTime))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic record count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	f := newFixture(14, Options{})
	if id := f.sys.nextPandaID(); id <= 6_580_000_000 {
		t.Errorf("pandaid %d outside paper-like range", id)
	}
	if id := f.sys.nextTaskID(); id <= 40_000_000 {
		t.Errorf("jeditaskid %d outside paper-like range", id)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.DirectIOFraction != 0.40 || o.CacheHitProb != 0.88 || o.TaskFailThreshold != 0.15 {
		t.Errorf("defaults not applied: %+v", o)
	}
}
