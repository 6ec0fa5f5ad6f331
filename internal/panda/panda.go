package panda

import (
	"fmt"
	"math"

	"panrucio/internal/records"
	"panrucio/internal/rucio"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// Options tunes job behaviour. Zero fields take the documented defaults.
type Options struct {
	// DirectIOFraction of analysis jobs stream their input during execution
	// (Analysis Download Direct IO) instead of pre-staging (default 0.40).
	DirectIOFraction float64
	// CacheHitProb is the probability that a job's input is already on the
	// worker-local cache (or accessed through a path that bypasses Rucio
	// event emission), producing no download events at all (default 0.85).
	// This is the main reason most jobs have no matched transfers.
	CacheHitProb float64
	// UploadWithJediFraction of user jobs record their output upload with a
	// jeditaskid; the rest are merged asynchronously without one (default
	// 0.01 — Table 1's Analysis Upload row is tiny but matches at ~95 %).
	UploadWithJediFraction float64
	// RedundantPrestageProb triggers a spurious duplicate stage-in at job
	// creation (before the pilot's real fetch) — the paper's Fig. 12
	// redundant-transfer pathology (default 0.04).
	RedundantPrestageProb float64
	// LateStartProb lets the payload start while stage-in is still running,
	// so the transfer spans queue and wall time (Fig. 11; default 0.15).
	LateStartProb float64
	// LateStartFailureBoost is the extra failure probability for jobs whose
	// stage-in bled into execution — the paper's Fig. 11 case ("it remains
	// plausible that the lengthy transfer increased the likelihood of
	// failure"; default 0.45).
	LateStartFailureBoost float64
	// DispatchDelayMean is the mean brokerage + pilot-provisioning latency
	// (exponential) between job creation and entry into the site backlog
	// (default 1200s). This is the queuing-time component unrelated to
	// data movement; it keeps the typical transfer-time fraction small
	// (the paper measures an 8.43 % mean and 1.94 % geometric mean).
	DispatchDelayMean simtime.VTime
	// RemoteBrokerageProb sends a job to a site that does not hold its
	// input even when a data site exists (queue pressure; default 0.05).
	RemoteBrokerageProb float64
	// BaseFailureProb is the staging-independent job failure rate (default 0.11).
	BaseFailureProb float64
	// StagingFailureBoost scales extra failure probability with the
	// fraction of queue time spent transferring (default 0.55), producing
	// Fig. 9's failure / transfer-time correlation.
	StagingFailureBoost float64
	// WalltimeMu/WalltimeSigma parameterize LogNormal payload durations in
	// seconds (defaults ln(5400) and 1.1).
	WalltimeMu, WalltimeSigma float64
	// TaskFailThreshold: a task is failed if more than this fraction of its
	// jobs failed (default 0.15 — JEDI retries are not modeled, and the
	// paper's matched population has ~40 % of its successful jobs inside
	// failed tasks, implying tasks fail on a small failed-job fraction).
	TaskFailThreshold float64
	// Broker overrides the brokerage policy (default: DataLocalityPolicy
	// with RemoteBrokerageProb escape hatch, the paper's PanDA heuristic).
	Broker BrokerPolicy
}

func (o *Options) fill() {
	def := func(p *float64, v float64) {
		if *p == 0 {
			*p = v
		}
	}
	def(&o.DirectIOFraction, 0.40)
	def(&o.CacheHitProb, 0.88)
	def(&o.UploadWithJediFraction, 0.01)
	def(&o.RedundantPrestageProb, 0.04)
	def(&o.LateStartProb, 0.15)
	def(&o.LateStartFailureBoost, 0.45)
	def(&o.RemoteBrokerageProb, 0.05)
	if o.DispatchDelayMean == 0 {
		o.DispatchDelayMean = 1200
	}
	def(&o.BaseFailureProb, 0.11)
	def(&o.StagingFailureBoost, 0.55)
	def(&o.WalltimeMu, math.Log(5400))
	def(&o.WalltimeSigma, 1.1)
	def(&o.TaskFailThreshold, 0.15)
}

// BrokerPolicy selects a computing site for a job. The default is the
// paper's data-centric heuristic (DataLocalityPolicy); the coopt package
// provides the co-optimization alternatives the paper's conclusion calls
// for. Policies must be deterministic given the rng.
type BrokerPolicy interface {
	// Name identifies the policy in experiment reports.
	Name() string
	// Choose returns the computing site for the job. The System exposes
	// read-only state (grid, catalog, per-site load) for scoring. The rng
	// is recycled after the task's jobs are enqueued — draw from it only
	// during the call, never retain it.
	Choose(j *Job, s *System, rng *simtime.RNG) string
}

// JobSink receives the job record when its task completes (the paper's
// query module only reports jobs whose task reached a terminal state inside
// the window). The record is borrowed for the call: the System refills it
// for the next put, so a sink copies what it keeps.
type JobSink func(*records.JobRecord)

// FileSink receives JEDI file-table rows alongside the job record, each
// borrowed for the call like JobSink's.
type FileSink func(*records.FileRecord)

// TaskSpec describes a JEDI task to submit.
type TaskSpec struct {
	Label         records.SourceLabel
	InputDatasets []string // catalogued dataset names
	JobCount      int
	FilesPerJob   int // inputs per job, drawn round-robin from the datasets
	OutputScope   string
}

// Task is a submitted JEDI task.
type Task struct {
	JediTaskID int64
	Spec       TaskSpec
	Jobs       []*Job
	doneJobs   int
	failedJobs int
	Status     records.TaskStatus
	OutputDS   string
}

// Job is one PanDA job.
type Job struct {
	PandaID int64
	Task    *Task

	Inputs   []*rucio.FileInfo
	Output   *rucio.FileInfo
	Site     string
	DirectIO bool

	site *siteState // Site's pilot pool, bound at brokerage

	Creation simtime.VTime
	Start    simtime.VTime
	End      simtime.VTime

	Status    records.JobStatus
	ErrorCode int
	ErrorMsg  string

	stagingBegan simtime.VTime
	stagingEnded simtime.VTime
}

// errorTable holds the failure modes observed in the paper's case studies
// plus common PanDA pilot errors. Weights are relative.
var errorTable = []struct {
	code int
	msg  string
	w    float64
}{
	{1305, "Non-zero return code from Overlay (1)", 2},
	{1099, "Stage-in timed out", 3},
	{1137, "Lost heartbeat", 2},
	{1213, "Payload exceeded memory limit", 1.5},
	{1361, "Output file size exceeded quota", 0.5},
	{1150, "Transfer failure: checksum mismatch", 1.5},
}

// siteState is a per-site pilot pool with a FIFO backlog.
type siteState struct {
	slots   int
	running int
	backlog []*Job
}

// System is the PanDA instance.
type System struct {
	eng  *simtime.Engine
	grid *topology.Grid
	ruc  *rucio.Rucio
	rng  *simtime.RNG
	opts Options

	jobSink  JobSink
	fileSink FileSink

	// job and file are the records lent to the sinks, refilled for every
	// put, so emitting a task allocates no record.
	job  records.JobRecord
	file records.FileRecord

	// Per-site tables in grid.Sites() order: a site's index here is its
	// Grid.SiteIndex.
	sites      []*siteState
	siteNames  []string
	cpuWeights []float64

	// siteBytes is the brokerage scratch slice reused by inputBytesBySite
	// (the engine is single-threaded, so one buffer suffices).
	siteBytes []int64

	// rngPool recycles per-entity generators (one stream per task, one per
	// job). Re-seeding is O(1), but each generator still carries a 4.9 KB
	// state vector, and a run splits one per job: without the pool a
	// scale-1 run's 80k jobs would allocate ~400 MB more. Recycling changes
	// no draw sequence, since Reseed restores the exact fresh-source state.
	rngPool []*simtime.RNG

	nextTask int64
	nextJob  int64

	// Counters for quick inspection.
	SubmittedTasks int64
	SubmittedJobs  int64
	FinishedJobs   int64
	FailedJobs     int64
}

// NewSystem wires a PanDA instance over the grid and a Rucio instance.
// Sinks may be nil.
func NewSystem(eng *simtime.Engine, grid *topology.Grid, ruc *rucio.Rucio, rng *simtime.RNG, opts Options, js JobSink, fs FileSink) *System {
	opts.fill()
	s := &System{
		eng: eng, grid: grid, ruc: ruc, rng: rng, opts: opts,
		jobSink: js, fileSink: fs,
		siteBytes: make([]int64, len(grid.Sites())),
	}
	for _, site := range grid.Sites() {
		s.sites = append(s.sites, &siteState{slots: site.CPUSlots})
		s.siteNames = append(s.siteNames, site.Name)
		s.cpuWeights = append(s.cpuWeights, float64(site.CPUSlots))
	}
	return s
}

// splitRNG derives the child stream for label, reusing a pooled generator
// when one is free. The stream is identical to s.rng.Split(label); callers
// hand the generator back with releaseRNG once no further draws can occur.
func (s *System) splitRNG(label string) *simtime.RNG {
	if n := len(s.rngPool); n > 0 {
		g := s.rngPool[n-1]
		s.rngPool = s.rngPool[:n-1]
		s.rng.SplitInto(g, label)
		return g
	}
	return s.rng.Split(label)
}

// releaseRNG returns a dead generator to the pool. Generators owned by
// jobs the engine horizon cuts off are simply never returned.
func (s *System) releaseRNG(g *simtime.RNG) {
	s.rngPool = append(s.rngPool, g)
}

// nextTaskID allocates JEDI task ids in the paper's 7-digit range.
func (s *System) nextTaskID() int64 {
	s.nextTask++
	return 40_000_000 + s.nextTask
}

// nextPandaID allocates PanDA ids in the paper's 10-digit range.
func (s *System) nextPandaID() int64 {
	s.nextJob++
	return 6_580_000_000 + s.nextJob
}

// SubmitTask creates the task's jobs, brokers each one, and enqueues them.
// It returns the task handle; terminal state is reached asynchronously as
// the simulation runs.
func (s *System) SubmitTask(spec TaskSpec) (*Task, error) {
	if spec.JobCount <= 0 {
		return nil, fmt.Errorf("panda: task needs at least one job")
	}
	if spec.FilesPerJob <= 0 {
		spec.FilesPerJob = 1
	}
	if spec.OutputScope == "" {
		spec.OutputScope = "user.out"
	}
	var pool []*rucio.FileInfo
	for _, dsn := range spec.InputDatasets {
		ds, ok := s.ruc.Catalog().Dataset(dsn)
		if !ok {
			return nil, fmt.Errorf("panda: input dataset %q not in catalog", dsn)
		}
		pool = append(pool, ds.Files...)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("panda: task has no input files")
	}
	// JEDI semantics: a task's jobs process disjoint subsets of the input
	// — each file is handled by exactly one job. Cap the job count (and the
	// per-job file count) to the pool size so subsets never overlap;
	// overlapping subsets would let Algorithm 1's per-task candidate set
	// cross-contaminate sibling jobs, which production metadata does not do.
	if spec.FilesPerJob > len(pool) {
		spec.FilesPerJob = len(pool)
	}
	if maxJobs := len(pool) / spec.FilesPerJob; spec.JobCount > maxJobs {
		spec.JobCount = maxJobs
	}
	t := &Task{JediTaskID: s.nextTaskID(), Spec: spec}
	t.OutputDS = fmt.Sprintf("%s.%d.out", spec.OutputScope, t.JediTaskID)
	if _, err := s.ruc.Catalog().CreateDataset(spec.OutputScope, t.OutputDS); err != nil {
		return nil, err
	}
	s.SubmittedTasks++
	// The task stream dies with this loop: brokerage and enqueue draw
	// synchronously, and the dispatch closure captures no rng.
	taskRNG := s.splitRNG(fmt.Sprintf("task/%d", t.JediTaskID))
	defer s.releaseRNG(taskRNG)
	for i := 0; i < spec.JobCount; i++ {
		j := &Job{
			PandaID:  s.nextPandaID(),
			Task:     t,
			Creation: s.eng.Now(),
		}
		j.Inputs = make([]*rucio.FileInfo, spec.FilesPerJob)
		for k := range j.Inputs {
			j.Inputs[k] = pool[(i*spec.FilesPerJob+k)%len(pool)]
		}
		j.DirectIO = spec.Label == records.LabelUser && taskRNG.Bool(s.opts.DirectIOFraction)
		j.Site = s.broker(j, taskRNG)
		j.site = s.site(j.Site)
		t.Jobs = append(t.Jobs, j)
		s.SubmittedJobs++
		s.enqueue(j, taskRNG)
	}
	return t, nil
}

// broker dispatches to the configured policy (default: data locality).
func (s *System) broker(j *Job, rng *simtime.RNG) string {
	if s.opts.Broker != nil {
		return s.opts.Broker.Choose(j, s, rng)
	}
	return DataLocalityPolicy{}.Choose(j, s, rng)
}

// DataLocalityPolicy is PanDA's production heuristic (Section 3.1 of the
// paper): assign the job to the site whose primary RSE holds the most
// input bytes, discounted by backlog pressure. With RemoteBrokerageProb
// (or when no site holds any input) the job goes to a CPU-weighted random
// site instead.
type DataLocalityPolicy struct{}

// Name implements BrokerPolicy.
func (DataLocalityPolicy) Name() string { return "data-locality" }

// Choose implements BrokerPolicy.
func (DataLocalityPolicy) Choose(j *Job, s *System, rng *simtime.RNG) string {
	if !rng.Bool(s.opts.RemoteBrokerageProb) {
		if i := s.bestDataSite(j); i >= 0 {
			return s.siteNames[i]
		}
	}
	return s.siteNames[rng.Choice(s.cpuWeights)]
}

// bestDataSite scores every site holding some of the job's input by its
// input bytes over backlog pressure and returns the best site's index, or
// -1 when no site holds any input. Sites are scanned in SiteNames order
// with a strict >, so ties go to the first site.
func (s *System) bestDataSite(j *Job) int {
	best, bestScore := -1, 0.0
	for i, bytes := range s.inputBytesBySite(j) {
		if bytes == 0 {
			continue
		}
		st := s.sites[i]
		pressure := 1 + float64(len(st.backlog))/math.Max(1, float64(st.slots))
		score := float64(bytes) / pressure
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// inputBytesBySite computes InputBytesAt for every site in one pass by
// inverting the probe: walk each input file's replica list once and
// attribute its size to the site whose primary RSE holds it, instead of
// probing every (file, site) pair. Returns the reused scratch slice,
// indexed like SiteNames and valid until the next call; values are
// identical to calling InputBytesAt per site (integer sums are
// order-insensitive).
func (s *System) inputBytesBySite(j *Job) []int64 {
	clear(s.siteBytes)
	cat := s.ruc.Catalog()
	for _, f := range j.Inputs {
		size := f.Size
		cat.EachAvailableReplica(f, func(rse int) {
			if site := s.grid.PrimaryFor(rse); site >= 0 {
				s.siteBytes[site] += size
			}
		})
	}
	return s.siteBytes
}

// InputBytesAt sums the job's input bytes available at a site's primary
// disk RSE (the data-locality signal).
func (s *System) InputBytesAt(j *Job, site string) int64 {
	rse, ok := s.grid.PrimaryRSE(site)
	if !ok {
		return 0
	}
	var bytes int64
	for _, f := range j.Inputs {
		if s.ruc.Catalog().HasReplica(f, rse.Name) {
			bytes += f.Size
		}
	}
	return bytes
}

// SiteNames lists all brokerage candidates in stable order.
func (s *System) SiteNames() []string { return s.siteNames }

// site resolves a site name to its pilot pool, or nil for unknown names.
func (s *System) site(name string) *siteState {
	if i := s.grid.SiteIndex(name); i < len(s.sites) {
		return s.sites[i]
	}
	return nil
}

// SiteBacklog reports the queued (not yet piloted) jobs at a site.
func (s *System) SiteBacklog(site string) int {
	if st := s.site(site); st != nil {
		return len(st.backlog)
	}
	return 0
}

// SiteSlots reports a site's pilot-pool capacity.
func (s *System) SiteSlots(site string) int {
	if st := s.site(site); st != nil {
		return st.slots
	}
	return 0
}

// Grid exposes the topology for brokerage policies.
func (s *System) Grid() *topology.Grid { return s.grid }

// Rucio exposes the data-management substrate for brokerage policies.
func (s *System) Rucio() *rucio.Rucio { return s.ruc }

// enqueue routes a job through the brokerage/pilot-provisioning delay into
// its site backlog. A redundant prestage may fire immediately at creation
// (Fig. 12 pathology: the file set moves before the pilot's real fetch).
func (s *System) enqueue(j *Job, rng *simtime.RNG) {
	if !j.DirectIO && rng.Bool(s.opts.RedundantPrestageProb) {
		activity := records.AnalysisDownload
		if j.Task.Spec.Label == records.LabelManaged {
			activity = records.ProductionDown
		}
		s.ruc.PilotFetch(j.Inputs, j.Site, activity, j.Task.JediTaskID, nil)
	}
	delay := rng.VExp(s.opts.DispatchDelayMean)
	s.eng.After(delay, func() {
		st := j.site
		st.backlog = append(st.backlog, j)
		s.pump(st)
	})
}

// pump starts pilots while slots and backlog both remain.
func (s *System) pump(st *siteState) {
	for st.running < st.slots && len(st.backlog) > 0 {
		j := st.backlog[0]
		st.backlog = st.backlog[1:]
		st.running++
		s.beginPilot(j)
	}
}

// beginPilot runs the stage-in phase. The pilot holds its slot through
// stage-in, payload, and stage-out, like a real PanDA pilot.
func (s *System) beginPilot(j *Job) {
	jr := s.splitRNG(fmt.Sprintf("job/%d", j.PandaID))
	j.stagingBegan = s.eng.Now()

	activity := records.AnalysisDownload
	label := j.Task.Spec.Label
	if label == records.LabelManaged {
		activity = records.ProductionDown
	}

	cached := jr.Bool(s.opts.CacheHitProb)
	switch {
	case cached:
		// Input already on worker cache: no transfer events.
		j.stagingEnded = s.eng.Now()
		s.startPayload(j, jr)
	case j.DirectIO:
		// Streaming mode: payload starts now; transfers overlap execution.
		j.stagingEnded = s.eng.Now()
		s.startPayload(j, jr)
		s.ruc.PilotFetch(j.Inputs, j.Site, records.AnalysisDirectIO, j.Task.JediTaskID, nil)
	case len(j.Inputs) > 1 && jr.Bool(s.opts.LateStartProb):
		// Anomalous pilot: the payload launches as soon as the first file
		// lands, while the rest of stage-in continues — producing a
		// transfer that spans queue and wall time (Fig. 11).
		s.ruc.PilotFetchEach(j.Inputs, j.Site, activity, j.Task.JediTaskID,
			func(*records.TransferEvent) { s.startPayload(j, jr) },
			func() { j.stagingEnded = s.eng.Now() })
	default:
		s.ruc.PilotFetch(j.Inputs, j.Site, activity, j.Task.JediTaskID, func() {
			j.stagingEnded = s.eng.Now()
			s.startPayload(j, jr)
		})
	}
}

// startPayload marks execution start and schedules completion.
func (s *System) startPayload(j *Job, jr *simtime.RNG) {
	if j.Start != 0 {
		return // guard against double start in the late-start path
	}
	j.Start = s.eng.Now()
	wall := simtime.VTime(jr.LogNormal(s.opts.WalltimeMu, s.opts.WalltimeSigma))
	if wall < 30 {
		wall = 30
	}
	s.eng.After(wall, func() { s.finishPayload(j, jr) })
}

// finishPayload decides the outcome, performs stage-out, and finalizes.
func (s *System) finishPayload(j *Job, jr *simtime.RNG) {
	// Every draw from the job stream happens in this body (the upload
	// completion and late-start closures reference j only, and startPayload
	// guards against a late re-entry), so jr is dead once it returns.
	defer s.releaseRNG(jr)
	// Failure probability grows with the fraction of queue time spent
	// staging — the paper's central correlation (Fig. 9).
	queue := (j.Start - j.Creation).Seconds()
	staging := (j.stagingEnded - j.stagingBegan).Seconds()
	frac := 0.0
	if queue > 0 && staging > 0 {
		frac = staging / queue
		if frac > 1 {
			frac = 1
		}
	}
	pFail := s.opts.BaseFailureProb + s.opts.StagingFailureBoost*frac
	if j.stagingEnded == 0 || j.stagingEnded > j.Start {
		// Stage-in bled into execution: the storage path is misbehaving.
		pFail += s.opts.LateStartFailureBoost
	}
	if jr.Bool(pFail) {
		j.Status = records.JobFailed
		e := errorTable[weightedIndex(jr, errorTable)]
		j.ErrorCode, j.ErrorMsg = e.code, e.msg
	} else {
		j.Status = records.JobFinished
	}

	// Stage-out: produce the output file and (for a subset) upload it with
	// jeditaskid before the job is marked terminal.
	outSize := int64(jr.LogNormal(math.Log(8e8), 0.8))
	if outSize < 1e6 {
		outSize = 1e6
	}
	out := &rucio.FileInfo{
		LFN:        rucio.FileName(j.Task.OutputDS, j.PandaID, 10, ".root"),
		Scope:      j.Task.Spec.OutputScope,
		Dataset:    j.Task.OutputDS,
		ProdDBlock: j.Task.OutputDS,
		Size:       outSize,
	}
	if err := s.ruc.Catalog().AddFile(out); err == nil {
		j.Output = out
	}

	finish := func() { s.terminal(j) }
	if j.Output == nil || j.Status == records.JobFailed {
		finish()
		return
	}
	rse, ok := s.grid.PrimaryRSE(j.Site)
	if !ok {
		finish()
		return
	}
	jedi := int64(0)
	activity := records.AnalysisUpload
	if j.Task.Spec.Label == records.LabelManaged {
		jedi = j.Task.JediTaskID
		activity = records.ProductionUp
	} else if jr.Bool(s.opts.UploadWithJediFraction) {
		jedi = j.Task.JediTaskID
	}
	s.ruc.Upload(out, j.Site, rse.Name, activity, jedi, func(*records.TransferEvent) { finish() })
}

// terminal releases the slot, tallies, and — when the whole task is done —
// emits the job and file records for every job of the task.
func (s *System) terminal(j *Job) {
	j.End = s.eng.Now()
	st := j.site
	st.running--
	s.pump(st)

	t := j.Task
	t.doneJobs++
	if j.Status == records.JobFailed {
		t.failedJobs++
		s.FailedJobs++
	} else {
		s.FinishedJobs++
	}
	if t.doneJobs < len(t.Jobs) {
		return
	}
	if float64(t.failedJobs) > s.opts.TaskFailThreshold*float64(len(t.Jobs)) {
		t.Status = records.TaskFailed
	} else {
		t.Status = records.TaskDone
	}
	s.emitTask(t)
}

// emitTask delivers job and file records for a completed task.
func (s *System) emitTask(t *Task) {
	for _, j := range t.Jobs {
		var inBytes, outBytes int64
		for _, f := range j.Inputs {
			inBytes += f.Size
		}
		if j.Output != nil {
			outBytes = j.Output.Size
		}
		if s.jobSink != nil {
			s.job = records.JobRecord{
				PandaID:          j.PandaID,
				JediTaskID:       t.JediTaskID,
				ComputingSite:    j.Site,
				Label:            t.Spec.Label,
				CreationTime:     j.Creation,
				StartTime:        j.Start,
				EndTime:          j.End,
				Status:           j.Status,
				TaskStatus:       t.Status,
				NInputFileBytes:  inBytes,
				NOutputFileBytes: outBytes,
				ErrorCode:        j.ErrorCode,
				ErrorMessage:     j.ErrorMsg,
			}
			s.jobSink(&s.job)
		}
		if s.fileSink != nil {
			for _, f := range j.Inputs {
				s.emitFile(j, f, records.FileInput)
			}
			if j.Output != nil {
				s.emitFile(j, j.Output, records.FileOutput)
			}
		}
	}
}

// emitFile lends the file sink the JEDI row of one of the job's files.
func (s *System) emitFile(j *Job, f *rucio.FileInfo, kind records.FileKind) {
	s.file = records.FileRecord{
		PandaID: j.PandaID, JediTaskID: j.Task.JediTaskID,
		LFN: f.LFN, Scope: f.Scope, Dataset: f.Dataset,
		ProdDBlock: f.ProdDBlock, FileSize: f.Size,
		Kind: kind,
	}
	s.fileSink(&s.file)
}

// Backlog reports the total queued (not yet piloted) jobs across sites.
func (s *System) Backlog() int {
	total := 0
	for _, st := range s.sites {
		total += len(st.backlog)
	}
	return total
}

// Running reports the total currently executing pilots.
func (s *System) Running() int {
	total := 0
	for _, st := range s.sites {
		total += st.running
	}
	return total
}

func weightedIndex(rng *simtime.RNG, tbl []struct {
	code int
	msg  string
	w    float64
}) int {
	w := make([]float64, len(tbl))
	for i := range tbl {
		w[i] = tbl[i].w
	}
	return rng.Choice(w)
}
