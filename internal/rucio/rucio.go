package rucio

import (
	"sort"

	"panrucio/internal/netsim"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// EventSink receives completed transfer events. The metastore installs a
// sink that applies metadata corruption and indexes the record.
type EventSink func(*records.TransferEvent)

// Options tunes the Rucio substrate.
type Options struct {
	// TapeStageLatency is the extra mount/positioning delay applied before
	// a transfer whose source RSE is tape (default 900s).
	TapeStageLatency simtime.VTime
	// SequentialSiteFraction is the fraction of sites whose storage
	// front-end serves pilot downloads one file at a time (paper Fig. 10
	// observes sequential, non-parallel stage-in at some sites).
	// Default 0.35.
	SequentialSiteFraction float64
}

func (o *Options) fill() {
	if o.TapeStageLatency == 0 {
		o.TapeStageLatency = 900
	}
	if o.SequentialSiteFraction == 0 {
		o.SequentialSiteFraction = 0.35
	}
}

// Rucio is the data-management system instance.
type Rucio struct {
	eng  *simtime.Engine
	grid *topology.Grid
	net  *netsim.Network
	rng  *simtime.RNG
	opts Options

	catalog *Catalog
	sink    EventSink

	nextEventID int64

	// sequentialSite caches the per-site stage-in discipline.
	sequentialSite map[string]bool

	// EmittedEvents counts events delivered to the sink.
	EmittedEvents int64
}

// New constructs the Rucio substrate. sink may be nil (events dropped).
// The catalog registers the grid's RSEs first and in order, so catalog RSE
// id i is grid RSE i and replica walks resolve sites through the grid's
// per-RSE tables.
func New(eng *simtime.Engine, grid *topology.Grid, net *netsim.Network, rng *simtime.RNG, opts Options, sink EventSink) *Rucio {
	opts.fill()
	catalog := NewCatalog()
	for _, x := range grid.RSEs() {
		catalog.rseID(x.Name)
	}
	return &Rucio{
		eng: eng, grid: grid, net: net, rng: rng, opts: opts,
		catalog:        catalog,
		sink:           sink,
		sequentialSite: make(map[string]bool),
	}
}

// Catalog exposes the DID namespace.
func (r *Rucio) Catalog() *Catalog { return r.catalog }

// SetSink replaces the event sink (used by tests and by the metastore when
// it attaches after construction).
func (r *Rucio) SetSink(s EventSink) { r.sink = s }

// SequentialSite reports (memoizing a deterministic draw) whether a site's
// storage serves pilot downloads sequentially.
func (r *Rucio) SequentialSite(site string) bool {
	if v, ok := r.sequentialSite[site]; ok {
		return v
	}
	v := r.rng.Split("seq/" + site).Bool(r.opts.SequentialSiteFraction)
	r.sequentialSite[site] = v
	return v
}

func (r *Rucio) emit(ev *records.TransferEvent) {
	r.nextEventID++
	ev.EventID = r.nextEventID
	r.EmittedEvents++
	if r.sink != nil {
		r.sink(ev)
	}
}

// siteOfRSE maps an RSE name to its site, or UNKNOWN for unrecognized RSEs.
func (r *Rucio) siteOfRSE(rse string) string {
	if x, ok := r.grid.RSE(rse); ok {
		return x.Site
	}
	return topology.UnknownSite
}

// chooseSource picks the best available source replica of f for the site
// at index dst (Grid.SiteIndex): prefer an RSE at the destination site,
// then the highest-bandwidth link; equal scores go to the smaller RSE name.
// It returns the source's catalog RSE id.
func (r *Rucio) chooseSource(f *FileInfo, dst int) (int, bool) {
	names := r.catalog.rseNames
	best, bestScore := -1, 0.0
	for _, e := range f.replicas {
		if e.state != uint8(ReplicaAvailable) {
			continue
		}
		id := int(e.rse)
		site := r.grid.RSESite(id)
		score := r.grid.SiteLinkGbps(site, dst)
		if site == dst {
			score += 1e6 // local replicas always win
			if r.tapeRSE(id) {
				score -= 5e5 // but disk beats tape
			}
		}
		if best < 0 || score > bestScore || (score == bestScore && names[id] < names[best]) {
			best, bestScore = id, score
		}
	}
	return best, best >= 0
}

// tapeRSE reports whether catalog RSE id is one of the grid's tape RSEs.
func (r *Rucio) tapeRSE(id int) bool {
	rses := r.grid.RSEs()
	return id < len(rses) && rses[id].Kind == topology.Tape
}

// transferSpec is the internal unit the transfer engine executes.
type transferSpec struct {
	file     *FileInfo
	src      int    // catalog RSE id of the source replica
	dstRSE   string // empty for worker-scratch downloads
	dstSite  string
	activity records.Activity
	jedi     int64
	register bool // register a replica at dstRSE on completion
	download bool
	upload   bool
	onDone   func(ev *records.TransferEvent)
}

// execute runs one file transfer through the network and emits its event.
func (r *Rucio) execute(sp transferSpec) {
	srcRSE := r.catalog.rseNames[sp.src]
	srcSite := r.grid.AxisLabel(r.grid.RSESite(sp.src))
	submitted := r.eng.Now()
	start := func() {
		r.net.Start(srcSite, sp.dstSite, sp.file.Size, func(tr *netsim.Transfer) {
			if sp.register && sp.dstRSE != "" {
				r.catalog.SetReplica(sp.file, sp.dstRSE, ReplicaAvailable)
			}
			ev := &records.TransferEvent{
				LFN:             sp.file.LFN,
				Scope:           sp.file.Scope,
				Dataset:         sp.file.Dataset,
				ProdDBlock:      sp.file.ProdDBlock,
				FileSize:        sp.file.Size,
				SourceRSE:       srcRSE,
				DestinationRSE:  sp.dstRSE,
				SourceSite:      srcSite,
				DestinationSite: sp.dstSite,
				Activity:        sp.activity,
				IsDownload:      sp.download,
				IsUpload:        sp.upload,
				JediTaskID:      sp.jedi,
				SubmittedAt:     submitted,
				StartedAt:       tr.Started,
				EndedAt:         tr.Finished,
				ThroughputBps:   tr.Throughput(),
			}
			r.emit(ev)
			if sp.onDone != nil {
				sp.onDone(ev)
			}
		})
	}
	// Tape sources pay a staging latency before the network movement.
	if r.tapeRSE(sp.src) {
		r.eng.After(r.rng.VExp(r.opts.TapeStageLatency), start)
	} else {
		start()
	}
}

// EnsureReplicas applies a replication-rule evaluation: every file of the
// set missing from dstRSE is transferred there and registered. onComplete
// (may be nil) fires when all files are available. Files with no source
// replica anywhere are counted in the returned missing count and skipped.
func (r *Rucio) EnsureReplicas(files []*FileInfo, dstRSE string, activity records.Activity, jedi int64, onComplete func()) (missing int) {
	dstSite := r.siteOfRSE(dstRSE)
	dst := r.grid.SiteIndex(dstSite)
	var pending int
	var fired bool
	finish := func() {
		if pending == 0 && !fired {
			fired = true
			if onComplete != nil {
				onComplete()
			}
		}
	}
	for _, f := range files {
		if r.catalog.HasReplica(f, dstRSE) {
			continue
		}
		src, ok := r.chooseSource(f, dst)
		if !ok {
			missing++
			continue
		}
		pending++
		r.catalog.SetReplica(f, dstRSE, ReplicaCopying)
		r.execute(transferSpec{
			file: f, src: src, dstRSE: dstRSE, dstSite: dstSite,
			activity: activity, jedi: jedi, register: true, download: true,
			onDone: func(*records.TransferEvent) {
				pending--
				finish()
			},
		})
	}
	finish()
	return missing
}

// PilotFetch performs worker-node stage-in at a site: each file is copied
// from its best source replica to the site (scratch space; no replica is
// registered). Sites with a sequential storage front-end fetch one file at
// a time; others fetch in parallel. onComplete fires when all files have
// arrived; files with no replica anywhere are skipped and counted.
func (r *Rucio) PilotFetch(files []*FileInfo, site string, activity records.Activity, jedi int64, onComplete func()) (missing int) {
	return r.PilotFetchEach(files, site, activity, jedi, nil, onComplete)
}

// PilotFetchEach is PilotFetch with an additional per-file callback fired
// as each transfer event completes (used by the late-start pilot path,
// which launches the payload after the first file lands).
func (r *Rucio) PilotFetchEach(files []*FileInfo, site string, activity records.Activity, jedi int64, onFile func(*records.TransferEvent), onComplete func()) (missing int) {
	var specs []transferSpec
	dst := r.grid.SiteIndex(site)
	for _, f := range files {
		src, ok := r.chooseSource(f, dst)
		if !ok {
			missing++
			continue
		}
		specs = append(specs, transferSpec{
			file: f, src: src, dstSite: site,
			activity: activity, jedi: jedi, download: true,
		})
	}
	if len(specs) == 0 {
		if onComplete != nil {
			onComplete()
		}
		return missing
	}
	remaining := len(specs)
	onEach := func(ev *records.TransferEvent) {
		remaining--
		if onFile != nil {
			onFile(ev)
		}
		if remaining == 0 && onComplete != nil {
			onComplete()
		}
	}
	if r.SequentialSite(site) {
		// Chain: each completion launches the next file.
		var launch func(i int)
		launch = func(i int) {
			sp := specs[i]
			sp.onDone = func(ev *records.TransferEvent) {
				onEach(ev)
				if i+1 < len(specs) {
					launch(i + 1)
				}
			}
			r.execute(sp)
		}
		launch(0)
	} else {
		for i := range specs {
			sp := specs[i]
			sp.onDone = onEach
			r.execute(sp)
		}
	}
	return missing
}

// Upload registers a freshly produced file and copies it from the producing
// site to dstRSE, emitting an upload event. The file must already be in the
// catalog (attached to its output dataset).
func (r *Rucio) Upload(f *FileInfo, fromSite, dstRSE string, activity records.Activity, jedi int64, onComplete func(ev *records.TransferEvent)) {
	dstSite := r.siteOfRSE(dstRSE)
	submitted := r.eng.Now()
	r.catalog.SetReplica(f, dstRSE, ReplicaCopying)
	r.net.Start(fromSite, dstSite, f.Size, func(tr *netsim.Transfer) {
		r.catalog.SetReplica(f, dstRSE, ReplicaAvailable)
		ev := &records.TransferEvent{
			LFN:             f.LFN,
			Scope:           f.Scope,
			Dataset:         f.Dataset,
			ProdDBlock:      f.ProdDBlock,
			FileSize:        f.Size,
			DestinationRSE:  dstRSE,
			SourceSite:      fromSite,
			DestinationSite: dstSite,
			Activity:        activity,
			IsUpload:        true,
			JediTaskID:      jedi,
			SubmittedAt:     submitted,
			StartedAt:       tr.Started,
			EndedAt:         tr.Finished,
			ThroughputBps:   tr.Throughput(),
		}
		r.emit(ev)
		if onComplete != nil {
			onComplete(ev)
		}
	})
}

// DiskRSEs lists all disk RSE names, sorted (helper for placement draws).
func (r *Rucio) DiskRSEs() []string {
	var out []string
	for _, x := range r.grid.RSEs() {
		if x.Kind == topology.Disk {
			out = append(out, x.Name)
		}
	}
	sort.Strings(out)
	return out
}
