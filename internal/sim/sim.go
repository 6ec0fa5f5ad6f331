package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"panrucio/internal/corruption"
	"panrucio/internal/metastore"
	"panrucio/internal/netsim"
	"panrucio/internal/obs"
	"panrucio/internal/panda"
	"panrucio/internal/records"
	"panrucio/internal/rucio"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
	"panrucio/internal/workload"
)

// Process-wide simulator metrics. Everything here updates at run or
// checkpoint granularity — never per event — so the event engine's hot
// loop carries no instrumentation cost at all.
var (
	mRuns = obs.Default().Counter("sim_runs_total",
		"completed scenario runs (Run, RunReusing, RunWithObserver)")
	mRunSeconds = obs.Default().Histogram("sim_run_wall_seconds",
		"wall time of one scenario run (simulation + final freeze)", obs.DefBuckets)
	mEventsPerSec = obs.Default().Gauge("sim_events_per_sec",
		"emitted events per wall second of the most recently completed run")
	mCheckpoints = obs.Default().Counter("sim_checkpoints_total",
		"observer checkpoints fired across all runs")
	mCheckpointSeconds = obs.Default().Histogram("sim_checkpoint_wall_seconds",
		"wall time from one observer checkpoint to the next (observer included)", obs.DefBuckets)
)

// Config selects the simulation scenario. Zero sub-configs take each
// package's defaults; Seed 0 means seed 1.
type Config struct {
	Seed int64
	// Days is the study-window length (default 8, the paper's main window).
	Days int
	// WarmupDays run before the window opens so the grid reaches steady
	// state; records emitted during warmup are ingested too, but analyses
	// window on [warmup, warmup+days) (default 0 for speed; the paper's
	// window semantics are preserved either way).
	WarmupDays int

	Grid       topology.DefaultSpec
	Net        netsim.Options
	Rucio      rucio.Options
	Panda      panda.Options
	Background rucio.BackgroundConfig
	Corruption corruption.Config
	Workload   workload.Config

	// DisableBackground turns off non-job traffic (useful in unit-scale
	// experiments that only need job-correlated events).
	DisableBackground bool

	// CPUScale multiplies every site's pilot-slot count (0 = 1.0). The
	// default grid is heavily over-provisioned, like the real WLCG for an
	// average week; contention studies (coopt) scale it down so brokerage
	// policy choices matter.
	CPUScale float64

	// Scale multiplies the scenario's event volume: task arrival rates,
	// background traffic rates, and the seeded catalog all grow by Scale
	// (applied on top of the filled defaults of Workload and Background —
	// explicitly-set fields scale too). The default scenario is calibrated
	// to roughly 1/20 of the paper's production volume, so Scale 20 is a
	// paper-scale (1x) run and Scale 200 the 10x stress case. 0 or 1 leaves
	// the scenario untouched, so default outputs are bit-for-bit unchanged.
	Scale float64

	// Shards selects the metastore shard count for Run (0 picks
	// metastore.DefaultShards). Purely a performance knob: outputs are
	// byte-identical for any value.
	Shards int

	// SegmentRows selects the metastore's segment-seal threshold per time
	// index (0 picks metastore.DefaultSegmentRows). Like Shards, purely a
	// performance knob: outputs are byte-identical for any value.
	SegmentRows int
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Days == 0 {
		c.Days = 8
	}
}

// Digest returns a short hex digest of the scenario's semantic content —
// the cache key the serving layer uses for result bodies. The two
// performance-only knobs (Shards, SegmentRows) are zeroed before hashing:
// query results are byte-identical for any value of either (the
// equivalence suites pin this), so two configs differing only there must
// share cached results. Defaults are filled first, so Seed 0 and Seed 1
// digest identically, as they run identically. Every Config field is
// plain value data, which keeps the %+v rendering — and therefore the
// digest — deterministic across processes.
func (c Config) Digest() string {
	c.fill()
	c.Shards = 0
	c.SegmentRows = 0
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", c)))
	return hex.EncodeToString(sum[:8])
}

// Result bundles everything an analysis needs after a run.
type Result struct {
	Config Config
	Grid   *topology.Grid
	Store  *metastore.Store

	// WindowFrom/WindowTo delimit the study window in virtual time.
	WindowFrom, WindowTo simtime.VTime

	// Corruption reports what the degradation layer did.
	Corruption corruption.Stats

	// Totals.
	SubmittedTasks int64
	SubmittedJobs  int64
	FinishedJobs   int64
	FailedJobs     int64
	EmittedEvents  int64
	StoredEvents   int64
	MovedBytes     int64
}

// Run executes the scenario to its horizon and returns the populated
// metastore plus run statistics. Deterministic for a given Config.
func Run(cfg Config) *Result {
	return RunReusing(cfg, metastore.NewShardedSegmented(cfg.Shards, cfg.SegmentRows))
}

// Observer is a mid-run checkpoint callback: it receives the virtual time
// of the checkpoint and the live, un-frozen store, which answers every
// query over exactly the records ingested so far (sealed segments + tail).
// Observers must not ingest records or retain record pointers past the run
// (the store is reset on reuse). Calling Seal or Freeze from the callback
// is allowed — both are content-preserving reorganizations, and the
// serving layer freezes at every checkpoint so its read windows serve a
// store with no mutation paths reachable from queries.
type Observer func(now simtime.VTime, store *metastore.Store)

// RunWithObserver is Run with a periodic mid-run checkpoint: every `every`
// of virtual time, obs is called with the live store. The observer rides
// the scenario's own event engine but mutates nothing, so the simulation
// trajectory — and the returned Result — is identical to Run's for the
// same Config. every <= 0 or a nil obs degenerates to plain Run.
func RunWithObserver(cfg Config, every simtime.VTime, obs Observer) *Result {
	store := metastore.NewShardedSegmented(cfg.Shards, cfg.SegmentRows)
	return runReusing(cfg, store, every, obs)
}

// RunReusing is Run with a caller-provided metastore: the store is Reset
// first, so its index maps' capacity carries over from previous runs. This
// is the entry point of the sweep engine, whose workers each own one store
// across many scenarios. The returned Result is identical to Run's for the
// same Config, but any records or query results obtained from the store
// before the call are invalidated.
func RunReusing(cfg Config, store *metastore.Store) *Result {
	return runReusing(cfg, store, 0, nil)
}

// RunReusingObserved combines RunReusing and RunWithObserver: a
// caller-provided store plus periodic mid-run checkpoints. The sweep
// engine uses it to emit run traces from its worker-owned stores; the
// Result (and every query output) is identical to RunReusing's for the
// same Config.
func RunReusingObserved(cfg Config, store *metastore.Store, every simtime.VTime, obs Observer) *Result {
	return runReusing(cfg, store, every, obs)
}

// GridFor builds the topology grid the scenario runs on — the same
// deterministic construction runReusing performs, including the CPUScale
// adjustment. The serving layer uses it to give mid-run observers a grid
// for analyses without extending the Observer signature.
func GridFor(cfg Config) *topology.Grid {
	grid := topology.Default(cfg.Grid)
	if cfg.CPUScale > 0 && cfg.CPUScale != 1 {
		for _, s := range grid.Sites() {
			s.CPUSlots = int(float64(s.CPUSlots) * cfg.CPUScale)
			if s.CPUSlots < 1 {
				s.CPUSlots = 1
			}
		}
	}
	return grid
}

func runReusing(cfg Config, store *metastore.Store, every simtime.VTime, obs Observer) *Result {
	store.Reset()
	cfg.fill()
	if cfg.Scale > 0 && cfg.Scale != 1 {
		cfg.Workload = cfg.Workload.Scaled(cfg.Scale)
		cfg.Background = cfg.Background.Scaled(cfg.Scale)
	}
	horizon := simtime.VTime(cfg.WarmupDays+cfg.Days) * simtime.Day
	eng := simtime.NewEngine(0, horizon)
	grid := GridFor(cfg)
	root := simtime.NewRNG(cfg.Seed)

	corr := corruption.New(root.Split("corruption"), cfg.Corruption)

	// Every put goes through the ingest pipe, which applies it off the
	// event loop; corruption stays ahead of it, so its draws keep their
	// order.
	pipe := newIngestPipe(store)
	net := netsim.New(eng, grid, root.Split("net"), cfg.Net)
	ruc := rucio.New(eng, grid, net, root.Split("rucio"), cfg.Rucio, func(ev *records.TransferEvent) {
		if corr.Transfer(ev) {
			pipe.putTransfer(ev)
		}
	})
	pan := panda.NewSystem(eng, grid, ruc, root.Split("panda"), cfg.Panda,
		pipe.putJob, pipe.putFile)
	workload.Start(eng, grid, ruc, pan, root.Split("workload"), cfg.Workload)
	if !cfg.DisableBackground {
		rucio.StartBackground(ruc, root.Split("background"), cfg.Background)
	}
	start := time.Now()
	if obs != nil && every > 0 {
		// The checkpoint event reschedules itself until the horizon. It only
		// reads the store, so it cannot perturb the trajectory of the
		// scenario's own events. The drain hands it every put made so far.
		last := start
		var tick func()
		tick = func() {
			pipe.drain()
			obs(eng.Now(), store)
			now := time.Now()
			mCheckpoints.Inc()
			mCheckpointSeconds.Observe(now.Sub(last).Seconds())
			last = now
			if eng.Now()+every < horizon {
				eng.After(every, "observer", tick)
			}
		}
		eng.After(every, "observer", tick)
	}

	eng.Run()
	// Ingestion is complete once the pipe drains: compact the time indices
	// now so the analyses start from a frozen store, whose ranged queries
	// read one binary-searched run and merge nothing.
	pipe.drain()
	store.Freeze()
	wall := time.Since(start)
	mRuns.Inc()
	mRunSeconds.Observe(wall.Seconds())
	if secs := wall.Seconds(); secs > 0 {
		mEventsPerSec.Set(int64(float64(ruc.EmittedEvents) / secs))
	}

	return &Result{
		Config:         cfg,
		Grid:           grid,
		Store:          store,
		WindowFrom:     simtime.VTime(cfg.WarmupDays) * simtime.Day,
		WindowTo:       horizon,
		Corruption:     corr.Stats,
		SubmittedTasks: pan.SubmittedTasks,
		SubmittedJobs:  pan.SubmittedJobs,
		FinishedJobs:   pan.FinishedJobs,
		FailedJobs:     pan.FailedJobs,
		EmittedEvents:  ruc.EmittedEvents,
		StoredEvents:   int64(store.TransferCount()),
		MovedBytes:     net.CompletedBytes,
	}
}

// QuickConfig returns a small, fast scenario (2 days, reduced arrival
// rates) for tests and the quickstart example.
func QuickConfig(seed int64) Config {
	return Config{
		Seed: seed,
		Days: 2,
		Workload: workload.Config{
			InitialDatasets:  120,
			UserTaskInterval: 600,
			ProdTaskInterval: 1800,
			UserJobsMean:     10,
			ProdJobsMean:     20,
		},
		Background: rucio.BackgroundConfig{
			ExportInterval:        3600,
			RebalanceInterval:     2400,
			ConsolidationInterval: 1200,
			SubscriptionInterval:  4800,
		},
	}
}

// PaperConfig returns the 8-day scenario whose scale mirrors the paper's
// study window at roughly 1/20 of production volume (see DESIGN.md).
func PaperConfig(seed int64) Config {
	return Config{Seed: seed, Days: 8}
}
