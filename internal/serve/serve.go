package serve

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"panrucio/internal/experiments"
	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
)

// Options tunes a Server. The zero value is serviceable.
type Options struct {
	// MatchWorkers is the matcher fan-out used when an experiment body
	// needs the three matching passes (<= 0 selects GOMAXPROCS). Bodies
	// are byte-identical for any value.
	MatchWorkers int
	// CacheEntries bounds the result cache (<= 0 selects 256).
	CacheEntries int
	// SweepScenarioCap bounds how many scenarios one /api/sweep launch may
	// run (<= 0 selects 16) — the server-side guard against a request
	// asking for an unbounded amount of compute.
	SweepScenarioCap int
}

func (o *Options) fill() {
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.SweepScenarioCap <= 0 {
		o.SweepScenarioCap = 16
	}
}

// state is one published snapshot of the world: the store (live or
// frozen) plus everything analyses need, at one epoch. Two values derive
// from it lazily and live exactly as long as it does, so no epoch ever
// reads another's:
//   - the window's user jobs, queried once on first use and shared by
//     /api/pandaids and the suite build;
//   - the suite (the three matching passes over those jobs), built on the
//     first experiment request of the epoch and shared by all of them.
type state struct {
	res   *sim.Result
	epoch uint64
	final bool

	jobsOnce sync.Once
	jobs     []*records.JobRecord

	suiteOnce sync.Once
	suite     *experiments.Suite
}

// windowJobs returns the window's user jobs in pandaid order, querying
// the store on the first call only. The slice is shared: read it, never
// modify it.
func (st *state) windowJobs() []*records.JobRecord {
	st.jobsOnce.Do(func() {
		st.jobs = st.res.Store.Jobs(st.res.WindowFrom, st.res.WindowTo, records.LabelUser)
	})
	return st.jobs
}

func (st *state) getSuite(workers int) *experiments.Suite {
	st.suiteOnce.Do(func() { st.suite = experiments.BuildFromJobs(st.res, st.windowJobs(), workers) })
	return st.suite
}

// Server is the HTTP/JSON front end over one scenario's store. Handlers
// that read the store acquire the read half of mu while they build the
// body and write it after releasing it (respond); the live scenario's
// goroutine holds the write half while ingesting and releases it at every
// observer checkpoint, so reads run in windows where the store is
// quiescent — concurrently with each other, never with ingest — and a
// client that stops reading holds no window open. Handlers that read no
// store (/healthz, /metrics, the experiment list, E14/E15, /api/sweep)
// take no lock. For a frozen server the write half is never taken and
// reads are unrestricted.
type Server struct {
	opt    Options
	cfg    sim.Config // the served scenario; E14 and E15 run at its seed
	digest string
	cache  *resultCache
	mux    *http.ServeMux

	mu sync.RWMutex
	st *state

	epoch atomic.Uint64 // mirror of st.epoch for the lock-free /healthz
	done  chan struct{} // closed once the final (frozen) state is published
}

// NewFrozen serves a completed run: the store is frozen, the epoch is
// fixed at 1, and every read is lock-free in practice (the write lock has
// no writer). This is cmd/serve's default mode.
func NewFrozen(res *sim.Result, opt Options) *Server {
	s := newServer(res.Config, opt)
	s.st = &state{res: res, epoch: 1, final: true}
	s.epoch.Store(1)
	close(s.done)
	return s
}

// NewLive starts the scenario in the background and serves the live store
// between ingest bursts: every `every` of virtual time the run checkpoints,
// bumps the epoch, and opens a read window (queued requests drain against
// the quiescent mid-run store, then ingestion resumes); the run's end
// publishes the final frozen state and leaves the window open for good.
// Requests arriving before the first checkpoint block until it opens.
// The returned server is usable immediately; Done reports run completion.
func NewLive(cfg sim.Config, every simtime.VTime, opt Options) *Server {
	s := newServer(cfg, opt)
	grid := sim.GridFor(cfg)
	warmup := simtime.VTime(cfg.WarmupDays) * simtime.Day
	s.mu.Lock() // hold the write half until the first checkpoint
	go func() {
		res := sim.RunWithObserver(cfg, every, func(now simtime.VTime, store *metastore.Store) {
			s.publish(&sim.Result{
				Config:     cfg,
				Grid:       grid,
				Store:      store,
				WindowFrom: warmup,
				WindowTo:   now,
			}, false)
		})
		s.publish(res, true)
		close(s.done)
	}()
	return s
}

func newServer(cfg sim.Config, opt Options) *Server {
	opt.fill()
	s := &Server{
		opt:    opt,
		cfg:    cfg,
		digest: cfg.Digest(),
		cache:  newResultCache(opt.CacheEntries),
		done:   make(chan struct{}),
	}
	s.routes()
	return s
}

// publish swaps in a new state and opens a read window. It runs on the
// scenario goroutine with the write lock held; for a non-final state it
// re-acquires the lock before returning control to the event engine, so
// ingestion never overlaps a read. Pending readers are woken by the
// Unlock and drain before the Lock re-acquires.
//
// The store is frozen before the window opens: the freeze seals the tails
// ingested since the last checkpoint and compacts each time index to one
// run (join entries are already bound at ingest), so every reader of the
// window queries one binary-searched run and merges nothing. Freezing
// here, on the ingest thread, is what makes a published store merge-free;
// a Freeze a reader calls on it returns at once and writes nothing.
func (s *Server) publish(res *sim.Result, final bool) {
	res.Store.Freeze()
	epoch := s.epoch.Add(1)
	s.st = &state{res: res, epoch: epoch, final: final}
	s.cache.prune(epoch)
	mEpoch.Set(int64(epoch))
	t0 := time.Now()
	s.mu.Unlock()
	if !final {
		// The window is open from the Unlock until the Lock re-acquires —
		// queued readers drain in between, so the elapsed time is exactly
		// how long this epoch's read window stayed open.
		s.mu.Lock()
		mWindows.Inc()
		mWindowSeconds.ObserveSince(t0)
	}
}

// Done is closed once the backing run has completed and the final frozen
// state is being served (immediately for NewFrozen).
func (s *Server) Done() <-chan struct{} { return s.done }

// Epoch reports the current store epoch without taking any lock: 0 before
// a live server's first checkpoint, monotonically increasing after.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// Digest reports the semantic config digest every cached body is keyed
// under.
func (s *Server) Digest() string { return s.digest }

// CacheStats reports the result cache's counters.
func (s *Server) CacheStats() CacheStats { return s.cache.snapshot() }

// Handler returns the server's HTTP handler (also reachable through
// ServeHTTP — Server is itself an http.Handler).
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}
