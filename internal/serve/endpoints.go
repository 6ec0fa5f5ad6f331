package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"panrucio/internal/core"
	"panrucio/internal/experiments"
	"panrucio/internal/metastore"
	"panrucio/internal/obs"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
	"panrucio/internal/sweep"
)

// Body is the uniform JSON envelope of the analysis endpoints: the
// experiment's registry artifact under its id, the config digest and the
// epoch it was computed at. Marshaling a fixed struct (no maps) keeps
// bodies byte-identical run to run.
type Body struct {
	Experiment string `json:"experiment"`
	Digest     string `json:"digest"`
	Epoch      uint64 `json:"epoch"`
	experiments.Artifact
}

// Experiments lists the valid /api/experiments/{id} ids: the experiment
// registry's, in its order. E14 and E15 run scenarios of their own and
// cache under epoch 0; every other body derives from the serving store.
var Experiments = experiments.IDs()

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", timed("healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", obs.Handler(obs.Default()))
	s.mux.HandleFunc("GET /api/meta", timed("meta", s.handleMeta))
	s.mux.HandleFunc("GET /api/meta/layout", timed("layout", s.handleLayout))
	s.mux.HandleFunc("GET /api/experiments", timed("experiments", s.handleExperimentList))
	s.mux.HandleFunc("GET /api/experiments/{id}", timed("experiment", s.handleExperiment))
	s.mux.HandleFunc("GET /api/job", timed("job", s.handleJob))
	s.mux.HandleFunc("GET /api/match", timed("match", s.handleMatch))
	s.mux.HandleFunc("GET /api/task", timed("task", s.handleTask))
	s.mux.HandleFunc("GET /api/pandaids", timed("pandaids", s.handlePandaIDs))
	s.mux.HandleFunc("GET /api/verify", timed("verify", s.handleVerify))
	s.mux.HandleFunc("POST /api/sweep", timed("sweep", s.handleSweep))
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, "marshal: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, b)
}

func writeBody(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
	w.Write([]byte("\n"))
}

// respond builds a body inside a read window over the current state and
// writes it once the window has closed; build must not keep record
// pointers past its return. A write lasts as long as the client takes to
// read, and a live server's ingest waits for every open window to close,
// so no handler writes to the socket while it holds one. build returns the
// body or an error reply.
func (s *Server) respond(w http.ResponseWriter, build func(*state) ([]byte, error)) {
	body, err := func() ([]byte, error) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return build(s.st)
	}()
	reply(w, body, err)
}

// reply writes body, or err as an error reply: with its status if it is a
// *replyError, as a 500 otherwise.
func reply(w http.ResponseWriter, body []byte, err error) {
	if err == nil {
		writeBody(w, body)
		return
	}
	status := http.StatusInternalServerError
	var re *replyError
	if errors.As(err, &re) {
		status = re.status
	}
	http.Error(w, err.Error(), status)
}

// replyError is an error reply decided inside a read window.
type replyError struct {
	status int
	msg    string
}

func (e *replyError) Error() string { return e.msg }

func noJob(panda int64) error {
	return &replyError{http.StatusNotFound, fmt.Sprintf("no job with pandaid %d", panda)}
}

// handleHealthz answers without touching the store or any lock, so it
// works even while a live scenario is mid-ingest.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeBody(w, []byte(fmt.Sprintf(`{"ok":true,"epoch":%d}`, s.Epoch())))
}

// handleMeta reports the semantic view of the serving state: digest,
// epoch, window, and record counts. Byte-identical for any shard count or
// segment size (those live in /api/meta/layout).
func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func(st *state) ([]byte, error) {
		res := st.res
		return json.Marshal(struct {
			Digest         string `json:"digest"`
			Epoch          uint64 `json:"epoch"`
			Final          bool   `json:"final"`
			WindowFromSecs int64  `json:"window_from_secs"`
			WindowToSecs   int64  `json:"window_to_secs"`
			Jobs           int    `json:"jobs"`
			Files          int    `json:"files"`
			Transfers      int    `json:"transfers"`
			WithTaskID     int    `json:"transfers_with_taskid"`
		}{
			Digest:         s.digest,
			Epoch:          st.epoch,
			Final:          st.final,
			WindowFromSecs: int64(res.WindowFrom),
			WindowToSecs:   int64(res.WindowTo),
			Jobs:           res.Store.JobCount(),
			Files:          res.Store.FileCount(),
			Transfers:      res.Store.TransferCount(),
			WithTaskID:     res.Store.TransfersWithTaskID(),
		})
	})
}

// handleLayout reports the physical layout and runtime counters — the one
// endpoint whose body legitimately depends on the performance knobs
// (shards, segment size) and on request history (cache stats).
func (s *Server) handleLayout(w http.ResponseWriter, r *http.Request) {
	s.respond(w, func(st *state) ([]byte, error) {
		store := st.res.Store
		return json.Marshal(struct {
			Shards          int        `json:"shards"`
			SegmentRows     int        `json:"segment_rows"`
			SealedSegments  int        `json:"sealed_segments"`
			InternedStrings int        `json:"interned_strings"`
			Cache           CacheStats `json:"cache"`
		}{
			Shards:          store.ShardCount(),
			SegmentRows:     store.SegmentRows(),
			SealedSegments:  store.SealedSegments(),
			InternedStrings: store.InternedStrings(),
			Cache:           s.CacheStats(),
		})
	})
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Experiments []string `json:"experiments"`
	}{Experiments})
}

// handleExperiment serves one cached analysis body. The first request of
// an epoch pays the matching passes; every later one — and every
// concurrent duplicate — is a cache hit. An entry that runs its own
// scenarios (E14, E15) reads no store: it takes no read window, so a cold
// sweep never holds back ingest, and it caches under epoch 0, which
// survives epoch advances.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := experiments.Lookup(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown experiment %q", id), http.StatusNotFound)
		return
	}
	// render returns the cached body, filling the entry on a miss; st is
	// nil for an entry that reads no store.
	render := func(st *state) ([]byte, error) {
		key := cacheKey{digest: s.digest, id: id}
		if st != nil {
			key.epoch = st.epoch
		}
		body, err, _ := s.cache.get(key, func() ([]byte, error) {
			b := &Body{Experiment: id, Digest: s.digest, Epoch: key.epoch}
			if st != nil {
				b.Artifact = e.Suite(st.getSuite(s.opt.MatchWorkers))
			} else {
				b.Artifact = e.Scenarios(s.cfg.Seed, s.opt.MatchWorkers)
			}
			return json.Marshal(b)
		})
		return body, err
	}
	if e.Suite == nil {
		body, err := render(nil)
		reply(w, body, err)
		return
	}
	s.respond(w, render)
}

// jobView is the match-lookup payload: the job row plus its matched
// transfers under one method, flattened to values.
type jobView struct {
	Job       records.JobRecord       `json:"job"`
	Method    string                  `json:"method,omitempty"`
	Matched   int                     `json:"matched,omitempty"`
	Transfers []records.TransferEvent `json:"transfers,omitempty"`
	Files     []records.FileRecord    `json:"files,omitempty"`
}

func parseID(r *http.Request, name string) (int64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing %q parameter", name)
	}
	id, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %q parameter: %v", name, err)
	}
	return id, nil
}

// handleJob resolves a pandaid to its job row and JEDI file rows.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	panda, err := parseID(r, "panda")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.respond(w, func(st *state) ([]byte, error) {
		j, ok := st.res.Store.Job(panda)
		if !ok {
			return nil, noJob(panda)
		}
		v := jobView{Job: *j}
		for _, f := range st.res.Store.FilesForJob(j.PandaID, j.JediTaskID) {
			v.Files = append(v.Files, *f)
		}
		return json.Marshal(v)
	})
}

// handleMatch runs one matching probe live: the paper's Algorithm 1 on a
// single job, method-selectable, straight off the (frozen or mid-run)
// join indices. Not cached — the probe is a single-shard lookup.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	panda, err := parseID(r, "panda")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var method core.Method
	switch m := r.URL.Query().Get("method"); m {
	case "", "rm2":
		method = core.RM2
	case "rm1":
		method = core.RM1
	case "exact":
		method = core.Exact
	default:
		http.Error(w, fmt.Sprintf("unknown method %q (want exact, rm1, or rm2)", m), http.StatusBadRequest)
		return
	}
	s.respond(w, func(st *state) ([]byte, error) {
		j, ok := st.res.Store.Job(panda)
		if !ok {
			return nil, noJob(panda)
		}
		evs := core.NewMatcher(st.res.Store).MatchJob(j, method)
		v := jobView{Job: *j, Method: method.String(), Matched: len(evs)}
		for _, ev := range evs {
			v.Transfers = append(v.Transfers, *ev)
		}
		return json.Marshal(v)
	})
}

// handleTask lists a JEDI task's transfer events (ingestion order,
// capped by limit, default 256).
func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	jedi, err := parseID(r, "jedi")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	limit := 256
	if v := r.URL.Query().Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 1 {
			http.Error(w, "bad \"limit\" parameter", http.StatusBadRequest)
			return
		}
	}
	s.respond(w, func(st *state) ([]byte, error) {
		evs := st.res.Store.TransfersByTaskID(jedi)
		total := len(evs)
		if len(evs) > limit {
			evs = evs[:limit]
		}
		out := struct {
			JediTaskID int64                   `json:"jeditaskid"`
			Total      int                     `json:"total"`
			Transfers  []records.TransferEvent `json:"transfers"`
		}{JediTaskID: jedi, Total: total, Transfers: make([]records.TransferEvent, len(evs))}
		for i, ev := range evs {
			out.Transfers[i] = *ev
		}
		return json.Marshal(out)
	})
}

// handlePandaIDs returns the first `limit` pandaids (default 256, capped
// at 10,000) of the window's user jobs — the deterministic id sample
// cmd/loadgen seeds its match-lookup schedule from. It reads the state's
// shared job list, so only an epoch's first call (or suite build) queries
// the store.
func (s *Server) handlePandaIDs(w http.ResponseWriter, r *http.Request) {
	limit := 256
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "bad \"limit\" parameter", http.StatusBadRequest)
			return
		}
		if n > 10000 {
			n = 10000
		}
		limit = n
	}
	s.respond(w, func(st *state) ([]byte, error) {
		jobs := st.windowJobs()
		ids := make([]int64, min(limit, len(jobs)))
		for i := range ids {
			ids[i] = jobs[i].PandaID
		}
		return json.Marshal(struct {
			PandaIDs []int64 `json:"pandaids"`
		}{ids})
	})
}

// handleSweep launches a canned scenario grid through the sweep engine
// and returns its full JSON report. The report depends only on (grid,
// seed, scenarios) — never on the serving store or the worker count — so
// it caches under epoch 0 and repeated launches are free.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	gridName := q.Get("grid")
	if gridName == "" {
		gridName = "robustness"
	}
	seed := int64(1)
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad \"seed\" parameter", http.StatusBadRequest)
			return
		}
		seed = n
	}
	scenarios := 0
	if v := q.Get("scenarios"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad \"scenarios\" parameter", http.StatusBadRequest)
			return
		}
		scenarios = n
	}
	workers := 0
	if v := q.Get("workers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad \"workers\" parameter", http.StatusBadRequest)
			return
		}
		workers = n
	}
	grid, err := sweep.Canned(gridName, seed)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if scenarios == 0 || scenarios > s.opt.SweepScenarioCap {
		scenarios = s.opt.SweepScenarioCap
	}
	if scenarios < len(grid) {
		grid = grid[:scenarios]
	}
	key := cacheKey{
		digest: s.digest,
		epoch:  0,
		id:     fmt.Sprintf("sweep?grid=%s&seed=%d&scenarios=%d", gridName, seed, len(grid)),
	}
	body, err, _ := s.cache.get(key, func() ([]byte, error) {
		rep := sweep.Run(grid, sweep.Options{Workers: workers})
		return json.Marshal(struct {
			Grid      string        `json:"grid"`
			Seed      int64         `json:"seed"`
			Scenarios int           `json:"scenarios"`
			Report    *sweep.Report `json:"report"`
		}{gridName, seed, len(grid), rep})
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, body)
}

// violationView flattens a metastore.Violation for the /api/verify body.
type violationView struct {
	Segment string `json:"segment"`
	Row     int    `json:"row"`
	Kind    string `json:"kind"`
	Detail  string `json:"detail"`
}

// maxVerifyViolations caps how many violation details one /api/verify body
// carries; the count field is always exact.
const maxVerifyViolations = 32

// handleVerify re-audits the serving store against its segment commitments
// — full by default, or just the transfer rows in [from, to) seconds of
// virtual time with ?from/?to. Never cached: re-running the verification
// on every request is the point of the endpoint (a cached "clean" would
// not cover tamper that happened after the cache fill). Like
// /api/meta/layout, the body is layout-dependent (segment refs name
// physical shards), but the clean/violation verdict and the commitment
// digest are layout-independent.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	windowed := q.Get("from") != "" || q.Get("to") != ""
	var from, to int64
	var err error
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseInt(v, 10, 64); err != nil {
			http.Error(w, "bad \"from\" parameter", http.StatusBadRequest)
			return
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = strconv.ParseInt(v, 10, 64); err != nil {
			http.Error(w, "bad \"to\" parameter", http.StatusBadRequest)
			return
		}
	}
	if windowed && to <= from {
		http.Error(w, "empty window: need from < to", http.StatusBadRequest)
		return
	}

	s.respond(w, func(st *state) ([]byte, error) {
		store := st.res.Store
		var rep metastore.AuditReport
		if windowed {
			rep = store.AuditTransfersWindow(simtime.VTime(from), simtime.VTime(to))
		} else {
			rep = store.AuditSealed()
		}
		views := make([]violationView, 0, min(len(rep.Violations), maxVerifyViolations))
		for _, v := range rep.Violations {
			if len(views) == maxVerifyViolations {
				break
			}
			views = append(views, violationView{
				Segment: v.Ref.String(), Row: v.Row, Kind: string(v.Kind), Detail: v.Detail,
			})
		}
		return json.Marshal(struct {
			Digest     string          `json:"digest"`
			Epoch      uint64          `json:"epoch"`
			Windowed   bool            `json:"windowed"`
			Commitment string          `json:"commitment"`
			Segments   int             `json:"segments_audited"`
			Rows       int             `json:"rows_audited"`
			Clean      bool            `json:"clean"`
			Violations int             `json:"violations"`
			Details    []violationView `json:"details,omitempty"`
		}{
			Digest:     s.digest,
			Epoch:      st.epoch,
			Windowed:   windowed,
			Commitment: store.StoreCommitment().Digest(),
			Segments:   rep.Segments,
			Rows:       rep.Rows,
			Clean:      rep.Clean(),
			Violations: len(rep.Violations),
			Details:    views,
		})
	})
}
