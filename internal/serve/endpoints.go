package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"panrucio/internal/analysis"
	"panrucio/internal/core"
	"panrucio/internal/metastore"
	"panrucio/internal/obs"
	"panrucio/internal/records"
	"panrucio/internal/report"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
	"panrucio/internal/sweep"
	"panrucio/internal/verify"
)

// Body is the uniform JSON envelope of the analysis endpoints: exactly
// one payload field is set per experiment. Marshaling a fixed struct (no
// maps) keeps bodies byte-identical run to run.
type Body struct {
	Experiment string                 `json:"experiment"`
	Digest     string                 `json:"digest"`
	Epoch      uint64                 `json:"epoch"`
	Rates      []analysis.MethodRates `json:"rates,omitempty"`
	Table      *report.Table          `json:"table,omitempty"`
	Tables     []*report.Table        `json:"tables,omitempty"`
	Series     []*report.Series       `json:"series,omitempty"`
	Checks     []analysis.Check       `json:"checks,omitempty"`
	Sweep      *sweep.Report          `json:"sweep,omitempty"`
	Note       string                 `json:"note,omitempty"`
}

// Experiments lists the valid /api/experiments/{id} ids, in E-number
// order. E14 runs the canned robustness sweep and E15 the canned
// detection sweep (both store-independent, cached under epoch 0);
// everything else derives from the serving store.
var Experiments = []string{
	"summary", "rates", "fig2", "fig3", "table1", "table2a", "table2b",
	"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"checks", "anomaly", "e14", "e15",
}

var experimentSet = func() map[string]bool {
	m := make(map[string]bool, len(Experiments))
	for _, id := range Experiments {
		m[id] = true
	}
	return m
}()

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

// handleHealthz answers without touching the store or any lock, so it
// works even while a live scenario is mid-ingest.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeBody(w, []byte(fmt.Sprintf(`{"ok":true,"epoch":%d}`, s.Epoch())))
}

// handleMeta reports the semantic view of the serving state: digest,
// epoch, window, and record counts. Byte-identical for any shard count or
// segment size (those live in /api/meta/layout).
func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	st := s.snapshot()
	defer s.release()
	res := st.res
	writeJSON(w, struct {
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
}

// handleLayout reports the physical layout and runtime counters — the one
// endpoint whose body legitimately depends on the performance knobs
// (shards, segment size) and on request history (cache stats).
func (s *Server) handleLayout(w http.ResponseWriter, r *http.Request) {
	st := s.snapshot()
	defer s.release()
	store := st.res.Store
	writeJSON(w, struct {
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
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Experiments []string `json:"experiments"`
	}{Experiments})
}

// handleExperiment serves one cached analysis body. The first request of
// an epoch pays the matching passes; every later one — and every
// concurrent duplicate — is a cache hit.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !experimentSet[id] {
		http.Error(w, fmt.Sprintf("unknown experiment %q", id), http.StatusNotFound)
		return
	}
	st := s.snapshot()
	defer s.release()
	key := cacheKey{digest: s.digest, epoch: st.epoch, id: id}
	if id == "e14" || id == "e15" {
		key.epoch = 0 // store-independent: survives epoch advances
	}
	body, err, _ := s.cache.get(key, func() ([]byte, error) {
		return s.renderExperiment(st, id, key.epoch)
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, body)
}

// renderExperiment computes one experiment's body at one epoch.
func (s *Server) renderExperiment(st *state, id string, epoch uint64) ([]byte, error) {
	b := &Body{Experiment: id, Digest: s.digest, Epoch: epoch}
	if id == "e14" {
		rep := experimentsRobustness(st.res.Config, s.opt.MatchWorkers)
		b.Sweep = rep
		return json.Marshal(b)
	}
	if id == "e15" {
		b.Sweep = experimentsDetection(st.res.Config, s.opt.MatchWorkers)
		b.Table = experimentsOnline(st.res.Config)
		return json.Marshal(b)
	}
	suite := st.getSuite(s.opt.MatchWorkers)
	caseBody := func(cs *analysis.CaseStudy, withSummary bool) {
		if cs == nil {
			b.Note = "case study not present for this seed"
			return
		}
		b.Table = cs.TimelineTable()
		if withSummary {
			b.Tables = []*report.Table{cs.TransferSummaryTable()}
		}
	}
	switch id {
	case "summary":
		b.Table = suite.SummaryTable()
	case "rates":
		b.Rates = suite.Cmp.Summary()
	case "fig2":
		b.Table = analysis.GrowthReport(suite.Fig2())
	case "fig3":
		b.Table = suite.Fig3().Report(6)
	case "table1":
		b.Table = analysis.ActivityTable(suite.Table1())
	case "table2a":
		b.Table = suite.Cmp.TransferCountTable()
	case "table2b":
		b.Table = suite.Cmp.JobCountTable()
	case "fig5":
		b.Table = analysis.TopJobsTable("Fig. 5 — top local-transfer jobs", suite.Fig5())
	case "fig6":
		b.Table = analysis.TopJobsTable("Fig. 6 — top remote-transfer jobs", suite.Fig6())
	case "fig7":
		b.Series = suite.Fig7()
	case "fig8":
		b.Series = suite.Fig8()
	case "fig9":
		b.Table = suite.Fig9().Table()
	case "fig10":
		caseBody(suite.Fig10(), false)
	case "fig11":
		caseBody(suite.Fig11(), false)
	case "fig12":
		caseBody(suite.Fig12(), true)
	case "checks":
		res := suite.Result
		b.Checks = analysis.ShapeChecks(res.Store, res.Grid, res.WindowFrom, res.WindowTo, suite.Cmp)
	case "anomaly":
		b.Table = suite.Anomalies().Table(5)
	default:
		return nil, fmt.Errorf("unhandled experiment %q", id)
	}
	return json.Marshal(b)
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
	st := s.snapshot()
	defer s.release()
	j, ok := st.res.Store.Job(panda)
	if !ok {
		http.Error(w, fmt.Sprintf("no job with pandaid %d", panda), http.StatusNotFound)
		return
	}
	v := jobView{Job: *j}
	for _, f := range st.res.Store.FilesForJob(j.PandaID, j.JediTaskID) {
		v.Files = append(v.Files, *f)
	}
	writeJSON(w, v)
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
	st := s.snapshot()
	defer s.release()
	j, ok := st.res.Store.Job(panda)
	if !ok {
		http.Error(w, fmt.Sprintf("no job with pandaid %d", panda), http.StatusNotFound)
		return
	}
	evs := core.NewMatcher(st.res.Store).MatchJob(j, method)
	v := jobView{Job: *j, Method: method.String(), Matched: len(evs)}
	for _, ev := range evs {
		v.Transfers = append(v.Transfers, *ev)
	}
	writeJSON(w, v)
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
	st := s.snapshot()
	defer s.release()
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
	writeJSON(w, out)
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
	st := s.snapshot()
	defer s.release()
	jobs := st.windowJobs()
	ids := make([]int64, min(limit, len(jobs)))
	for i := range ids {
		ids[i] = jobs[i].PandaID
	}
	writeJSON(w, struct {
		PandaIDs []int64 `json:"pandaids"`
	}{ids})
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
	base := sim.QuickConfig(seed)
	var grid []sweep.Scenario
	switch gridName {
	case "robustness":
		grid = sweep.CorruptionRamp(base, sweep.DefaultRampRates())
	case "seeds":
		grid = sweep.SeedFanOut(base, 8)
	case "mix":
		grid = sweep.MixGrid(base)
	case "verify":
		grid = sweep.VerifyGrid(base, sweep.DefaultVerifyProb)
	default:
		http.Error(w, fmt.Sprintf("unknown grid %q (want robustness, seeds, mix, or verify)", gridName), http.StatusBadRequest)
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

// experimentsRobustness is the E14 renderer: the canned corruption-ramp
// sweep at the serving config's seed. Kept behind a function var so the
// golden-body tests can scale it down.
var experimentsRobustness = func(cfg sim.Config, workers int) *sweep.Report {
	return sweep.Run(
		sweep.CorruptionRamp(sim.QuickConfig(cfg.Seed), sweep.DefaultRampRates()),
		sweep.Options{Workers: workers})
}

// experimentsDetection and experimentsOnline are the two halves of the E15
// renderer — the per-channel tamper-detection sweep and the online
// detect-and-repair loop — at the serving config's seed. Function vars for
// the same reason as experimentsRobustness.
var experimentsDetection = func(cfg sim.Config, workers int) *sweep.Report {
	return sweep.Run(
		sweep.VerifyGrid(sim.QuickConfig(cfg.Seed), sweep.DefaultVerifyProb),
		sweep.Options{Workers: workers})
}

var experimentsOnline = func(cfg sim.Config) *report.Table {
	return verify.RunOnline(sim.QuickConfig(cfg.Seed), verify.OnlineOptions{
		Tamper: &verify.TamperConfig{Prob: sweep.DefaultVerifyProb, Seed: cfg.Seed},
	}).Table()
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

	st := s.snapshot()
	defer s.release()
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
	writeJSON(w, struct {
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
}
