package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"panrucio/benchmark/quant"
	"panrucio/internal/obs"
	"panrucio/internal/serve"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
)

// liveMix is the read mix served beside ingest.
var liveMix = []weight{{"meta", 3}, {"experiment", 5}, {"pandaids", 2}}

// expectedEpochs is how many states a live server publishes: one per
// checkpoint strictly inside the horizon, plus the final publish.
func expectedEpochs(cfg sim.Config, every simtime.VTime) uint64 {
	cfg = scaled(cfg)
	horizon := simtime.VTime(cfg.WarmupDays+cfg.Days) * simtime.Day
	return uint64((horizon + every - 1) / every)
}

// liveFinal identifies the final published state of a live run.
type liveFinal struct{ meta, rates, commitment string }

// ingestCounters reads the metastore's own instruments: rows ingested and
// the summed wall time of reorganizing freezes. They are looked up by
// name, so runLive fails a run over which they did not move.
func ingestCounters() (rows int64, freezeS float64) {
	r := obs.Default()
	for _, name := range []string{"metastore_jobs_ingested_total",
		"metastore_files_ingested_total", "metastore_transfers_ingested_total"} {
		rows += r.Counter(name, "").Value()
	}
	return rows, r.Histogram("metastore_freeze_seconds", "", obs.DefBuckets).Sum()
}

// runLive is writes beside reads: a live server ingests the scenario and
// publishes a checkpoint every p.every of virtual time, while an open loop
// of Poisson arrivals calls its handler directly, one goroutine per
// request, with no connections in between. Each run ends when the server
// reports Done; runs repeat until the phase ends. The set-up it times is
// the wait for the first answer: a request sent at start returns once the
// first checkpoint opens a read window.
func runLive(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	tgt := &target{experiments: storeExperiments()}
	want := expectedEpochs(p.cfg, p.every)
	var (
		first, ingest, rate, bPerEv []float64
		epochs, hitRatio            []float64
		puts, freezeS, sealed       []float64
		all                         []sample
		ref                         *liveFinal
		th                          = &timedHandler{tr: tr, us: map[string][]float64{}}
		core0                       = coreCounters()
		rt                          = startRuntime()
		stored                      int64
		start                       = time.Now()
	)
	for run := 1; run == 1 || time.Since(start) < p.phase(); run++ {
		rng := rand.New(rand.NewSource(p.seed))
		// Far longer than any run: dispatch stops at Done.
		sched := poissonSchedule(rng, p.liveRate, 170*time.Second, tgt, liveMix)
		rows0, freeze0 := ingestCounters()

		t0 := time.Now()
		srv := serve.NewLive(p.cfg, p.every, serve.Options{MatchWorkers: p.workers})
		var h http.Handler = srv
		if tr != nil {
			th.next = srv
			h = th
		}
		firstAnswer := make(chan time.Duration, 1)
		go func() {
			direct(srv, "/api/meta")
			firstAnswer <- time.Since(t0)
		}()
		doneAt := make(chan time.Duration, 1)
		go func() {
			<-srv.Done()
			doneAt <- time.Since(t0)
		}()
		samples := openLoop(sched, 0, srv.Done(), func(i int, r request, due time.Time) bool {
			hr := httptest.NewRequest(http.MethodGet, r.path, nil)
			rec := httptest.NewRecorder()
			if tr == nil || i%2 == 0 {
				h.ServeHTTP(rec, hr)
				return rec.Code == http.StatusOK
			}
			req := int64(run)<<32 | int64(i+1)
			root := tr.beginAt("live.request", 0, req, due)
			hr.Header.Set(spanHeader, strconv.Itoa(root))
			hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
			h.ServeHTTP(rec, hr)
			tr.finish(root)
			return rec.Code == http.StatusOK
		})
		ingestS := (<-doneAt).Seconds()
		first = append(first, (<-firstAnswer).Seconds())
		all = append(all, samples...)
		if err := o.count(samples); err != nil {
			return o, fmt.Errorf("live run %d: %w", run, err)
		}
		stats := srv.CacheStats()
		hitRatio = append(hitRatio, float64(stats.Hits)/float64(max(stats.Hits+stats.Misses, 1)))
		rows1, freeze1 := ingestCounters()
		if rows1 == rows0 || freeze1 == freeze0 {
			return o, fmt.Errorf("live run %d: the metastore's ingest and freeze instruments did not move", run)
		}
		puts = append(puts, float64(rows1-rows0))
		freezeS = append(freezeS, freeze1-freeze0)

		fin, transfers, segments, err := checkLive(srv, want)
		if err != nil {
			return o, fmt.Errorf("live run %d: %w", run, err)
		}
		if ref == nil {
			ref = &fin
		} else if fin != *ref {
			return o, fmt.Errorf("live run %d published a different final state than run 1", run)
		}
		epochs = append(epochs, float64(srv.Epoch()))
		sealed = append(sealed, float64(segments))
		ingest = append(ingest, ingestS)
		rate = append(rate, float64(transfers)/ingestS)
		bPerEv = append(bPerEv, heapPerEvent(transfers, srv))
		stored = transfers
		th.next = nil
	}
	rt.finish(o, len(all), stored)

	o.set("setup_s", quant.Median(first))
	o.set("events_per_s", quant.Median(rate))
	o.set("live_b_per_event", quant.Median(bPerEv))
	setLatency(o, all, tr != nil, tail)
	o.note("ingest_s %.4f s (median of %d runs)", quant.Median(ingest), len(ingest))

	if tr != nil {
		spans := tr.snapshot()
		th.setHandlerLayers(o)
		o.set("serve.epochs", quant.Median(epochs))
		o.set("serve.cache_hit_ratio", quant.Median(hitRatio))
		o.set("metastore.puts", quant.Median(puts))
		o.set("metastore.freeze_s", quant.Median(freezeS))
		o.set("metastore.sealed_segments", quant.Median(sealed))
		if err := setCoreRate(o, core0); err != nil {
			return o, err
		}
		o.set("trace.unaccounted_frac", unaccounted(spans, "live.request"))
		o.set("trace.overhead_frac", tracedOverhead(all))
	}
	// The simulator runs inside serve.NewLive, out of the benchmark's reach:
	// only the store's and the matcher's own instruments cover ingest here.
	o.absent("simtime.events", "sim.models_self_s", "corruption.calls", "corruption.self_s",
		"corruption.keep_ratio", "metastore.put_s", "metastore.put_ns_per_row",
		"metastore.jobs_window_ms", "core.exact_ms", "core.rm1_ms", "core.rm2_ms", "core.jobs",
		"core.rm2_match_ratio", "analysis.render_ms", "analysis.checks_ms",
		"analysis.checks_passed", "serve.wire_us_p50", "serve.capacity_rps")
	return o, nil
}

// checkLive is the live workload's correctness gate, run on the final
// state: every checkpoint was published, the structural shape checks
// pass, and the store audits clean against its commitments. It returns
// the final state's identity, its stored transfers and sealed segments.
func checkLive(srv *serve.Server, want uint64) (liveFinal, int64, int, error) {
	var fin liveFinal
	if got := srv.Epoch(); got != want {
		return fin, 0, 0, fmt.Errorf("published %d epochs, want %d", got, want)
	}
	get := func(path string, v any) (string, error) {
		rec := direct(srv, path)
		if rec.Code != http.StatusOK {
			return "", fmt.Errorf("GET %s: status %d", path, rec.Code)
		}
		body := rec.Body.String()
		if v != nil {
			if err := json.Unmarshal([]byte(body), v); err != nil {
				return "", fmt.Errorf("GET %s: %w", path, err)
			}
		}
		return body, nil
	}
	var checks serve.Body
	if _, err := get("/api/experiments/checks", &checks); err != nil {
		return fin, 0, 0, err
	}
	if _, err := checkShape(checks.Checks); err != nil {
		return fin, 0, 0, err
	}
	var audit struct {
		Clean      bool   `json:"clean"`
		Commitment string `json:"commitment"`
	}
	if _, err := get("/api/verify", &audit); err != nil {
		return fin, 0, 0, err
	}
	if !audit.Clean {
		return fin, 0, 0, fmt.Errorf("final store fails its commitment audit")
	}
	var meta struct {
		Transfers int64 `json:"transfers"`
	}
	var err error
	if fin.meta, err = get("/api/meta", &meta); err != nil {
		return fin, 0, 0, err
	}
	if fin.rates, err = get("/api/experiments/rates", nil); err != nil {
		return fin, 0, 0, err
	}
	var layout struct {
		Sealed int `json:"sealed_segments"`
	}
	if _, err := get("/api/meta/layout", &layout); err != nil {
		return fin, 0, 0, err
	}
	fin.commitment = audit.Commitment
	if meta.Transfers == 0 {
		return fin, 0, 0, fmt.Errorf("final store holds no transfers")
	}
	return fin, meta.Transfers, layout.Sealed, nil
}
