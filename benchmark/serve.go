package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"panrucio/benchmark/quant"
	"panrucio/internal/core"
	"panrucio/internal/obs"
	"panrucio/internal/records"
	"panrucio/internal/serve"
	"panrucio/internal/sim"
)

// capacityMix is cmd/loadgen's default mix without the store-independent
// sweeps, so every request reads the serving store or its result cache.
// The closed loop sends it.
var capacityMix = append(append([]weight(nil), serveMix...), weight{"pandaids", 1})

// serveMix is capacityMix without pandaids; the open loop sends it. A
// pandaids call queries the whole window (~18 ms) and allocates ~3 MB; at
// its loadgen weight the open loop's calls start a collection of the
// ~130 MB live heap every few seconds, and every latency statistic above
// the median tried spread by 15–93% over ten seeds, mostly beyond 0.25,
// the largest bound a metric may carry (README.md has the measurements).
// A completion rate averages over those collections, so pandaids' cost
// shows in the closed loop's.
var serveMix = []weight{
	{"meta", 2}, {"layout", 1}, {"experiment", 6}, {"job", 4},
	{"match", 4}, {"task", 2},
}

// serveTail is the percentile serve reports as tail_ms. Its requests take
// ~0.25 ms, so where a high percentile falls is set by the host's
// scheduling stalls more than by the server. On a shared two-core VM,
// twenty seeds taken as four sets of ten spread (interquartile range over
// median) by up to 86% at p95, 50% at p90, 29% at p85 and 16% at p80; the
// median of per-second p90s fared no better than p90.
const serveTail = 0.80

// storeExperiments are the experiment ids whose bodies derive from the
// serving store: all but the E14 and E15 sweeps, which run scenarios of
// their own.
func storeExperiments() []string {
	var out []string
	for _, id := range serve.Experiments {
		if id != "e14" && id != "e15" {
			out = append(out, id)
		}
	}
	return out
}

// direct calls the server's handler in-process and returns the response.
func direct(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// warmBodies requests every store-derived experiment once, filling the
// result cache, and returns each body's SHA-256.
func warmBodies(h http.Handler, ids []string) (map[string]string, error) {
	out := map[string]string{}
	for _, id := range ids {
		rec := direct(h, "/api/experiments/"+id)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("warm-up GET /api/experiments/%s: status %d", id, rec.Code)
		}
		out[id] = sha(rec.Body.Bytes())
	}
	return out, nil
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// classOf maps a request path to its endpoint class.
func classOf(path string) string {
	switch {
	case path == "/api/meta/layout":
		return "layout"
	case path == "/api/meta":
		return "meta"
	case strings.HasPrefix(path, "/api/experiments/"):
		return "experiment"
	default:
		return strings.TrimPrefix(path, "/api/")
	}
}

// timedHandler wraps the server to time each ServeHTTP call, and, for a
// traced request, to record the call as a child of the request's span.
type timedHandler struct {
	next http.Handler
	tr   *tracer
	mu   sync.Mutex
	us   map[string][]float64 // handler time by endpoint class
}

const (
	spanHeader = "X-Bench-Span"
	reqHeader  = "X-Bench-Req"
)

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	t1 := time.Now()
	class := classOf(r.URL.Path)
	h.mu.Lock()
	h.us[class] = append(h.us[class], float64(t1.Sub(t0).Nanoseconds())/1e3)
	h.mu.Unlock()
	if parent, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		h.tr.add("serve.handler."+class, parent, req, t0, t1, 0)
	}
}

// setHandlerLayers reports handler time per endpoint class and over all
// classes.
func (h *timedHandler) setHandlerLayers(o *outcome) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var all []float64
	for _, ep := range handlerEndpoints {
		xs := quant.Sorted(h.us[ep])
		all = append(all, xs...)
		o.set("serve.handler_us."+ep+".p50", quant.Percentile(xs, 0.5))
		o.set("serve.handler_us."+ep+".p99", quant.Percentile(xs, 0.99))
	}
	all = quant.Sorted(all)
	o.set("serve.handler_ms_p50", quant.Percentile(all, 0.5)/1e3)
	o.set("serve.handler_ms_p95", quant.Percentile(all, 0.95)/1e3)
}

// fetch issues one GET and drains the body, reporting success. With a
// span id it asks the handler wrapper to record a child span.
func fetch(client *http.Client, url string, span int, req int64) ([]byte, bool) {
	hr, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, false
	}
	if span != 0 {
		hr.Header.Set(spanHeader, strconv.Itoa(span))
		hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	}
	resp, err := client.Do(hr)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, err == nil && resp.StatusCode >= 200 && resp.StatusCode < 300
}

// runServe is HTTP/JSON serving of a finished store: cache hits and point
// lookups, with no ingest and no matching passes, from a result cache the
// whole working set fits in. Its set-up simulates the scenario, builds a
// frozen server and warms every store-derived body. The load, over nproc
// connections to an in-process HTTP server, is an open loop of Poisson
// arrivals for the first two thirds of the phase, then a closed loop of
// nproc callers back to back, whose completion rate is the server's
// capacity.
func runServe(p params, tr *tracer) (*outcome, error) {
	o := newOutcome()
	exps := storeExperiments()
	var (
		res         *sim.Result
		srv         *serve.Server
		bodies      map[string]string
		setup, rate []float64
		sims        []worldStats
		core0       = coreCounters()
	)
	for i := 0; i < p.setups; i++ {
		res, srv = nil, nil // let the previous store go before building the next
		t0 := time.Now()
		r, simS, st := simulate(p.cfg, tr, 0, int64(-1-i))
		s := serve.NewFrozen(r, serve.Options{MatchWorkers: p.workers})
		got, err := warmBodies(s, exps)
		if err != nil {
			return o, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		rate = append(rate, float64(r.StoredEvents)/simS)
		sims = append(sims, st)
		if bodies != nil && !maps.Equal(bodies, got) {
			return o, fmt.Errorf("set-up %d served different experiment bodies than set-up 1", i+1)
		}
		res, srv, bodies = r, s, got
	}
	o.set("setup_s", quant.Median(setup))
	o.set("live_b_per_event", heapPerEvent(res.StoredEvents, res, srv))
	if err := setCoreRate(o, core0); err != nil { // the matching passes behind the warmed bodies
		return o, err
	}

	// Ids come from a seeded draw over the window's user jobs.
	rng := rand.New(rand.NewSource(p.seed))
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	if len(jobs) == 0 {
		return o, fmt.Errorf("the scenario has no user jobs in its window")
	}
	tgt := &target{experiments: exps}
	seen := map[int64]bool{}
	var sampled []*records.JobRecord
	for len(tgt.pandaIDs) < 256 {
		j := jobs[rng.Intn(len(jobs))]
		tgt.pandaIDs = append(tgt.pandaIDs, j.PandaID)
		sampled = append(sampled, j)
		if !seen[j.JediTaskID] && len(tgt.jediIDs) < 64 {
			seen[j.JediTaskID] = true
			tgt.jediIDs = append(tgt.jediIDs, j.JediTaskID)
		}
	}

	var handler http.Handler = srv
	th := &timedHandler{next: srv, tr: tr, us: map[string][]float64{}}
	if tr != nil {
		handler = th
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	transport := &http.Transport{MaxConnsPerHost: p.conns, MaxIdleConnsPerHost: p.conns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}

	openDur := p.phase() * 2 / 3
	sched := poissonSchedule(rng, p.serveRate, openDur, tgt, serveMix)
	cache0 := srv.CacheStats()
	rt := startRuntime()
	samples := openLoop(sched, p.conns, nil, func(i int, r request, due time.Time) bool {
		if tr == nil || i%2 == 0 {
			_, ok := fetch(client, ts.URL+r.path, 0, 0)
			return ok
		}
		req := int64(i + 1)
		root := tr.beginAt("serve.request", 0, req, due)
		tr.add("loadgen.queue", root, req, due, time.Now(), 0)
		_, ok := fetch(client, ts.URL+r.path, root, req)
		tr.finish(root)
		return ok
	})
	rt.finish(o, len(samples), res.StoredEvents)
	if err := o.count(samples); err != nil {
		return o, err
	}
	setLatency(o, samples, tr != nil, serveTail)
	cache1 := srv.CacheStats()
	setCacheRatio(o, cache0, cache1)

	measure := p.phase() - openDur - p.phase()/12
	done, bad := closedLoop(p.conns, p.phase()/12, measure, func(rng *rand.Rand) bool {
		_, path := tgt.draw(rng, capacityMix)
		_, ok := fetch(client, ts.URL+path, 0, 0)
		return ok
	}, p.seed)
	o.attempted += done + bad
	o.failed += bad
	if bad > 0 {
		return o, fmt.Errorf("%d closed-loop requests failed", bad)
	}
	o.set("events_per_s", float64(done)/measure.Seconds())
	o.set("serve.capacity_rps", float64(done)/measure.Seconds())
	o.note("simulated events_per_s %.0f (median of %d set-ups)", quant.Median(rate), len(rate))

	if err := checkServe(o, client, ts.URL, res, sampled[:32], bodies); err != nil {
		return o, err
	}

	o.set("serve.epochs", float64(srv.Epoch()))
	if tr != nil {
		spans := tr.snapshot()
		setSimLayers(o, sims, buildLedger(setupSpans(spans)))
		th.setHandlerLayers(o)
		var wire []float64
		self := selfTimes(spans)
		for _, s := range spans {
			if s.Name == "serve.request" {
				wire = append(wire, float64(self[s.ID].Nanoseconds())/1e3)
			}
		}
		o.set("serve.wire_us_p50", quant.Median(wire))
		o.set("trace.unaccounted_frac", unaccounted(spans, "serve.request"))
		o.set("trace.overhead_frac", tracedOverhead(samples))
	}
	o.absent("metastore.jobs_window_ms", "core.exact_ms", "core.rm1_ms", "core.rm2_ms",
		"core.rm2_match_ratio", "analysis.render_ms", "analysis.checks_ms", "analysis.checks_passed")
	o.set("core.jobs", float64(len(jobs)))
	return o, nil
}

// setLatency reports the open loop's median and tail (percentile q, by the
// tail rule) latency and the generator's lateness. In a traced run only the
// untraced half (even indices) feeds the latency metrics.
func setLatency(o *outcome, samples []sample, traced bool, q float64) {
	var lat, late []float64
	for _, s := range samples {
		late = append(late, s.late.Seconds()*1e3)
		if !traced || s.index%2 == 0 {
			lat = append(lat, s.latency.Seconds()*1e3)
		}
	}
	lat = quant.Sorted(lat)
	q = quant.TailQuantile(len(lat), q)
	o.set("p50_ms", quant.Percentile(lat, 0.5))
	o.set("tail_ms", quant.Percentile(lat, q))
	o.set("bench.samples", float64(len(lat)))
	o.set("bench.tail_pct", 100*q)
	o.set("loadgen.late_ms_p99", quant.Percentile(quant.Sorted(late), 0.99))
	o.note("samples p50_ms %d requests", len(lat))
	o.note("samples tail_ms %d requests (p%g)", len(lat), 100*q)
	o.note("latency_ms p90 %.4g p95 %.4g p99 %.4g max %.4g", quant.Percentile(lat, 0.9),
		quant.Percentile(lat, 0.95), quant.Percentile(lat, 0.99), quant.Percentile(lat, 1))
}

// tracedOverhead compares the median latency of traced (odd) and untraced
// (even) requests of one open loop.
func tracedOverhead(samples []sample) float64 {
	var even, odd []float64
	for _, s := range samples {
		if s.index%2 == 0 {
			even = append(even, s.latency.Seconds())
		} else {
			odd = append(odd, s.latency.Seconds())
		}
	}
	return quant.Median(odd)/quant.Median(even) - 1
}

func setCacheRatio(o *outcome, before, after serve.CacheStats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	o.set("serve.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
}

// coreCount is a reading of the matcher's own process-wide instruments:
// probes (jobs evaluated) and the summed wall time of matching passes.
type coreCount struct {
	probes int64
	passS  float64
}

func coreCounters() coreCount {
	return coreCount{
		probes: obs.Default().Counter("core_match_probes_total", "").Value(),
		passS:  obs.Default().Histogram("core_match_pass_seconds", "", obs.DefBuckets).Sum(),
	}
}

// setCoreRate reports the matcher's jobs per second of matching-pass time
// since the given reading. The instruments are looked up by name, and a
// name the matcher no longer uses reads as a fresh zero, so a reading that
// did not move over work that ran matching passes is an error.
func setCoreRate(o *outcome, before coreCount) error {
	after := coreCounters()
	probes, secs := after.probes-before.probes, after.passS-before.passS
	if probes <= 0 || secs <= 0 {
		return fmt.Errorf("the matcher's instruments did not move (core_match_probes_total +%d, core_match_pass_seconds +%g)", probes, secs)
	}
	o.set("core.jobs_per_s", float64(probes)/secs)
	return nil
}

// checkServe is the serve workload's correctness gate: match lookups over
// HTTP agree with the matcher called directly, and every experiment body
// is byte-identical to the one served at warm-up.
func checkServe(o *outcome, client *http.Client, base string, res *sim.Result, sampled []*records.JobRecord, bodies map[string]string) error {
	m := core.NewMatcher(res.Store)
	for _, j := range sampled {
		for _, method := range []core.Method{core.Exact, core.RM1, core.RM2} {
			o.attempted++
			body, ok := fetch(client, fmt.Sprintf("%s/api/match?panda=%d&method=%s", base, j.PandaID,
				strings.ToLower(method.String())), 0, 0)
			var v struct {
				Matched int `json:"matched"`
			}
			if !ok || json.Unmarshal(body, &v) != nil {
				o.failed++
				return fmt.Errorf("GET /api/match?panda=%d&method=%s failed", j.PandaID, method)
			}
			if want := len(m.MatchJob(j, method)); v.Matched != want {
				o.failed++
				return fmt.Errorf("/api/match panda %d %s: %d matched over HTTP, %d from the matcher",
					j.PandaID, method, v.Matched, want)
			}
		}
	}
	for id, want := range bodies {
		o.attempted++
		body, ok := fetch(client, base+"/api/experiments/"+id, 0, 0)
		if !ok || sha(body) != want {
			o.failed++
			return fmt.Errorf("experiment %s body changed under load", id)
		}
	}
	return nil
}
