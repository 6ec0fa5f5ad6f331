// Command loadgen replays a mixed read workload against a running serve
// instance and reports latency percentiles, throughput, and error rate.
//
// Usage:
//
//	loadgen [-url http://host:port] [-seconds X] [-workers N] [-ramp X]
//	        [-seed N] [-mix meta=2,experiments=6,job=4,...] [-ids N]
//	        [-wait X] [-max-error-rate X] [-format text|json] [-scrape]
//
// The request schedule is deterministic for a given -seed, -workers, and
// -mix: each worker draws its endpoint sequence and id choices from its
// own seeded generator, so two runs against equivalent servers issue the
// same requests in the same per-worker order (how many complete depends
// on -seconds and server speed). Workers ramp up linearly over -ramp
// seconds, then hold peak concurrency.
//
// Metrics: p50/p95/p99 are nearest-rank percentiles over all successful
// request latencies, qps counts successful requests over the measurement
// window, and error_pct counts non-2xx responses and transport failures.
// -format text appends a Go-benchmark-formatted line so runs can be
// recorded alongside the bench/BENCH_*.txt artifacts; -format json emits
// one machine-readable object. The exit status is 1 when error_pct
// exceeds -max-error-rate (the CI smoke gate runs with 0).
//
// -scrape fetches the server's GET /metrics after the run and folds the
// server-side result-cache hit ratio into the report, pairing the
// client-observed latencies with what the server saw.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type options struct {
	url          string
	seconds      float64
	workers      int
	ramp         float64
	seed         int64
	mix          string
	ids          int
	wait         float64
	maxErrorRate float64
	format       string
	scrape       bool
}

// endpointNames is the closed set of -mix keys, each one request shape
// against the serve API.
var endpointNames = []string{"meta", "layout", "experiments", "job", "match", "task", "pandaids", "sweep"}

const defaultMix = "meta=2,layout=1,experiments=6,job=4,match=4,task=2,pandaids=1,sweep=0"

// parseFlags parses the command line into options, validating everything
// up front so bad invocations fail before any traffic is sent.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.StringVar(&o.url, "url", "http://127.0.0.1:8080", "base URL of the serve instance")
	fs.Float64Var(&o.seconds, "seconds", 5, "measurement window in seconds")
	fs.IntVar(&o.workers, "workers", 8, "peak concurrent request workers")
	fs.Float64Var(&o.ramp, "ramp", 0, "seconds over which workers ramp from 1 to peak (0 = all at once)")
	fs.Int64Var(&o.seed, "seed", 1, "schedule seed (fixes each worker's request sequence)")
	fs.StringVar(&o.mix, "mix", defaultMix, "endpoint weights, name=weight comma-separated")
	fs.IntVar(&o.ids, "ids", 64, "pandaids sampled for the lookup endpoints")
	fs.Float64Var(&o.wait, "wait", 10, "seconds to wait for the server to become ready")
	fs.Float64Var(&o.maxErrorRate, "max-error-rate", 100, "fail (exit 1) if error_pct exceeds this")
	fs.StringVar(&o.format, "format", "text", "report format: text or json")
	fs.BoolVar(&o.scrape, "scrape", false, "fetch /metrics after the run and report the server-side cache hit ratio")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be > 0, got %g", o.seconds)
	}
	if o.workers < 1 {
		return nil, fmt.Errorf("-workers must be >= 1, got %d", o.workers)
	}
	if o.ramp < 0 {
		return nil, fmt.Errorf("-ramp must be >= 0, got %g", o.ramp)
	}
	if o.ids < 1 {
		return nil, fmt.Errorf("-ids must be >= 1, got %d", o.ids)
	}
	if o.wait < 0 {
		return nil, fmt.Errorf("-wait must be >= 0, got %g", o.wait)
	}
	if o.maxErrorRate < 0 {
		return nil, fmt.Errorf("-max-error-rate must be >= 0, got %g", o.maxErrorRate)
	}
	if o.format != "text" && o.format != "json" {
		return nil, fmt.Errorf("unknown format %q (want text or json)", o.format)
	}
	if _, err := parseMix(o.mix); err != nil {
		return nil, err
	}
	return o, nil
}

// parseMix parses "name=weight,..." into per-endpoint weights, rejecting
// unknown names, malformed pairs, and all-zero mixes.
func parseMix(s string) (map[string]int, error) {
	known := make(map[string]bool, len(endpointNames))
	for _, n := range endpointNames {
		known[n] = true
	}
	w := map[string]int{}
	total := 0
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q (want name=weight)", pair)
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown -mix endpoint %q (want one of %s)",
				name, strings.Join(endpointNames, ", "))
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -mix weight %q for %s", val, name)
		}
		w[name] = n
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("-mix %q has no positive weight", s)
	}
	return w, nil
}

// schedule is the deterministic per-worker request plan: a weighted
// endpoint table plus the id samples the lookup endpoints draw from.
type schedule struct {
	table       []string // one entry per weight unit; rng indexes it
	pandaIDs    []int64
	jediTaskIDs []int64
	experiments []string
}

// pick returns the next request's method and path for a worker's rng.
func (sc *schedule) pick(rng *rand.Rand) (method, path string) {
	switch ep := sc.table[rng.Intn(len(sc.table))]; ep {
	case "meta":
		return http.MethodGet, "/api/meta"
	case "layout":
		return http.MethodGet, "/api/meta/layout"
	case "experiments":
		return http.MethodGet, "/api/experiments/" + sc.experiments[rng.Intn(len(sc.experiments))]
	case "job":
		return http.MethodGet, fmt.Sprintf("/api/job?panda=%d", sc.pandaIDs[rng.Intn(len(sc.pandaIDs))])
	case "match":
		methods := [...]string{"exact", "rm1", "rm2"}
		return http.MethodGet, fmt.Sprintf("/api/match?panda=%d&method=%s",
			sc.pandaIDs[rng.Intn(len(sc.pandaIDs))], methods[rng.Intn(len(methods))])
	case "task":
		return http.MethodGet, fmt.Sprintf("/api/task?jedi=%d&limit=64",
			sc.jediTaskIDs[rng.Intn(len(sc.jediTaskIDs))])
	case "pandaids":
		return http.MethodGet, "/api/pandaids?limit=32"
	default: // sweep
		return http.MethodPost, "/api/sweep?grid=robustness&scenarios=1&seed=3"
	}
}

// metrics is the aggregate report. Latency fields are microseconds.
type metrics struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	ErrorPct float64 `json:"error_pct"`
	Seconds  float64 `json:"seconds"`
	QPS      float64 `json:"qps"`
	P50us    float64 `json:"p50_us"`
	P95us    float64 `json:"p95_us"`
	P99us    float64 `json:"p99_us"`
	Maxus    float64 `json:"max_us"`
	Workers  int     `json:"workers"`

	// Server-side counters folded in by -scrape (absent otherwise). The
	// hits/misses are deltas over this run: the /metrics counters are
	// process-lifetime totals, so a pre-run scrape anchors the baseline.
	// Each delta is clamped at zero — a server restart between the two
	// scrapes resets the counters, and a negative "hits this run" is
	// garbage, not data. A failed scrape degrades to ScrapeWarning: the
	// load metrics are still valid and still reported.
	Scraped           bool    `json:"scraped,omitempty"`
	ServerCacheHits   int64   `json:"server_cache_hits,omitempty"`
	ServerCacheMisses int64   `json:"server_cache_misses,omitempty"`
	ServerCacheHitPct float64 `json:"server_cache_hit_pct,omitempty"`
	ScrapeWarning     string  `json:"scrape_warning,omitempty"`
}

// percentile is the nearest-rank percentile of a sorted latency slice: the
// value at 1-based rank ⌈q·n⌉, the smallest sample with at least a q share
// of the samples at or below it.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return float64(sorted[min(max(rank, 1), len(sorted))-1].Microseconds())
}

// get issues one request, drains the body, and reports success and
// latency.
func get(client *http.Client, base, method, path string) (time.Duration, bool) {
	req, err := http.NewRequest(method, base+path, nil)
	if err != nil {
		return 0, false
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(t0)
	if err != nil {
		return lat, false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return lat, resp.StatusCode >= 200 && resp.StatusCode < 300
}

// waitReady polls /healthz until the server answers.
func waitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %v", base, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// buildSchedule samples ids from the server and materializes the weighted
// endpoint table.
func buildSchedule(client *http.Client, o *options) (*schedule, error) {
	weights, err := parseMix(o.mix)
	if err != nil {
		return nil, err
	}
	sc := &schedule{}
	for _, name := range endpointNames { // fixed order keeps the table deterministic
		for i := 0; i < weights[name]; i++ {
			sc.table = append(sc.table, name)
		}
	}

	fetch := func(path string, v any) error {
		resp, err := client.Get(o.url + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}
	var ids struct {
		PandaIDs []int64 `json:"pandaids"`
	}
	if err := fetch(fmt.Sprintf("/api/pandaids?limit=%d", o.ids), &ids); err != nil {
		return nil, err
	}
	if len(ids.PandaIDs) == 0 {
		return nil, fmt.Errorf("server returned no pandaids; nothing to look up")
	}
	sc.pandaIDs = ids.PandaIDs
	var exps struct {
		Experiments []string `json:"experiments"`
	}
	if err := fetch("/api/experiments", &exps); err != nil {
		return nil, err
	}
	sc.experiments = exps.Experiments

	// Resolve a few jedi task ids through the job endpoint for the task
	// lookups.
	for i := 0; i < len(sc.pandaIDs) && len(sc.jediTaskIDs) < 8; i++ {
		var jv struct {
			Job struct{ JediTaskID int64 }
		}
		if err := fetch(fmt.Sprintf("/api/job?panda=%d", sc.pandaIDs[i]), &jv); err != nil {
			return nil, err
		}
		sc.jediTaskIDs = append(sc.jediTaskIDs, jv.Job.JediTaskID)
	}
	return sc, nil
}

// scrapeCounters fetches /metrics and extracts the values of the named
// unlabeled counters from the Prometheus text body.
func scrapeCounters(client *http.Client, base string, names ...string) (map[string]int64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseCounters(string(body), names...)
}

// parseCounters pulls `name value` sample lines out of a Prometheus text
// body. Only the requested unlabeled samples are returned; a requested
// name that is absent is an error (the server should always export its
// cache counters).
func parseCounters(body string, names ...string) (map[string]int64, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]int64, len(names))
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || !want[name] {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad sample line %q: %v", line, err)
		}
		out[name] = int64(f)
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no sample for %s", n)
		}
	}
	return out, nil
}

var cacheCounterNames = []string{"serve_cache_hits_total", "serve_cache_misses_total"}

// counterDelta is the run-scoped delta of one scraped counter, clamped at
// zero: a counter can only shrink if the server restarted mid-run, and a
// negative delta would poison the hit-ratio arithmetic below.
func counterDelta(after, before map[string]int64, name string) int64 {
	if d := after[name] - before[name]; d > 0 {
		return d
	}
	return 0
}

// foldScrape folds the before/after counter scrapes into the report.
func foldScrape(m *metrics, before, after map[string]int64) {
	m.Scraped = true
	m.ServerCacheHits = counterDelta(after, before, "serve_cache_hits_total")
	m.ServerCacheMisses = counterDelta(after, before, "serve_cache_misses_total")
	if total := m.ServerCacheHits + m.ServerCacheMisses; total > 0 {
		m.ServerCacheHitPct = 100 * float64(m.ServerCacheHits) / float64(total)
	}
}

// run executes the load and aggregates the metrics.
func run(o *options) (*metrics, error) {
	client := &http.Client{Timeout: 60 * time.Second}
	if err := waitReady(client, o.url, time.Duration(o.wait*float64(time.Second))); err != nil {
		return nil, err
	}
	sc, err := buildSchedule(client, o)
	if err != nil {
		return nil, err
	}

	// Anchor the server-side counters before any load: /metrics exports
	// process-lifetime totals, and the report wants this run's deltas. A
	// failed scrape must not abort the run — the load metrics are the
	// primary product — so it degrades to a warning in the report.
	var before map[string]int64
	var scrapeWarn string
	if o.scrape {
		if before, err = scrapeCounters(client, o.url, cacheCounterNames...); err != nil {
			scrapeWarn = "pre-run scrape failed: " + err.Error()
		}
	}

	type result struct {
		lats []time.Duration
		errs int
	}
	results := make([]result, o.workers)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Linear concurrency ramp: worker w joins after its share of
			// the ramp window.
			if o.ramp > 0 {
				time.Sleep(time.Duration(o.ramp * float64(w) / float64(o.workers) * float64(time.Second)))
			}
			rng := rand.New(rand.NewSource(o.seed*1_000_003 + int64(w)))
			for time.Now().Before(deadline) {
				method, path := sc.pick(rng)
				lat, ok := get(client, o.url, method, path)
				if ok {
					results[w].lats = append(results[w].lats, lat)
				} else {
					results[w].errs++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var all []time.Duration
	errs := 0
	for _, r := range results {
		all = append(all, r.lats...)
		errs += r.errs
	}
	sort.Slice(all, func(i, k int) bool { return all[i] < all[k] })
	m := &metrics{
		Requests: len(all) + errs,
		Errors:   errs,
		Seconds:  elapsed,
		QPS:      float64(len(all)) / elapsed,
		P50us:    percentile(all, 0.50),
		P95us:    percentile(all, 0.95),
		P99us:    percentile(all, 0.99),
		Workers:  o.workers,
	}
	if m.Requests > 0 {
		m.ErrorPct = 100 * float64(errs) / float64(m.Requests)
	}
	if n := len(all); n > 0 {
		m.Maxus = float64(all[n-1].Microseconds())
	}
	if o.scrape && scrapeWarn == "" {
		if after, err := scrapeCounters(client, o.url, cacheCounterNames...); err != nil {
			scrapeWarn = "post-run scrape failed: " + err.Error()
		} else {
			foldScrape(m, before, after)
		}
	}
	m.ScrapeWarning = scrapeWarn
	return m, nil
}

// render writes the report in the selected format.
func render(w io.Writer, o *options, m *metrics) error {
	if o.format == "json" {
		b, err := json.Marshal(m)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", b)
		return err
	}
	fmt.Fprintf(w, "loadgen: %d requests in %.2fs (%d workers), %d errors (%.2f%%)\n",
		m.Requests, m.Seconds, m.Workers, m.Errors, m.ErrorPct)
	fmt.Fprintf(w, "loadgen: qps %.1f  p50 %.0fus  p95 %.0fus  p99 %.0fus  max %.0fus\n",
		m.QPS, m.P50us, m.P95us, m.P99us, m.Maxus)
	if m.Scraped {
		fmt.Fprintf(w, "loadgen: server cache %d hits / %d misses (%.1f%% hit)\n",
			m.ServerCacheHits, m.ServerCacheMisses, m.ServerCacheHitPct)
	}
	if m.ScrapeWarning != "" {
		fmt.Fprintf(w, "loadgen: warning: %s\n", m.ScrapeWarning)
	}
	// A benchmark-formatted line so a run can be pasted next to the
	// bench/BENCH_*.txt artifacts.
	nsop := 0.0
	if m.Requests > 0 {
		nsop = m.Seconds * 1e9 / float64(m.Requests)
	}
	_, err := fmt.Fprintf(w, "BenchmarkLoadgen\t%8d\t%12.0f ns/op\t%10.1f qps\t%10.0f p50_us\t%10.0f p95_us\t%10.0f p99_us\t%8.2f error_pct\n",
		m.Requests, nsop, m.QPS, m.P50us, m.P95us, m.P99us, m.ErrorPct)
	return err
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	m, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if err := render(os.Stdout, o, m); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if m.ErrorPct > o.maxErrorRate {
		fmt.Fprintf(os.Stderr, "loadgen: error rate %.2f%% exceeds -max-error-rate %g\n",
			m.ErrorPct, o.maxErrorRate)
		os.Exit(1)
	}
}
