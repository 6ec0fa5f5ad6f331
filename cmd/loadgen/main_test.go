package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"panrucio/internal/serve"
	"panrucio/internal/sim"
)

func TestParseFlagsRejectsBadValues(t *testing.T) {
	cases := [][]string{
		{"-seconds", "0"},
		{"-seconds", "-1"},
		{"-workers", "0"},
		{"-ramp", "-1"},
		{"-ids", "0"},
		{"-wait", "-1"},
		{"-max-error-rate", "-1"},
		{"-format", "xml"},
		{"-mix", "bogus=1"},
		{"-mix", "meta"},
		{"-mix", "meta=0,job=0"},
		{"-mix", "meta=x"},
		{"-mix", "meta=-1"},
		{"-nosuch"},
	}
	for _, args := range cases {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted, want error", args)
		}
	}
}

func TestParseMix(t *testing.T) {
	w, err := parseMix("meta=2, job=1,sweep=0")
	if err != nil {
		t.Fatal(err)
	}
	if w["meta"] != 2 || w["job"] != 1 || w["sweep"] != 0 {
		t.Fatalf("weights = %v", w)
	}
	if _, err := parseMix(defaultMix); err != nil {
		t.Fatalf("default mix rejected: %v", err)
	}
}

func TestPercentile(t *testing.T) {
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond
	}
	if p := percentile(lats, 0.50); p != 50_000 {
		t.Errorf("p50 = %g, want 50000us", p)
	}
	if p := percentile(lats, 0.99); p != 99_000 {
		t.Errorf("p99 = %g, want 99000us", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty p50 = %g", p)
	}
	// Nearest rank is rank ⌈q·n⌉: at small n it is not index ⌊q·(n−1)⌋.
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // the rank, in ms
	}{
		{1, 0.50, 1}, {1, 0.95, 1}, {1, 0.99, 1},
		{10, 0.50, 5}, {10, 0.95, 10}, {10, 0.99, 10},
		{50, 0.50, 25}, {50, 0.95, 48}, {50, 0.99, 50},
	} {
		if p := percentile(lats[:c.n], c.q); p != c.want*1000 {
			t.Errorf("n=%d q=%g: %gus, want %gus", c.n, c.q, p, c.want*1000)
		}
	}
}

// TestScheduleDeterministic pins the deterministic-schedule contract: the
// same seed draws the same request sequence.
func TestScheduleDeterministic(t *testing.T) {
	sc := &schedule{
		table:       []string{"meta", "job", "match", "task", "experiments", "pandaids"},
		pandaIDs:    []int64{10, 20, 30},
		jediTaskIDs: []int64{7, 8},
		experiments: []string{"summary", "rates"},
	}
	draw := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		var seq []string
		for i := 0; i < 50; i++ {
			m, p := sc.pick(rng)
			seq = append(seq, m+" "+p)
		}
		return seq
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
	if c := draw(43); strings.Join(a, "\n") == strings.Join(c, "\n") {
		t.Fatal("different seeds produced identical 50-request sequences")
	}
}

// TestParseCounters pins the /metrics parser: comments and labeled
// samples are skipped, float-formatted values round to integers, and a
// missing requested counter is an error.
func TestParseCounters(t *testing.T) {
	body := strings.Join([]string{
		"# HELP serve_cache_hits_total result-cache hits",
		"# TYPE serve_cache_hits_total counter",
		"serve_cache_hits_total 42",
		"serve_cache_misses_total 1e+06",
		`serve_request_seconds_bucket{endpoint="job",le="+Inf"} 9`,
		"other_metric 7",
		"",
	}, "\n")
	got, err := parseCounters(body, "serve_cache_hits_total", "serve_cache_misses_total")
	if err != nil {
		t.Fatal(err)
	}
	if got["serve_cache_hits_total"] != 42 || got["serve_cache_misses_total"] != 1_000_000 {
		t.Fatalf("parsed = %v", got)
	}
	if _, err := parseCounters(body, "serve_cache_hits_total", "absent_total"); err == nil {
		t.Error("missing counter accepted, want error")
	}
	if _, err := parseCounters("serve_cache_hits_total notanumber",
		"serve_cache_hits_total"); err == nil {
		t.Error("malformed value accepted, want error")
	}
}

// TestRunAgainstServe is the end-to-end smoke: a short burst against an
// in-process frozen server must complete with zero errors and well-formed
// metrics in both formats. -scrape folds the server-side cache ratio in.
func TestRunAgainstServe(t *testing.T) {
	ts := httptest.NewServer(serve.NewFrozen(sim.Run(sim.QuickConfig(11)), serve.Options{}))
	defer ts.Close()

	o, err := parseFlags([]string{
		"-url", ts.URL, "-seconds", "0.3", "-workers", "4",
		"-mix", "meta=2,experiments=4,job=3,match=3,task=1,pandaids=1",
		"-ids", "16", "-format", "json", "-scrape",
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 0 {
		t.Fatalf("errors = %d (%.2f%%), want 0", m.Errors, m.ErrorPct)
	}
	if m.Requests == 0 || m.QPS <= 0 || m.P50us <= 0 || m.P99us < m.P50us {
		t.Fatalf("degenerate metrics: %+v", m)
	}
	if !m.Scraped {
		t.Fatal("-scrape did not mark the report")
	}
	if m.ServerCacheHits+m.ServerCacheMisses == 0 {
		t.Error("-scrape saw no cache traffic despite the load")
	}

	var buf bytes.Buffer
	if err := render(&buf, o, m); err != nil {
		t.Fatal(err)
	}
	var decoded metrics
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("json output not parseable: %v\n%s", err, buf.String())
	}
	if decoded.Requests != m.Requests {
		t.Fatalf("round-trip mismatch: %+v vs %+v", decoded, m)
	}

	buf.Reset()
	o.format = "text"
	if err := render(&buf, o, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BenchmarkLoadgen") ||
		!strings.Contains(buf.String(), "p99_us") {
		t.Fatalf("text output missing benchmark line:\n%s", buf.String())
	}
}

// TestFoldScrapeClampsNegativeDeltas pins the restart-reset regression: a
// server restart between the anchor scrape and the post-run scrape resets
// the process-lifetime counters, so the raw delta goes negative. The
// report must clamp it to zero, not print a negative hit count.
func TestFoldScrapeClampsNegativeDeltas(t *testing.T) {
	m := &metrics{}
	foldScrape(m,
		map[string]int64{"serve_cache_hits_total": 500, "serve_cache_misses_total": 100},
		map[string]int64{"serve_cache_hits_total": 3, "serve_cache_misses_total": 250})
	if !m.Scraped {
		t.Fatal("foldScrape did not mark the report")
	}
	if m.ServerCacheHits != 0 {
		t.Errorf("hits delta = %d, want clamped 0 (counters went 500 -> 3)", m.ServerCacheHits)
	}
	if m.ServerCacheMisses != 150 {
		t.Errorf("misses delta = %d, want 150", m.ServerCacheMisses)
	}
	if m.ServerCacheHitPct != 0 {
		t.Errorf("hit pct = %g, want 0 with zero hits", m.ServerCacheHitPct)
	}

	// Both reset: no traffic at all, and the pct must not divide by zero.
	m = &metrics{}
	foldScrape(m,
		map[string]int64{"serve_cache_hits_total": 9, "serve_cache_misses_total": 9},
		map[string]int64{"serve_cache_hits_total": 1, "serve_cache_misses_total": 2})
	if m.ServerCacheHits != 0 || m.ServerCacheMisses != 0 || m.ServerCacheHitPct != 0 {
		t.Errorf("full reset: %+v, want all zeros", m)
	}
}

// TestScrapeFailureDegradesToWarning pins the scrape-failure regression:
// when /metrics is unreachable, -scrape must not discard the whole load
// report — the metrics come back with a warning instead.
func TestScrapeFailureDegradesToWarning(t *testing.T) {
	// A serve mux without the /metrics route: every API path works, the
	// scrape 404s.
	srv := serve.NewFrozen(sim.Run(sim.QuickConfig(11)), serve.Options{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			http.Error(w, "no metrics here", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	o, err := parseFlags([]string{
		"-url", ts.URL, "-seconds", "0.2", "-workers", "2",
		"-ids", "8", "-format", "json", "-scrape",
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := run(o)
	if err != nil {
		t.Fatalf("scrape failure aborted the run: %v", err)
	}
	if m.Requests == 0 {
		t.Fatal("no load metrics despite the run completing")
	}
	if m.Scraped {
		t.Error("report marked scraped despite /metrics failing")
	}
	if m.ScrapeWarning == "" {
		t.Error("no scrape warning in the report")
	}

	var buf bytes.Buffer
	o.format = "text"
	if err := render(&buf, o, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "warning:") {
		t.Errorf("text report missing the scrape warning:\n%s", buf.String())
	}
}
