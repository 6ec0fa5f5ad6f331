package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:8080" || o.seed != 1 || o.live || o.quick {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if o.everyHours != 6 {
		t.Fatalf("every = %g, want 6", o.everyHours)
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	cases := [][]string{
		{"-days", "-1"},
		{"-quick", "-days", "3"},
		{"-scale", "-0.5"},
		{"-shards", "-1"},
		{"-segment-rows", "-8"},
		{"-match-workers", "-2"},
		{"-cache", "-1"},
		{"-sweep-cap", "-1"},
		{"-live", "-every", "0"},
		{"-live", "-every", "-2"},
		{"-every", "0"},  // rejected even without -live
		{"-every", "-2"}, // rejected even without -live
		{"-nosuch"},
	}
	for _, args := range cases {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted, want error", args)
		}
	}
}

func TestParseFlagsAccepts(t *testing.T) {
	o, err := parseFlags([]string{
		"-addr", ":0", "-quick", "-seed", "7", "-shards", "8",
		"-segment-rows", "64", "-live", "-every", "12", "-cache", "32",
		"-pprof",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.pprof {
		t.Fatal("pprof flag not set")
	}
	cfg := config(o)
	if cfg.Seed != 7 || cfg.Days != 2 || cfg.Shards != 8 || cfg.SegmentRows != 64 {
		t.Fatalf("config = %+v", cfg)
	}
}

// TestBuildQuickFrozenServes is the command-level smoke: the built server
// answers over a real listener, including the metrics and pprof routes.
func TestBuildQuickFrozenServes(t *testing.T) {
	o, err := parseFlags([]string{"-quick", "-shards", "2", "-pprof"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler(o, build(o)))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp2, err := http.Get(ts.URL + "/api/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK ||
		!strings.Contains(resp2.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("meta = %d %s", resp2.StatusCode, resp2.Header.Get("Content-Type"))
	}

	resp3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp3.StatusCode != http.StatusOK ||
		!strings.Contains(resp3.Header.Get("Content-Type"), "version=0.0.4") {
		t.Fatalf("metrics = %d %s", resp3.StatusCode, resp3.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"# TYPE serve_request_seconds histogram",
		"serve_cache_hits_total",
		"serve_requests_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp4, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", resp4.StatusCode)
	}
}

// TestHandlerWithoutPprof checks the default: no profiling routes.
func TestHandlerWithoutPprof(t *testing.T) {
	o, err := parseFlags([]string{"-quick", "-shards", "2"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler(o, build(o)))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without -pprof = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPServerBoundsConnections: the server main runs bounds how long a
// client may take to send its headers and how long an idle keep-alive
// connection stays open, so a stalled client cannot hold one forever.
func TestHTTPServerBoundsConnections(t *testing.T) {
	h := http.NotFoundHandler()
	srv := httpServer(h)
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("server has no handler")
	}
}
