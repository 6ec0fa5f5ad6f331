package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"panrucio/internal/sim"
)

// fuzzSrv is the one frozen quick-scenario server every FuzzServeQuery
// input runs against.
var (
	fuzzSrvOnce sync.Once
	fuzzSrv     *Server
)

// FuzzServeQuery sends GET requests with arbitrary paths and raw query
// strings to a frozen server. The properties: no handler panics, no
// response is a 5xx, and every 2xx body is valid JSON — except GET
// /metrics, whose body is the Prometheus text exposition by design. Inputs
// that do not parse as an HTTP request line never reach a handler (the
// server answers them 400 itself) and are skipped.
func FuzzServeQuery(f *testing.F) {
	stubSweepExperiments(f)
	for _, seed := range [][2]string{
		// TestErrorPaths' targets.
		{"/api/experiments/nosuch", ""},
		{"/api/job", ""},
		{"/api/job", "panda=abc"},
		{"/api/job", "panda=999999999"},
		{"/api/match", "panda=1&method=bogus"},
		{"/api/task", "jedi=1&limit=0"},
		{"/api/pandaids", "limit=-1"},
		{"/api/sweep", "grid=nosuch"},
		{"/api/sweep", "seed=x"},
		{"/api/sweep", ""},
		{"/api/meta", ""},
		// The id sample around its bounds.
		{"/api/pandaids", "limit=0"},
		{"/api/pandaids", "limit=1"},
		{"/api/pandaids", "limit=10000"},
		{"/api/pandaids", "limit=10001"},
		{"/api/pandaids", "limit=12345678901234567890"},
		// One well-formed request per other endpoint family.
		{"/healthz", ""},
		{"/api/experiments/summary", ""},
		{"/api/experiments/e15", ""},
		{"/api/task", "jedi=1&limit=3"},
		{"/api/verify", "from=0&to=86400"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, path, query string) {
		line := "GET " + path
		if query != "" {
			line += "?" + query
		}
		req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(line + " HTTP/1.1\r\nHost: fuzz\r\n\r\n")))
		if err != nil {
			t.Skip("not an HTTP request line")
		}
		fuzzSrvOnce.Do(func() { fuzzSrv = NewFrozen(sim.Run(sim.QuickConfig(11)), Options{}) })
		w := httptest.NewRecorder()
		fuzzSrv.ServeHTTP(w, req)
		if w.Code >= 500 {
			t.Fatalf("GET %q = %d: %s", line, w.Code, w.Body.Bytes())
		}
		if w.Code/100 == 2 && req.URL.Path != "/metrics" && !json.Valid(w.Body.Bytes()) {
			t.Fatalf("GET %q = %d with a body that is not JSON: %.200q", line, w.Code, w.Body.Bytes())
		}
	})
}
