package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"panrucio/internal/sim"
)

// benchServer builds one frozen quick-scenario server, shared across the
// benchmarks in this file.
var benchSrv *Server

func getBenchServer(b *testing.B) *Server {
	if benchSrv == nil {
		benchSrv = NewFrozen(sim.Run(sim.QuickConfig(11)), Options{})
	}
	return benchSrv
}

func benchGet(b *testing.B, s *Server, path string) []byte {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		b.Fatalf("GET %s = %d: %s", path, w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// BenchmarkServeCachedExperiment measures a cached analysis hit — the
// serving layer's O(1) repeat path — and reports how much the epoch-keyed
// cache buys over the cold computation (the issue's bar is 10x).
func BenchmarkServeCachedExperiment(b *testing.B) {
	s := NewFrozen(sim.Run(sim.QuickConfig(11)), Options{})
	t0 := time.Now()
	benchGet(b, s, "/api/experiments/summary") // cold: builds the suite
	cold := time.Since(t0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, s, "/api/experiments/summary")
	}
	b.StopTimer()
	hot := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(cold.Microseconds()), "cold_us")
	b.ReportMetric(float64(hot.Microseconds()), "hot_us")
	if hot > 0 {
		b.ReportMetric(float64(cold)/float64(hot), "speedup")
	}
}

// BenchmarkServeMatchLookup measures the uncached single-job probe: one
// store lookup plus one live Algorithm 1 pass per request.
func BenchmarkServeMatchLookup(b *testing.B) {
	s := getBenchServer(b)
	var ids struct {
		PandaIDs []int64 `json:"pandaids"`
	}
	if err := json.Unmarshal(benchGet(b, s, "/api/pandaids?limit=64"), &ids); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, s, fmt.Sprintf("/api/match?panda=%d", ids.PandaIDs[i%len(ids.PandaIDs)]))
	}
}

// BenchmarkServePandaIDs measures the id sample cmd/loadgen and the
// benchmark's load generators request, /api/pandaids?limit=32, on a warmed
// frozen server.
func BenchmarkServePandaIDs(b *testing.B) {
	s := getBenchServer(b)
	benchGet(b, s, "/api/pandaids?limit=32")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, s, "/api/pandaids?limit=32")
	}
}

// BenchmarkServeConcurrentMixed drives a mixed read workload from all
// procs at once — the in-process analogue of the cmd/loadgen smoke,
// reporting aggregate request throughput.
func BenchmarkServeConcurrentMixed(b *testing.B) {
	s := getBenchServer(b)
	benchGet(b, s, "/api/experiments/rates") // prime the cache
	paths := []string{
		"/api/meta",
		"/api/experiments/rates",
		"/api/pandaids?limit=8",
		"/api/experiments",
	}
	var n atomic.Int64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			benchGet(b, s, paths[i%len(paths)])
			i++
			n.Add(1)
		}
	})
	b.StopTimer()
	if secs := time.Since(start).Seconds(); secs > 0 {
		b.ReportMetric(float64(n.Load())/secs, "req/sec")
	}
}
