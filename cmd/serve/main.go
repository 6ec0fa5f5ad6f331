// Command serve runs the query-serving front end: it simulates a scenario
// (or ingests one live) and serves the paper's experiment analyses, match
// lookups, store statistics, and sweep launches over HTTP/JSON.
//
// Usage:
//
//	serve [-addr host:port] [-seed N] [-days N] [-quick] [-scale X]
//	      [-shards N] [-segment-rows N] [-match-workers N] [-cache N]
//	      [-live] [-every HOURS] [-sweep-cap N] [-pprof]
//
// By default the scenario runs to completion first and the server answers
// over the frozen store. With -live the scenario ingests in the background
// and the server opens a read window at every -every hours of virtual
// time, answering queries over the records ingested so far.
//
// GET /metrics exposes the process metrics in Prometheus text format;
// -pprof additionally mounts net/http/pprof under /debug/pprof/.
//
// The bound address is printed to stderr (use -addr :0 for an ephemeral
// port). SIGINT/SIGTERM shut the listener down gracefully, draining
// in-flight requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"panrucio/internal/serve"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
)

type options struct {
	addr         string
	seed         int64
	days         int
	quick        bool
	scale        float64
	shards       int
	segmentRows  int
	matchWorkers int
	cache        int
	live         bool
	everyHours   float64
	sweepCap     int
	pprof        bool
}

// parseFlags parses the command line into options, validating ranges up
// front so bad invocations fail before any simulation starts.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.days, "days", 0, "study-window length in days (0 = scenario default)")
	fs.BoolVar(&o.quick, "quick", false, "serve the quick 2-day scenario instead of the paper window")
	fs.Float64Var(&o.scale, "scale", 0, "event-volume multiplier (0 or 1 = calibrated default)")
	fs.IntVar(&o.shards, "shards", 0, "metastore shards (0 = default); responses are byte-identical for any value")
	fs.IntVar(&o.segmentRows, "segment-rows", 0, "metastore per-shard segment-seal threshold (0 = default)")
	fs.IntVar(&o.matchWorkers, "match-workers", 0, "matcher goroutines per analysis (0 = all cores)")
	fs.IntVar(&o.cache, "cache", 0, "result-cache entries (0 = default 256)")
	fs.BoolVar(&o.live, "live", false, "serve while the scenario ingests (read windows at every -every hours)")
	fs.Float64Var(&o.everyHours, "every", 6, "virtual hours between live read windows (with -live)")
	fs.IntVar(&o.sweepCap, "sweep-cap", 0, "max scenarios one /api/sweep launch may run (0 = default 16)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.days < 0 {
		return nil, fmt.Errorf("-days must be >= 0, got %d", o.days)
	}
	if o.quick && o.days != 0 {
		return nil, errors.New("-quick and -days are mutually exclusive")
	}
	if o.scale < 0 {
		return nil, fmt.Errorf("-scale must be >= 0, got %g", o.scale)
	}
	if o.shards < 0 {
		return nil, fmt.Errorf("-shards must be >= 0, got %d", o.shards)
	}
	if o.segmentRows < 0 {
		return nil, fmt.Errorf("-segment-rows must be >= 0, got %d", o.segmentRows)
	}
	if o.matchWorkers < 0 {
		return nil, fmt.Errorf("-match-workers must be >= 0, got %d", o.matchWorkers)
	}
	if o.cache < 0 {
		return nil, fmt.Errorf("-cache must be >= 0, got %d", o.cache)
	}
	if o.sweepCap < 0 {
		return nil, fmt.Errorf("-sweep-cap must be >= 0, got %d", o.sweepCap)
	}
	// -every is validated unconditionally (not just with -live): a bad
	// value should fail up front, not lie dormant until -live is added.
	if o.everyHours <= 0 {
		return nil, fmt.Errorf("-every must be > 0, got %g", o.everyHours)
	}
	return o, nil
}

// config builds the scenario the server runs.
func config(o *options) sim.Config {
	var cfg sim.Config
	if o.quick {
		cfg = sim.QuickConfig(o.seed)
	} else {
		cfg = sim.Config{Seed: o.seed, Days: o.days}
	}
	cfg.Scale = o.scale
	cfg.Shards = o.shards
	cfg.SegmentRows = o.segmentRows
	return cfg
}

// build constructs the server: a frozen one after running the scenario to
// completion, or a live one ingesting in the background.
func build(o *options) *serve.Server {
	cfg := config(o)
	opt := serve.Options{
		MatchWorkers:     o.matchWorkers,
		CacheEntries:     o.cache,
		SweepScenarioCap: o.sweepCap,
	}
	if o.live {
		every := simtime.VTime(o.everyHours * float64(simtime.Hour))
		return serve.NewLive(cfg, every, opt)
	}
	return serve.NewFrozen(sim.Run(cfg), opt)
}

// handler wraps the server with the optional pprof routes. The profiling
// endpoints live on the outer mux, so they answer even while the serving
// store is mid-ingest with no open read window — exactly when a profile is
// most wanted.
func handler(o *options, s *serve.Server) http.Handler {
	if !o.pprof {
		return s
	}
	mux := http.NewServeMux()
	mux.Handle("/", s)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Connection bounds of the HTTP server. A client gets readHeaderTimeout
// to send its request headers and an idle keep-alive connection closes
// after idleTimeout, so a client that stalls holds no connection forever.
// MaxHeaderBytes keeps net/http's 1 MB default. There is no write
// timeout: a cold E14 or E15 body can take longer to compute than any
// deadline a fast endpoint would want.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer builds the HTTP server main runs around the handler.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	start := time.Now()
	s := build(o)
	if !o.live {
		fmt.Fprintf(os.Stderr, "serve: scenario ready in %v\n", time.Since(start).Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "serve: listening on http://%s (digest %s)\n", ln.Addr(), s.Digest())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := httpServer(handler(o, s))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}
