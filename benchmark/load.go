package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// request is one scheduled call: when it is due, relative to the start of
// the loop, and what it asks for.
type request struct {
	due   time.Duration
	class string // endpoint class, as in handlerEndpoints
	path  string
}

// weight is one endpoint class's share of a mix.
type weight struct {
	class string
	n     int
}

// target is what a mix draws request parameters from.
type target struct {
	pandaIDs    []int64
	jediIDs     []int64
	experiments []string
}

// draw picks a request class by weight and builds its path, in the shapes
// cmd/loadgen sends.
func (t *target) draw(rng *rand.Rand, mix []weight) (class, path string) {
	total := 0
	for _, w := range mix {
		total += w.n
	}
	k := rng.Intn(total)
	for _, w := range mix {
		if k < w.n {
			class = w.class
			break
		}
		k -= w.n
	}
	switch class {
	case "meta":
		return class, "/api/meta"
	case "layout":
		return class, "/api/meta/layout"
	case "experiment":
		return class, "/api/experiments/" + t.experiments[rng.Intn(len(t.experiments))]
	case "job":
		return class, fmt.Sprintf("/api/job?panda=%d", t.pandaIDs[rng.Intn(len(t.pandaIDs))])
	case "match":
		methods := [...]string{"exact", "rm1", "rm2"}
		return class, fmt.Sprintf("/api/match?panda=%d&method=%s",
			t.pandaIDs[rng.Intn(len(t.pandaIDs))], methods[rng.Intn(len(methods))])
	case "task":
		return class, fmt.Sprintf("/api/task?jedi=%d&limit=64", t.jediIDs[rng.Intn(len(t.jediIDs))])
	case "pandaids":
		return class, "/api/pandaids?limit=32"
	}
	panic("benchmark: unknown endpoint class " + class)
}

// poissonSchedule draws an open-loop schedule: exponential gaps at rate
// requests per second, for dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, t *target, mix []weight) []request {
	var out []request
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return out
		}
		class, path := t.draw(rng, mix)
		out = append(out, request{due: at, class: class, path: path})
	}
}

// sample is one open-loop request's outcome. Latency runs from the time
// the request was due, so a stall delays every request queued behind it
// and shows in their latencies too; late is how far behind schedule the
// generator itself woke up to send it (0 when the request was due before a
// caller was free to wait for it).
type sample struct {
	index   int
	latency time.Duration
	late    time.Duration
	ok      bool
}

// openLoop sends each request at its due time, whether or not earlier ones
// have finished. With conns > 0, that many callers take requests in due
// order, as a client with conns connections would: a free caller sleeps
// until its next request is due and sends it itself, and a request due
// while all are busy waits for one. With conns == 0, a dispatcher starts
// each request on its own goroutine. Closing stop ends dispatch; requests
// not yet sent are dropped, and every sent one is waited for. do receives
// the time the request was due and reports success.
func openLoop(sched []request, conns int, stop <-chan struct{}, do func(i int, r request, due time.Time) bool) []sample {
	samples := make([]sample, len(sched))
	sent := make([]bool, len(sched))
	start := time.Now()
	run := func(i int) {
		due := start.Add(sched[i].due)
		ok := do(i, sched[i], due)
		samples[i].latency = time.Since(due)
		samples[i].ok = ok
	}
	var wg sync.WaitGroup
	if conns > 0 {
		// Sending from the caller that woke, rather than handing the request
		// to it from a dispatcher, saves a goroutine wake-up per request. On
		// a shared two-core VM, over eight seeds alternating the two, it cut
		// serve's median latency from 0.35 to 0.26 ms and its p95 from 2.1
		// to 0.60 ms.
		var next atomic.Int64
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(sched) {
						return
					}
					due := start.Add(sched[i].due)
					idle := time.Now().Before(due)
					if !sleepUntil(due, stop) {
						return
					}
					samples[i].index = i
					if idle { // else the request waited for a caller, not the generator
						samples[i].late = time.Since(due)
					}
					sent[i] = true
					run(i)
				}
			}()
		}
	} else {
		for i, r := range sched {
			if !sleepUntil(start.Add(r.due), stop) {
				break
			}
			samples[i] = sample{index: i, late: time.Since(start.Add(r.due))}
			sent[i] = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(i)
			}()
		}
	}
	wg.Wait()
	out := samples[:0]
	for i, s := range samples {
		if sent[i] {
			out = append(out, s)
		}
	}
	return out
}

// closedLoop runs conns callers back to back: each sends its next request
// when the previous one returns. It counts completions inside the measure
// window that follows warm-up, and failures over both.
func closedLoop(conns int, warm, measure time.Duration, call func(rng *rand.Rand) bool, seed int64) (completed, failed int64) {
	var done, bad atomic.Int64
	begin := time.Now()
	from, to := begin.Add(warm), begin.Add(warm+measure)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
			for time.Now().Before(to) {
				ok := call(rng)
				now := time.Now()
				if !ok {
					bad.Add(1)
				} else if now.After(from) && now.Before(to) {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return done.Load(), bad.Load()
}
