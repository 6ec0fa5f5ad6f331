package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
)

// pandaIDsBody is the exact /api/pandaids body for the first limit ids of
// a window's user jobs, as a fresh Store.Jobs query orders them.
func pandaIDsBody(t *testing.T, jobs []*records.JobRecord, limit int) string {
	t.Helper()
	ids := make([]int64, 0, limit)
	for _, j := range jobs[:min(limit, len(jobs))] {
		ids = append(ids, j.PandaID)
	}
	b, err := json.Marshal(struct {
		PandaIDs []int64 `json:"pandaids"`
	}{ids})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func windowUserJobs(res *sim.Result) []*records.JobRecord {
	return res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
}

// TestPandaIDsMatchStore pins /api/pandaids to a fresh window query on a
// frozen server, at the default limit, inside the window, past it and past
// the cap. It checks before any experiment is rendered and again after
// every store-derived one has, so no analysis can reorder the job list the
// endpoint shares with the suite. An empty window serves an empty list.
func TestPandaIDsMatchStore(t *testing.T) {
	res := sim.Run(sim.QuickConfig(11))
	s := NewFrozen(res, Options{})
	jobs := windowUserJobs(res)
	if len(jobs) < 256 || len(jobs) >= 10000 {
		t.Fatalf("quick window has %d user jobs; the limits below assume 256 <= n < 10000", len(jobs))
	}
	check := func(when string) {
		t.Helper()
		for _, c := range []struct {
			query string
			limit int
		}{
			{"", 256},
			{"?limit=1", 1},
			{"?limit=32", 32},
			{"?limit=256", 256},
			{"?limit=10000", 10000},
			{"?limit=10001", 10000}, // clamped to the cap
		} {
			got := string(get(t, s, "/api/pandaids"+c.query))
			if want := pandaIDsBody(t, jobs, c.limit); got != want {
				t.Errorf("%s: /api/pandaids%s differs from the first %d ids of Store.Jobs:\n got %.200s\nwant %.200s",
					when, c.query, c.limit, got, want)
			}
		}
	}
	check("before any experiment")
	for _, id := range Experiments {
		if id != "e14" && id != "e15" {
			get(t, s, "/api/experiments/"+id)
		}
	}
	check("after every store-derived experiment")

	empty := *res
	empty.WindowTo = empty.WindowFrom
	if got, want := string(get(t, NewFrozen(&empty, Options{}), "/api/pandaids")), "{\"pandaids\":[]}\n"; got != want {
		t.Errorf("empty window: body %q, want %q", got, want)
	}
}

// TestPandaIDsFollowEpochs pins the job list's one-epoch lifetime on a
// live server: every body served mid-run is one checkpoint's window list,
// in non-decreasing checkpoint order, and the body served after Done is
// the final window's. The reference lists come from a separate run of the
// same config.
func TestPandaIDsFollowEpochs(t *testing.T) {
	cfg := sim.QuickConfig(11)
	every := 6 * simtime.Hour
	warmup := simtime.VTime(cfg.WarmupDays) * simtime.Day
	const limit = 10000
	var refs []string
	final := sim.RunWithObserver(cfg, every, func(now simtime.VTime, store *metastore.Store) {
		refs = append(refs, pandaIDsBody(t, store.Jobs(warmup, now, records.LabelUser), limit))
	})
	refs = append(refs, pandaIDsBody(t, windowUserJobs(final), limit))
	if refs[0] == refs[len(refs)-1] {
		t.Fatal("the first checkpoint's list equals the final one; the test could not tell epochs apart")
	}

	s := NewLive(cfg, every, Options{})
	target := fmt.Sprintf("/api/pandaids?limit=%d", limit)
	var (
		bodies []string
		failed string
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, body := do(t, s, http.MethodGet, target)
			if code != http.StatusOK {
				failed = fmt.Sprintf("GET %s = %d: %s", target, code, body)
				return
			}
			bodies = append(bodies, string(body))
		}
	}()
	<-s.Done()
	close(stop)
	wg.Wait()
	if failed != "" {
		t.Fatal(failed)
	}

	at := 0 // index of the checkpoint the previous body matched
	for i, body := range bodies {
		k := at
		for k < len(refs) && refs[k] != body {
			k++
		}
		if k == len(refs) {
			t.Fatalf("mid-run body %d of %d is no checkpoint's list at or after checkpoint %d:\n%.200s",
				i+1, len(bodies), at, body)
		}
		at = k
	}
	if got, want := string(get(t, s, target)), refs[len(refs)-1]; got != want {
		t.Fatalf("after Done: body is not the final window's list:\n got %.200s\nwant %.200s", got, want)
	}
}
