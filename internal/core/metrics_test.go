package core

import (
	"testing"

	"panrucio/internal/records"
)

// TestMatchProbeCounter pins core_match_probes_total to the number of jobs
// evaluated however they were evaluated: a pass adds its job count once,
// at one worker and at several, a direct MatchJob call adds one, and a
// pass over no jobs adds nothing.
func TestMatchProbeCounter(t *testing.T) {
	store, jobs := benchStore(3, 4, 2, 2)
	m := NewMatcher(store)
	n := int64(len(jobs))
	for _, c := range []struct {
		name string
		do   func()
		want int64
	}{
		{"RunParallel/1", func() { m.RunParallel(jobs, RM1, 1) }, n},
		{"RunParallel/3", func() { m.RunParallel(jobs, RM2, 3) }, n},
		{"MatchJob", func() { m.MatchJob(jobs[0], Exact) }, 1},
		{"RunParallel/1/empty", func() { m.RunParallel(nil, Exact, 1) }, 0},
		{"RunParallel/3/empty", func() { m.RunParallel([]*records.JobRecord{}, RM2, 3) }, 0},
	} {
		before := mMatchProbes.Value()
		c.do()
		if got := mMatchProbes.Value() - before; got != c.want {
			t.Errorf("%s: core_match_probes_total moved by %d, want %d", c.name, got, c.want)
		}
	}
}
