package core

import (
	"sort"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// Method selects the matching strategy.
type Method int

// Matching strategies, in increasing permissiveness.
const (
	Exact Method = iota
	RM1
	RM2
)

func (m Method) String() string {
	switch m {
	case Exact:
		return "Exact"
	case RM1:
		return "RM1"
	case RM2:
		return "RM2"
	}
	return "Method(?)"
}

// TransferClass labels a matched job by the locality of its transfer set
// (Table 2b columns).
type TransferClass int

// Job transfer classes.
const (
	AllLocal TransferClass = iota
	AllRemote
	Mixed
)

func (c TransferClass) String() string {
	switch c {
	case AllLocal:
		return "all-local"
	case AllRemote:
		return "all-remote"
	case Mixed:
		return "mixed"
	}
	return "class(?)"
}

// Match is one job with its matched transfer events.
type Match struct {
	Job       *records.JobRecord
	Transfers []*records.TransferEvent
}

// Class reports the locality class of the matched transfer set.
func (m *Match) Class() TransferClass {
	local, remote := 0, 0
	for _, ev := range m.Transfers {
		if ev.IsLocal() {
			local++
		} else {
			remote++
		}
	}
	switch {
	case remote == 0:
		return AllLocal
	case local == 0:
		return AllRemote
	default:
		return Mixed
	}
}

// QueueTransferTime is the paper's file-transfer-time metric: the length of
// the union of matched-transfer activity intervals clipped to the job's
// queuing phase [creation, start). "The cumulative duration during the
// job's queuing time in which at least one associated file was actively
// transferring."
func (m *Match) QueueTransferTime() simtime.VTime {
	return unionWithin(m.Transfers, m.Job.CreationTime, m.Job.StartTime)
}

// QueueTransferFraction is QueueTransferTime over the job's queuing time,
// in [0,1]; zero when the job had no queuing phase.
func (m *Match) QueueTransferFraction() float64 {
	q := m.Job.QueueTime()
	if q <= 0 {
		return 0
	}
	return m.QueueTransferTime().Seconds() / q.Seconds()
}

// TotalBytes sums the matched transfers' recorded sizes.
func (m *Match) TotalBytes() int64 {
	var total int64
	for _, ev := range m.Transfers {
		total += ev.FileSize
	}
	return total
}

// unionWithin measures the union of [StartedAt, EndedAt) clipped to
// [lo, hi).
func unionWithin(evs []*records.TransferEvent, lo, hi simtime.VTime) simtime.VTime {
	if hi <= lo || len(evs) == 0 {
		return 0
	}
	type iv struct{ a, b simtime.VTime }
	var ivs []iv
	for _, ev := range evs {
		a, b := ev.StartedAt, ev.EndedAt
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end simtime.VTime
	end = -1
	var start simtime.VTime
	started := false
	for _, x := range ivs {
		if !started {
			start, end, started = x.a, x.b, true
			continue
		}
		if x.a > end {
			total += end - start
			start, end = x.a, x.b
			continue
		}
		if x.b > end {
			end = x.b
		}
	}
	if started {
		total += end - start
	}
	return total
}

// Matcher runs the strategies against a metastore.
type Matcher struct {
	store *metastore.Store
}

// NewMatcher builds a matcher over the given store.
func NewMatcher(store *metastore.Store) *Matcher { return &Matcher{store: store} }

// MatchJob applies the chosen strategy to one job and returns its matched
// transfer events (nil when unmatched). This is Algorithm 1 with the
// RM1/RM2 relaxations switchable. It works mid-run on a live (un-frozen)
// store as well as on a frozen one: the store binds each file row to its
// candidate bucket at ingest, so the probe is allocation-free either way
// and answers identically for the same ingested prefix (see the cut-point
// equivalence tests).
//
// Candidate generation probes the metastore's per-task composite join-key
// index with each JEDI file row instead of scanning the task's whole
// candidate list per row (the original nested loop survives as
// matchJobReference, the oracle of the equivalence tests). A transfer
// matched by more than one file row is kept once, preserving Exact's
// whole-set size-sum semantics. Each call counts one probe in
// core_match_probes_total.
func (m *Matcher) MatchJob(j *records.JobRecord, method Method) []*records.TransferEvent {
	mMatchProbes.Inc()
	return m.matchJob(j, method)
}

// matchJob is MatchJob without the probe count: a matching pass counts its
// jobs once, so its workers share no counter cache line per job.
func (m *Matcher) matchJob(j *records.JobRecord, method Method) []*records.TransferEvent {
	entries := m.store.JoinEntriesForJob(j.PandaID, j.JediTaskID) // F'_j with buckets bound
	if len(entries) == 0 {
		return nil
	}
	// Candidate buckets only hold transfers with a valid jeditaskid — the
	// pre-selection that defines the paper's denominator — and are already
	// join-key-matched, so only the method-dependent size check remains.
	var set []*records.TransferEvent
	for _, e := range entries {
		for _, ev := range e.Candidates() {
			if method == Exact && ev.FileSize != e.File.FileSize {
				continue
			}
			if containsEvent(set, ev.EventID) {
				continue
			}
			set = append(set, ev)
		}
	}
	return finalizeSet(j, method, set)
}

// containsEvent reports whether the candidate set already holds the event.
// Matched sets are small (a job's file count), so a linear scan beats a
// per-job map allocation.
func containsEvent(set []*records.TransferEvent, id int64) bool {
	for _, ev := range set {
		if ev.EventID == id {
			return true
		}
	}
	return false
}

// finalizeSet applies the whole-set filtering of paper Section 4.2 to a
// candidate set. It is shared by the indexed matcher and the nested-loop
// reference so the two can only diverge in candidate generation.
func finalizeSet(j *records.JobRecord, method Method, set []*records.TransferEvent) []*records.TransferEvent {
	if len(set) == 0 {
		return nil
	}
	var kept []*records.TransferEvent
	for _, ev := range set {
		if ev.StartedAt >= j.EndTime {
			continue // condition (1): transfer started before job end
		}
		if method != RM2 {
			// Condition (3): downloads must land at the computing site,
			// uploads must leave from it.
			okDown := ev.IsDownload && ev.DestinationSite == j.ComputingSite
			okUp := ev.IsUpload && ev.SourceSite == j.ComputingSite
			if !okDown && !okUp {
				continue
			}
		}
		kept = append(kept, ev)
	}
	if len(kept) == 0 {
		return nil
	}
	if method == Exact {
		// Condition (2): the whole-set size sum equals the job's input or
		// output byte count.
		var sum int64
		for _, ev := range kept {
			sum += ev.FileSize
		}
		if sum != j.NInputFileBytes && sum != j.NOutputFileBytes {
			return nil
		}
	}
	return kept
}

// Result aggregates a full matching pass (one method over a job set).
type Result struct {
	Method  Method
	Matches []Match

	// Denominators, mirroring the paper's Section 5.1 accounting.
	TotalJobs           int
	TotalTransfers      int
	TransfersWithTaskID int

	// Numerators.
	MatchedJobs      int
	MatchedTransfers int // unique events across all matches

	LocalTransfers  int
	RemoteTransfers int

	JobsAllLocal  int
	JobsAllRemote int
	JobsMixed     int
}

// MatchedTransferPct is matched transfers over transfers-with-taskid, in
// percent (Table 2a's rightmost column).
func (r *Result) MatchedTransferPct() float64 {
	if r.TransfersWithTaskID == 0 {
		return 0
	}
	return 100 * float64(r.MatchedTransfers) / float64(r.TransfersWithTaskID)
}

// MatchedJobPct is matched jobs over total jobs, in percent.
func (r *Result) MatchedJobPct() float64 {
	if r.TotalJobs == 0 {
		return 0
	}
	return 100 * float64(r.MatchedJobs) / float64(r.TotalJobs)
}

// RedundantGroup is a set of ≥2 matched transfers moving the same file
// (same LFN) for the same job — the avoidable duplicate pattern of
// Fig. 12 / Table 3.
type RedundantGroup struct {
	LFN    string
	Events []*records.TransferEvent
}

// FindRedundant returns the duplicate-transfer groups within one match,
// sorted by LFN.
func FindRedundant(m *Match) []RedundantGroup {
	byLFN := make(map[string][]*records.TransferEvent)
	for _, ev := range m.Transfers {
		byLFN[ev.LFN] = append(byLFN[ev.LFN], ev)
	}
	var out []RedundantGroup
	for lfn, evs := range byLFN {
		if len(evs) >= 2 {
			sort.Slice(evs, func(i, j int) bool { return evs[i].StartedAt < evs[j].StartedAt })
			out = append(out, RedundantGroup{LFN: lfn, Events: evs})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LFN < out[j].LFN })
	return out
}

// Inference is a reconstructed site label for a transfer with missing
// metadata (Section 5.4: "in some RM2 cases the missing or incorrect site
// information can be inferred").
type Inference struct {
	Event        *records.TransferEvent
	Field        string // "source" or "destination"
	InferredSite string
	// Evidence is "duplicate" when a same-LFN, same-size matched transfer
	// with intact metadata pins the site (the Table 3 pattern), or
	// "site-condition" when the job's computing site is the only label
	// consistent with the match.
	Evidence string
}

// InferUnknownSites reconstructs UNKNOWN or invalid endpoint labels for the
// transfers of an RM2 match. The store is never mutated; callers decide
// what to do with the inferences.
func InferUnknownSites(m *Match, grid *topology.Grid) []Inference {
	known := func(site string) bool {
		_, ok := grid.Site(site)
		return ok
	}
	var out []Inference
	for _, ev := range m.Transfers {
		badSrc := !known(ev.SourceSite)
		badDst := !known(ev.DestinationSite)
		if !badSrc && !badDst {
			continue
		}
		// Duplicate evidence: another matched transfer of the same file
		// with the same recorded size and an intact label.
		var dupSrc, dupDst string
		for _, other := range m.Transfers {
			if other == ev || other.LFN != ev.LFN || other.FileSize != ev.FileSize {
				continue
			}
			if known(other.SourceSite) {
				dupSrc = other.SourceSite
			}
			if known(other.DestinationSite) {
				dupDst = other.DestinationSite
			}
		}
		if badSrc {
			switch {
			case dupSrc != "":
				out = append(out, Inference{ev, "source", dupSrc, "duplicate"})
			case ev.IsUpload:
				out = append(out, Inference{ev, "source", m.Job.ComputingSite, "site-condition"})
			}
		}
		if badDst {
			switch {
			case dupDst != "":
				out = append(out, Inference{ev, "destination", dupDst, "duplicate"})
			case ev.IsDownload:
				out = append(out, Inference{ev, "destination", m.Job.ComputingSite, "site-condition"})
			}
		}
	}
	return out
}
