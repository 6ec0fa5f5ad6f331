// Package storetest provides the deterministic fuzzed put streams, the
// stream oracle and the result-flattening helpers shared by the
// store-level equivalence tests — shard-count equivalence, reset-reuse,
// the mid-run cut-point suite, and the segment-merge and refreeze fuzz
// targets — so each new test layer reuses one generator and one oracle
// instead of copying them.
//
// A Stream is a pseudo-random but fully deterministic interleaving of job,
// file, and transfer puts designed to stress the store's invariants:
// duplicate pandaids, task-less background events, arbitrary
// (non-monotonic) event ids, heavy time-key ties, join keys shared across
// tasks, file-size jitter, and endpoint labels drawn from a small pool so
// the matcher's site conditions bite. Streams can be replayed whole or cut
// at any prefix, which is what the incremental-ingest tests build on: a
// store fed a prefix must answer every query exactly like a fresh store
// fed the same prefix, and exactly like the Oracle built from the prefix.
package storetest

import (
	"fmt"
	"math/rand"
	"sort"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// Sites is the endpoint-label pool Make draws from; jobs only ever run at
// the first two, so UNKNOWN endpoints exercise the RM2 relaxation.
var Sites = []string{"CERN-PROD", "BNL-ATLAS", "UNKNOWN"}

// Stream is a recorded put interleaving. Replay it with Ingest or
// IngestPrefix; replaying never changes the stream, so one stream can feed
// any number of stores. Make generates one; the Add methods record one put
// at a time, which is how fuzz targets log the puts they decode.
type Stream struct {
	jobs  []records.JobRecord
	files []records.FileRecord
	evs   []records.TransferEvent
	puts  []int // interleave: 0=job, 1=file, 2=transfer, in stream order
}

// Make generates a deterministic stream of n puts from the seed. The value
// pools are deliberately tiny — task ids in [0,17), pandaids in [0,40),
// 25 LFNs, 5 datasets, 2 file sizes, 20 time ticks — so shard collisions,
// duplicate keys, and time ties are guaranteed at any stream length.
func Make(seed int64, n int) *Stream {
	rng := rand.New(rand.NewSource(seed))
	st := &Stream{}
	labels := []records.SourceLabel{records.LabelUser, records.LabelManaged}
	acts := []records.Activity{records.AnalysisDownload, records.ProductionUp, records.DataRebalancing}
	for i := 0; i < n; i++ {
		task := int64(rng.Intn(17)) // small pool → many shard collisions, incl. 0
		switch k := rng.Intn(4); k {
		case 0:
			st.jobs = append(st.jobs, records.JobRecord{
				PandaID:         int64(rng.Intn(40)), // duplicates guaranteed
				JediTaskID:      task,
				Label:           labels[rng.Intn(2)],
				ComputingSite:   Sites[rng.Intn(2)], // jobs never run at UNKNOWN
				CreationTime:    simtime.VTime(rng.Intn(5)),
				StartTime:       simtime.VTime(rng.Intn(10)),
				EndTime:         simtime.VTime(rng.Intn(20)), // heavy EndTime ties
				NInputFileBytes: int64(rng.Intn(4)) * 1e9,
			})
			st.puts = append(st.puts, 0)
		case 1:
			st.files = append(st.files, records.FileRecord{
				PandaID:    int64(rng.Intn(40)),
				JediTaskID: task,
				LFN:        fmt.Sprintf("f%d", rng.Intn(25)),
				Scope:      "s",
				Dataset:    fmt.Sprintf("d%d", rng.Intn(5)),
				ProdDBlock: "p",
				FileSize:   int64(1+rng.Intn(2)) * 1e9,
				Kind:       records.FileInput,
			})
			st.puts = append(st.puts, 1)
		default:
			if rng.Intn(3) == 0 {
				task = 0 // task-less background event
			}
			ev := records.TransferEvent{
				EventID:         int64(rng.Intn(1 << 30)), // arbitrary, non-monotonic
				JediTaskID:      task,
				LFN:             fmt.Sprintf("f%d", rng.Intn(25)),
				Scope:           "s",
				Dataset:         fmt.Sprintf("d%d", rng.Intn(5)),
				ProdDBlock:      "p",
				FileSize:        int64(1+rng.Intn(2)) * 1e9,
				SourceSite:      Sites[rng.Intn(3)],
				DestinationSite: Sites[rng.Intn(3)],
				Activity:        acts[rng.Intn(3)],
				StartedAt:       simtime.VTime(rng.Intn(20)), // heavy StartedAt ties
				EndedAt:         simtime.VTime(20 + rng.Intn(20)),
			}
			if rng.Intn(2) == 0 {
				ev.IsDownload = true
			} else {
				ev.IsUpload = true
			}
			st.evs = append(st.evs, ev)
			st.puts = append(st.puts, 2)
		}
	}
	return st
}

// AddJob appends a job put to the stream.
func (st *Stream) AddJob(j records.JobRecord) {
	st.jobs = append(st.jobs, j)
	st.puts = append(st.puts, 0)
}

// AddFile appends a file-row put to the stream.
func (st *Stream) AddFile(f records.FileRecord) {
	st.files = append(st.files, f)
	st.puts = append(st.puts, 1)
}

// AddTransfer appends a transfer put to the stream.
func (st *Stream) AddTransfer(ev records.TransferEvent) {
	st.evs = append(st.evs, ev)
	st.puts = append(st.puts, 2)
}

// FilesFirst returns the stream with every file row moved ahead of every
// other put; jobs and events keep their relative order. Each file row then
// arrives before any event of its key, so a store has to hold it unbound
// and bind it when the key's first event arrives.
func (st *Stream) FilesFirst() *Stream {
	out := &Stream{jobs: st.jobs, files: st.files, evs: st.evs}
	for range st.files {
		out.puts = append(out.puts, 1)
	}
	for _, kind := range st.puts {
		if kind != 1 {
			out.puts = append(out.puts, kind)
		}
	}
	return out
}

// Len reports the number of puts in the stream.
func (st *Stream) Len() int { return len(st.puts) }

// Ingest replays the whole stream into the store in its recorded order.
// It does not Freeze — callers pin the frozen or the live query path
// explicitly.
func (st *Stream) Ingest(s *metastore.Store) { st.IngestPrefix(s, st.Len()) }

// IngestPrefix replays the first k puts of the stream into the store —
// the cut-point primitive of the mid-run equivalence tests.
func (st *Stream) IngestPrefix(s *metastore.Store, k int) { st.IngestRange(s, 0, k) }

// IngestRange replays puts [from, to) of the stream into the store. A
// store fed [0, a) then [a, b) holds exactly the prefix [0, b), which is
// how the cut-point tests advance one live store through successive cuts.
func (st *Stream) IngestRange(s *metastore.Store, from, to int) {
	st.Replay(from, to, s.PutJob, s.PutFile, s.PutTransfer)
}

// Replay hands puts [from, to) of the stream to the three sinks in stream
// order: IngestRange with a store's Put methods, or any other consumer of
// a put stream, such as the simulator's ingest pipe.
func (st *Stream) Replay(from, to int, job func(*records.JobRecord), file func(*records.FileRecord), transfer func(*records.TransferEvent)) {
	var j, f, e int
	for _, kind := range st.puts[:from] {
		switch kind {
		case 0:
			j++
		case 1:
			f++
		default:
			e++
		}
	}
	for _, kind := range st.puts[from:to] {
		switch kind {
		case 0:
			job(&st.jobs[j])
			j++
		case 1:
			file(&st.files[f])
			f++
		default:
			transfer(&st.evs[e])
			e++
		}
	}
}

// EvValues flattens a query result to comparable values (stores copy
// records into their own arenas, so pointer identity never matches across
// stores).
func EvValues(evs []*records.TransferEvent) []records.TransferEvent {
	out := make([]records.TransferEvent, len(evs))
	for i, ev := range evs {
		out[i] = *ev
	}
	return out
}

// JobValues flattens a job query result to comparable values.
func JobValues(js []*records.JobRecord) []records.JobRecord {
	out := make([]records.JobRecord, len(js))
	for i, j := range js {
		out[i] = *j
	}
	return out
}

// Oracle answers the store's query surface for a stream prefix from the
// put stream alone, by the definitions of the queries. It shares no code
// with the store, so it checks every index and binding path of the store
// independently, including a store compared against a frozen copy of
// itself.
type Oracle struct {
	jobs  []records.JobRecord // put order
	files []records.FileRecord
	evs   []records.TransferEvent

	byJob         map[[2]int64][]int // (pandaid, jeditaskid) → file rows
	byKey         map[taskKey][]int  // (jeditaskid ≠ 0, join key) → events
	tasks, pandas map[int64]bool     // every id the prefix uses
}

type taskKey struct {
	task int64
	key  metastore.JoinKey
}

// Oracle builds the oracle for the first k puts of the stream.
func (st *Stream) Oracle(k int) *Oracle {
	o := &Oracle{
		byJob:  map[[2]int64][]int{},
		byKey:  map[taskKey][]int{},
		tasks:  map[int64]bool{},
		pandas: map[int64]bool{},
	}
	var j, f, e int
	for _, kind := range st.puts[:k] {
		switch kind {
		case 0:
			o.jobs = append(o.jobs, st.jobs[j])
			o.pandas[st.jobs[j].PandaID] = true
			o.tasks[st.jobs[j].JediTaskID] = true
			j++
		case 1:
			r := st.files[f]
			id := [2]int64{r.PandaID, r.JediTaskID}
			o.byJob[id] = append(o.byJob[id], len(o.files))
			o.files = append(o.files, r)
			o.pandas[r.PandaID] = true
			o.tasks[r.JediTaskID] = true
			f++
		default:
			ev := st.evs[e]
			if ev.JediTaskID != 0 {
				tk := taskKey{ev.JediTaskID, metastore.EventKey(&ev)}
				o.byKey[tk] = append(o.byKey[tk], len(o.evs))
			}
			o.evs = append(o.evs, ev)
			o.tasks[ev.JediTaskID] = true
			e++
		}
	}
	return o
}

// Entry is an expected join entry: a file row and its candidate events.
type Entry struct {
	File       records.FileRecord
	Candidates []records.TransferEvent
}

// FilesForJob is the prefix's file rows carrying the pandaid and
// jeditaskid, in put order.
func (o *Oracle) FilesForJob(panda, task int64) []records.FileRecord {
	var out []records.FileRecord
	for _, i := range o.byJob[[2]int64{panda, task}] {
		out = append(out, o.files[i])
	}
	return out
}

// TaskTransfersByKey is the prefix's events of the task (never task 0)
// with the join key, in put order.
func (o *Oracle) TaskTransfersByKey(task int64, key metastore.JoinKey) []records.TransferEvent {
	var out []records.TransferEvent
	for _, i := range o.byKey[taskKey{task, key}] {
		out = append(out, o.evs[i])
	}
	return out
}

// JoinEntriesForJob is FilesForJob with each row's candidates: the
// prefix's events of the row's task with the row's join key, in put order.
// It is nil when no row has a candidate, since such a job cannot match.
func (o *Oracle) JoinEntriesForJob(panda, task int64) []Entry {
	var out []Entry
	bound := false
	for _, f := range o.FilesForJob(panda, task) {
		c := o.TaskTransfersByKey(task, metastore.FileKey(&f))
		bound = bound || len(c) > 0
		out = append(out, Entry{File: f, Candidates: c})
	}
	if !bound {
		return nil
	}
	return out
}

// Transfers is the prefix's events with StartedAt in [from, to) (every
// event when from == to == 0), stable-sorted by StartedAt: ties keep put
// order.
func (o *Oracle) Transfers(from, to simtime.VTime) []records.TransferEvent {
	var idx []int
	for i, ev := range o.evs {
		if (from == 0 && to == 0) || (ev.StartedAt >= from && ev.StartedAt < to) {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return o.evs[idx[a]].StartedAt < o.evs[idx[b]].StartedAt })
	out := make([]records.TransferEvent, len(idx))
	for k, i := range idx {
		out[k] = o.evs[i]
	}
	return out
}

// Jobs is the prefix's jobs with EndTime in [from, to) and the label (""
// = any), stable-sorted by EndTime and then stable-sorted by pandaid.
func (o *Oracle) Jobs(from, to simtime.VTime, label records.SourceLabel) []records.JobRecord {
	var idx []int
	for i, j := range o.jobs {
		if j.EndTime >= from && j.EndTime < to && (label == "" || j.Label == label) {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return o.jobs[idx[a]].EndTime < o.jobs[idx[b]].EndTime })
	sort.SliceStable(idx, func(a, b int) bool { return o.jobs[idx[a]].PandaID < o.jobs[idx[b]].PandaID })
	out := make([]records.JobRecord, len(idx))
	for k, i := range idx {
		out[k] = o.jobs[i]
	}
	return out
}

// CheckJoins compares the store's matcher-facing probes —
// JoinEntriesForJob, FilesForJob and TaskTransfersByKey — with the oracle
// for every pandaid × jeditaskid and every task × join key the prefix
// uses, plus ids it never used, and returns the first difference. A job
// whose rows have no candidate must get no join entries yet keep every
// file row, so this also holds the store's split of groups into bound
// and unbound to the put stream.
func (o *Oracle) CheckJoins(s *metastore.Store) error {
	tasks, pandas := sortedIDs(o.tasks), sortedIDs(o.pandas)
	for _, panda := range pandas {
		for _, task := range tasks {
			want := o.JoinEntriesForJob(panda, task)
			got := s.JoinEntriesForJob(panda, task)
			if len(got) != len(want) {
				return fmt.Errorf("JoinEntriesForJob(%d,%d): %d entries, want %d", panda, task, len(got), len(want))
			}
			for i, e := range got {
				if *e.File != want[i].File {
					return fmt.Errorf("JoinEntriesForJob(%d,%d)[%d]: file %+v, want %+v", panda, task, i, *e.File, want[i].File)
				}
				if c := EvValues(e.Candidates()); !sameEvents(c, want[i].Candidates) {
					return fmt.Errorf("JoinEntriesForJob(%d,%d)[%d]: %d candidates %v, want %d %v",
						panda, task, i, len(c), eventIDs(c), len(want[i].Candidates), eventIDs(want[i].Candidates))
				}
			}
			files := s.FilesForJob(panda, task)
			wantFiles := o.FilesForJob(panda, task)
			if len(files) != len(wantFiles) {
				return fmt.Errorf("FilesForJob(%d,%d): %d rows, want %d", panda, task, len(files), len(wantFiles))
			}
			for i, f := range files {
				if *f != wantFiles[i] {
					return fmt.Errorf("FilesForJob(%d,%d)[%d]: %+v, want %+v", panda, task, i, *f, wantFiles[i])
				}
			}
		}
	}
	keys := map[metastore.JoinKey]bool{{LFN: "never-put"}: true}
	for _, f := range o.files {
		keys[metastore.FileKey(&f)] = true
	}
	for _, ev := range o.evs {
		keys[metastore.EventKey(&ev)] = true
	}
	for _, task := range tasks {
		for key := range keys {
			got, want := EvValues(s.TaskTransfersByKey(task, key)), o.TaskTransfersByKey(task, key)
			if !sameEvents(got, want) {
				return fmt.Errorf("TaskTransfersByKey(%d,%+v): %v, want %v", task, key, eventIDs(got), eventIDs(want))
			}
		}
	}
	return nil
}

// CheckRanges compares Transfers and Jobs (every label) with the oracle
// over the whole store and over each [from, to) window, and returns the
// first difference.
func (o *Oracle) CheckRanges(s *metastore.Store, windows [][2]simtime.VTime) error {
	if got, want := EvValues(s.Transfers(0, 0)), o.Transfers(0, 0); !sameEvents(got, want) {
		return fmt.Errorf("Transfers(0,0): %v, want %v", eventIDs(got), eventIDs(want))
	}
	for _, w := range windows {
		if got, want := EvValues(s.Transfers(w[0], w[1])), o.Transfers(w[0], w[1]); !sameEvents(got, want) {
			return fmt.Errorf("Transfers(%d,%d): %v, want %v", w[0], w[1], eventIDs(got), eventIDs(want))
		}
		for _, label := range []records.SourceLabel{"", records.LabelUser, records.LabelManaged} {
			got, want := s.Jobs(w[0], w[1], label), o.Jobs(w[0], w[1], label)
			if len(got) != len(want) {
				return fmt.Errorf("Jobs(%d,%d,%q): %d jobs, want %d", w[0], w[1], label, len(got), len(want))
			}
			for i, j := range got {
				if *j != want[i] {
					return fmt.Errorf("Jobs(%d,%d,%q)[%d]: %+v, want %+v", w[0], w[1], label, i, *j, want[i])
				}
			}
		}
	}
	return nil
}

func sameEvents(a, b []records.TransferEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eventIDs(evs []records.TransferEvent) []int64 {
	ids := make([]int64, len(evs))
	for i, ev := range evs {
		ids[i] = ev.EventID
	}
	return ids
}

// sortedIDs lists the set's ids ascending, plus one id absent from it.
func sortedIDs(set map[int64]bool) []int64 {
	ids := make([]int64, 0, len(set)+1)
	absent := int64(-1)
	for id := range set {
		ids = append(ids, id)
		absent = min(absent, id-1)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return append(ids, absent)
}
