package metastore

import (
	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// shard is one horizontal partition of the store. Jobs and JEDI file rows
// are routed here by jeditaskid hash; transfer events carrying a jeditaskid
// follow their task, task-less (background) events are spread round-robin.
// Matching is task-local, so every per-task index is shard-complete: the
// matcher's JoinEntriesForJob/TaskTransfersByKey probes touch exactly one
// shard. The hash indices and the join-entry bindings are maintained
// incrementally at ingest; the time-sorted view of each arena is a
// segIndex — immutable sealed segments plus a mutable tail — so the
// time-ranged queries can answer at any point mid-run by merging
// sealed+tail runs, and Freeze only sorts the current tail instead of
// re-sorting history.
type shard struct {
	jobs   arena[records.JobRecord]
	files  arena[records.FileRecord]
	events arena[records.TransferEvent]

	// Global put sequence per arena row. Rows within a shard are already in
	// global ingestion order; the sequences order rows across shards and
	// segments when sorted runs are merged (time ties keep ingestion order).
	jobSeq []uint32
	evSeq  []uint32

	// Segmented (time, seq) indices over the jobs and events arenas.
	jobSegs segIndex[records.JobRecord]
	evSegs  segIndex[records.TransferEvent]

	evByTask map[int64][]*records.TransferEvent

	// Candidate buckets: the events of one (task, join key) in ingestion
	// order. Each bucket is a slot of the buckets arena, so its address is
	// stable and join entries can point at it while events keep arriving.
	buckets     arena[[]*records.TransferEvent]
	evByTaskKey map[taskSymKey]*[]*records.TransferEvent

	// entries holds every file row, bound to its candidate bucket, grouped
	// by (pandaid, jeditaskid) in ingestion order: the matcher's per-job
	// probe and FilesForJob read it directly, mid-run or frozen.
	entries map[pandaTask][]JoinEntry

	// parked lists, per task, the files-arena rows whose join key had no
	// bucket when they were put: 4 bytes per row, because most file keys
	// never see an event. The key's first event binds them (bind). Task 0
	// never gets a bucket, so its rows are never parked.
	parked map[int64][]uint32
}

func jobEnd(j *records.JobRecord) simtime.VTime       { return j.EndTime }
func evStart(ev *records.TransferEvent) simtime.VTime { return ev.StartedAt }

func newShard(segRows int) *shard {
	sh := &shard{
		evByTask:    make(map[int64][]*records.TransferEvent),
		evByTaskKey: make(map[taskSymKey]*[]*records.TransferEvent),
		entries:     make(map[pandaTask][]JoinEntry),
		parked:      make(map[int64][]uint32),
	}
	sh.jobSegs.at, sh.jobSegs.limit = jobEnd, segRows
	sh.evSegs.at, sh.evSegs.limit = evStart, segRows
	sh.jobSegs.hash = hashJobRow
	sh.evSegs.hash = hashEventRow
	return sh
}

// putJob ingests one job row (already canonicalized by the store) and
// reports whether the put sealed the jobs tail.
func (sh *shard) putJob(j records.JobRecord, seq uint32) (*records.JobRecord, bool) {
	p := sh.jobs.put(j)
	sh.jobSeq = append(sh.jobSeq, seq)
	return p, sh.jobSegs.noteAppend(&sh.jobs, sh.jobSeq)
}

// putFile ingests one file row (already canonicalized by the store); key
// is the row's interned join key. The row is bound to its candidate
// bucket here, or parked until the key's first event creates one.
func (sh *shard) putFile(f records.FileRecord, key symKey) {
	row := uint32(sh.files.len())
	e := JoinEntry{File: sh.files.put(f)}
	if f.JediTaskID != 0 {
		e.bucket = sh.evByTaskKey[taskSymKey{f.JediTaskID, key}]
		if e.bucket == nil {
			sh.parked[f.JediTaskID] = append(sh.parked[f.JediTaskID], row)
		}
	}
	pt := pandaTask{f.PandaID, f.JediTaskID}
	sh.entries[pt] = append(sh.entries[pt], e)
}

// putTransfer ingests one event row (already canonicalized by the store);
// key is the event's interned join key. It reports whether the put sealed
// the events tail.
func (sh *shard) putTransfer(ev records.TransferEvent, key symKey, seq uint32) bool {
	p := sh.events.put(ev)
	sh.evSeq = append(sh.evSeq, seq)
	sealed := sh.evSegs.noteAppend(&sh.events, sh.evSeq)
	if ev.JediTaskID != 0 {
		sh.evByTask[ev.JediTaskID] = append(sh.evByTask[ev.JediTaskID], p)
		tk := taskSymKey{ev.JediTaskID, key}
		b := sh.evByTaskKey[tk]
		if b == nil {
			b = sh.buckets.put(nil)
			sh.evByTaskKey[tk] = b
			sh.bind(p, b)
		}
		*b = append(*b, p)
	}
	return sealed
}

// bind points the parked entries of ev's task that share ev's join key at
// the key's new bucket b and takes them off the task's parked list. Both
// rows hold canonical strings, so equal keys compare by pointer.
func (sh *shard) bind(ev *records.TransferEvent, b *[]*records.TransferEvent) {
	list := sh.parked[ev.JediTaskID]
	kept := list[:0]
	for _, row := range list {
		f := sh.files.at(int(row))
		if f.LFN != ev.LFN || f.Scope != ev.Scope || f.Dataset != ev.Dataset || f.ProdDBlock != ev.ProdDBlock {
			kept = append(kept, row)
			continue
		}
		entries := sh.entries[pandaTask{f.PandaID, f.JediTaskID}]
		for i := range entries {
			if entries[i].File == f {
				entries[i].bucket = b
				break
			}
		}
	}
	switch {
	case len(kept) == 0 && len(list) > 0:
		delete(sh.parked, ev.JediTaskID)
	case len(kept) < len(list):
		sh.parked[ev.JediTaskID] = kept
	}
}

// seal closes both tails into sealed segments (sorting in the background);
// ingestion may continue into the fresh tails immediately.
func (sh *shard) seal() {
	sh.jobSegs.seal(&sh.jobs, sh.jobSeq)
	sh.evSegs.seal(&sh.events, sh.evSeq)
}

// freeze seals the tails and compacts each time index to one run,
// returning the runs sealed since the previous freeze (every run when all
// is set) for the store-level merge. Shards freeze concurrently: each
// touches only its own arenas and indices.
func (sh *shard) freeze(all bool) ([]segRun[records.JobRecord], []segRun[records.TransferEvent]) {
	sh.seal()
	return sh.jobSegs.compact(all), sh.evSegs.compact(all)
}

// reset rewinds the shard for reuse, keeping arena chunks and map capacity.
// Segment indices reset first: reset waits out any in-flight background
// sort, so a sorter can never race the arena clear.
func (sh *shard) reset() {
	sh.jobSegs.reset()
	sh.evSegs.reset()
	sh.jobs.reset()
	sh.files.reset()
	sh.events.reset()
	sh.buckets.reset()
	sh.jobSeq = sh.jobSeq[:0]
	sh.evSeq = sh.evSeq[:0]
	clear(sh.evByTask)
	clear(sh.evByTaskKey)
	clear(sh.entries)
	clear(sh.parked)
}
