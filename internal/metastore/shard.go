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
// shard. The hash indices are maintained incrementally at ingest; the
// time-sorted view of each arena is a segIndex — immutable sealed segments
// plus a mutable tail — so the time-ranged queries can answer at any point
// mid-run by merging sealed+tail runs, and Freeze only sorts the current
// tail instead of re-sorting history.
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

	filesByPanda map[int64][]fileEntry
	evByTask     map[int64][]*records.TransferEvent
	evByTaskKey  map[taskSymKey][]*records.TransferEvent

	// entriesByJob binds each job's file rows to their candidate buckets at
	// Freeze — the frozen store's allocation-free matcher probe. Mid-run the
	// probe is answered live from filesByPanda + evByTaskKey instead.
	entriesByJob map[pandaTask][]JoinEntry
}

// fileEntry pairs a file row with its interned join key, resolved once at
// ingest so neither the freeze-time candidate binding nor the live
// mid-run probe has to re-hash the row's strings.
type fileEntry struct {
	row *records.FileRecord
	key symKey
}

func jobEnd(j *records.JobRecord) simtime.VTime       { return j.EndTime }
func evStart(ev *records.TransferEvent) simtime.VTime { return ev.StartedAt }

func newShard(segRows int) *shard {
	sh := &shard{
		filesByPanda: make(map[int64][]fileEntry),
		evByTask:     make(map[int64][]*records.TransferEvent),
		evByTaskKey:  make(map[taskSymKey][]*records.TransferEvent),
	}
	sh.jobSegs.at, sh.jobSegs.limit = jobEnd, segRows
	sh.evSegs.at, sh.evSegs.limit = evStart, segRows
	sh.jobSegs.hash = hashJobRow
	sh.evSegs.hash = hashEventRow
	return sh
}

// putJob ingests one job row (already canonicalized by the store).
func (sh *shard) putJob(j records.JobRecord, seq uint32) *records.JobRecord {
	p := sh.jobs.put(j)
	sh.jobSeq = append(sh.jobSeq, seq)
	sh.jobSegs.noteAppend(&sh.jobs, sh.jobSeq)
	return p
}

// putFile ingests one file row (already canonicalized by the store); key
// is the row's interned join key.
func (sh *shard) putFile(f records.FileRecord, key symKey) *records.FileRecord {
	p := sh.files.put(f)
	sh.filesByPanda[f.PandaID] = append(sh.filesByPanda[f.PandaID], fileEntry{row: p, key: key})
	return p
}

// putTransfer ingests one event row (already canonicalized by the store);
// key is the event's interned join key.
func (sh *shard) putTransfer(ev records.TransferEvent, key symKey, seq uint32) *records.TransferEvent {
	p := sh.events.put(ev)
	sh.evSeq = append(sh.evSeq, seq)
	sh.evSegs.noteAppend(&sh.events, sh.evSeq)
	if ev.JediTaskID != 0 {
		sh.evByTask[ev.JediTaskID] = append(sh.evByTask[ev.JediTaskID], p)
		tk := taskSymKey{ev.JediTaskID, key}
		sh.evByTaskKey[tk] = append(sh.evByTaskKey[tk], p)
	}
	return p
}

// seal closes both tails into sealed segments (sorting in the background);
// ingestion may continue into the fresh tails immediately.
func (sh *shard) seal() {
	sh.jobSegs.seal(&sh.jobs, sh.jobSeq)
	sh.evSegs.seal(&sh.events, sh.evSeq)
}

// freeze finalizes the shard for the frozen query path: seal the tails,
// compact all sealed segments into one run per arena, and bind the
// pre-resolved join entries. Shards freeze concurrently: each touches only
// its own arenas and indices.
func (sh *shard) freeze() {
	sh.seal()
	sh.jobSegs.compact()
	sh.evSegs.compact()

	sh.entriesByJob = make(map[pandaTask][]JoinEntry, len(sh.filesByPanda))
	for panda, list := range sh.filesByPanda {
		for _, fe := range list {
			k := pandaTask{panda, fe.row.JediTaskID}
			sh.entriesByJob[k] = append(sh.entriesByJob[k], JoinEntry{
				File:       fe.row,
				Candidates: sh.evByTaskKey[taskSymKey{fe.row.JediTaskID, fe.key}],
			})
		}
	}
}

// liveEntriesForJob answers the matcher's per-job probe mid-run, before any
// freeze: the job's file rows with their candidate buckets resolved from
// the incrementally maintained indices. Unlike the frozen path this
// allocates the entry slice per call — the price of a moving target.
func (sh *shard) liveEntriesForJob(pandaID, jediTaskID int64) []JoinEntry {
	var out []JoinEntry
	for _, fe := range sh.filesByPanda[pandaID] {
		if fe.row.JediTaskID != jediTaskID {
			continue
		}
		out = append(out, JoinEntry{
			File:       fe.row,
			Candidates: sh.evByTaskKey[taskSymKey{jediTaskID, fe.key}],
		})
	}
	return out
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
	sh.jobSeq = sh.jobSeq[:0]
	sh.evSeq = sh.evSeq[:0]
	clear(sh.filesByPanda)
	clear(sh.evByTask)
	clear(sh.evByTaskKey)
	sh.entriesByJob = nil
}
