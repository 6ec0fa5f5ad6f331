package metastore

import "panrucio/internal/records"

// shard is one horizontal partition of the store. Jobs and JEDI file rows
// are routed here by jeditaskid hash; transfer events carrying a jeditaskid
// follow their task, task-less (background) events are spread round-robin.
// Matching is task-local, so every per-task index is shard-complete: the
// matcher's JoinEntriesForJob/TaskTransfersByKey probes touch exactly one
// shard. A shard owns only its arenas and its per-task hash maps, both
// maintained incrementally at ingest; the time order of the rows is the
// store's (Store.jobIdx, Store.evIdx).
type shard struct {
	jobs   arena[records.JobRecord]
	files  arena[records.FileRecord]
	events arena[records.TransferEvent]

	evByTask map[int64][]*records.TransferEvent

	// Candidate buckets: the events of one (task, join key) in ingestion
	// order. Each bucket is a slot of the buckets arena, so its address is
	// stable and join entries can point at it while events keep arriving.
	buckets     arena[[]*records.TransferEvent]
	evByTaskKey map[taskSymKey]*[]*records.TransferEvent

	// The file rows, each with its candidate bucket (nil while unbound),
	// grouped by (pandaid, jeditaskid) in ingestion order. A group sits in
	// bound once any of its rows has a bucket and in unbound until then;
	// it moves when its first row binds, and never moves back. Most groups
	// never bind, nor do ~98% of a window's user jobs, so the matcher's
	// per-job probe reads bound alone and a job that cannot match costs
	// one miss in the smaller map. FilesForJob reads whichever map holds
	// the group.
	bound, unbound map[pandaTask][]JoinEntry

	// parked lists, per task, the files-arena rows whose join key had no
	// bucket when they were put: 4 bytes per row, because most file keys
	// never see an event. The key's first event binds them (bind). Task 0
	// never gets a bucket, so its rows are never parked.
	parked map[int64][]uint32
}

func newShard() *shard {
	return &shard{
		evByTask:    make(map[int64][]*records.TransferEvent),
		evByTaskKey: make(map[taskSymKey]*[]*records.TransferEvent),
		bound:       make(map[pandaTask][]JoinEntry),
		unbound:     make(map[pandaTask][]JoinEntry),
		parked:      make(map[int64][]uint32),
	}
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
	// Most rows are unbound and join an unbound group, so that case is
	// tested first and costs what one map did.
	pt := pandaTask{f.PandaID, f.JediTaskID}
	if g, ok := sh.unbound[pt]; ok && e.bucket == nil {
		sh.unbound[pt] = append(g, e)
	} else if g, ok := sh.bound[pt]; ok {
		sh.bound[pt] = append(g, e)
	} else if e.bucket != nil {
		sh.bound[pt] = append(sh.unbound[pt], e)
		delete(sh.unbound, pt)
	} else {
		sh.unbound[pt] = []JoinEntry{e}
	}
}

// putTransfer ingests one event row (already canonicalized by the store);
// key is the event's interned join key. It returns the row's arena
// address.
func (sh *shard) putTransfer(ev records.TransferEvent, key symKey) *records.TransferEvent {
	p := sh.events.put(ev)
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
	return p
}

// bind points the parked entries of ev's task that share ev's join key at
// the key's new bucket b, moves each entry's group to bound if it is not
// there yet, and takes the rows off the task's parked list. Both rows hold
// canonical strings, so equal keys compare by pointer.
func (sh *shard) bind(ev *records.TransferEvent, b *[]*records.TransferEvent) {
	list := sh.parked[ev.JediTaskID]
	kept := list[:0]
	for _, row := range list {
		f := sh.files.at(int(row))
		if f.LFN != ev.LFN || f.Scope != ev.Scope || f.Dataset != ev.Dataset || f.ProdDBlock != ev.ProdDBlock {
			kept = append(kept, row)
			continue
		}
		pt := pandaTask{f.PandaID, f.JediTaskID}
		entries := sh.group(pt)
		sh.bound[pt] = entries
		delete(sh.unbound, pt)
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

// group returns the entries of one (pandaid, jeditaskid) group from
// whichever map holds it.
func (sh *shard) group(pt pandaTask) []JoinEntry {
	if g, ok := sh.bound[pt]; ok {
		return g
	}
	return sh.unbound[pt]
}

// reset rewinds the shard for reuse, keeping arena chunks and map capacity.
// The store resets its time indices first, waiting out any in-flight
// background sort, so a sorter can never race the arena clear.
func (sh *shard) reset() {
	sh.jobs.reset()
	sh.files.reset()
	sh.events.reset()
	sh.buckets.reset()
	clear(sh.evByTask)
	clear(sh.evByTaskKey)
	clear(sh.bound)
	clear(sh.unbound)
	clear(sh.parked)
}
