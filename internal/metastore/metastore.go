package metastore

import (
	"sync"
	"time"

	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// JoinKey is the composite join key shared by JEDI file rows and transfer
// events: the equality attributes of Algorithm 1 minus file size, which is
// method-dependent (Exact checks it, RM1/RM2 relax it) and therefore left
// to the matcher.
type JoinKey struct {
	LFN        string
	Scope      string
	Dataset    string
	ProdDBlock string
}

// FileKey is the join key of a JEDI file row.
func FileKey(f *records.FileRecord) JoinKey {
	return JoinKey{LFN: f.LFN, Scope: f.Scope, Dataset: f.Dataset, ProdDBlock: f.ProdDBlock}
}

// EventKey is the join key of a transfer event.
func EventKey(ev *records.TransferEvent) JoinKey {
	return JoinKey{LFN: ev.LFN, Scope: ev.Scope, Dataset: ev.Dataset, ProdDBlock: ev.ProdDBlock}
}

// DefaultShards is the shard count New selects. Fixed rather than
// GOMAXPROCS-derived so a store's layout is machine-independent; results
// are byte-identical for any shard count regardless (see the equivalence
// tests), so this is purely a performance default.
const DefaultShards = 8

// Store holds the metadata indices, partitioned into independent shards by
// jeditaskid hash. Records live in per-shard chunked arenas (no per-record
// heap objects) with their labels canonicalized through a store-global
// intern table; a candidate bucket is keyed by its task, the file name as
// the producer gave it and three interned label symbols, not by four
// strings. Matching is task-local, so the matcher's probes
// (JoinEntriesForJob, TaskTransfersByKey) route to exactly one shard.
//
// The time order of each arena kind is one store-wide segmented index:
// rows land in a mutable tail, and the tail seals into an immutable sorted
// segment at SegmentRows (or on Seal). Every query — Jobs, Transfers, the
// matcher probes — answers at any point mid-run: the ranged ones by
// merging the sealed segments and the tail in (time, ingestion-seq)
// order, the matcher probes from join entries bound at ingest. Freeze
// seals the tails and compacts each index to one run, leaving results
// byte-identical for any shard count and segment size.
type Store struct {
	shards  []*shard
	strings *internTable
	segRows int
	seq     uint32 // global put sequence (jobs + transfers)

	// The time indices: jobs by EndTime, transfers by StartedAt, ties in
	// global put order.
	jobIdx segIndex[records.JobRecord]
	evIdx  segIndex[records.TransferEvent]

	// jobsByID stays store-global: duplicate pandaids may hash to
	// different shards, and the index must keep exact last-put-wins
	// semantics. One pointer per job row.
	jobsByID map[int64]*records.JobRecord

	// Cached counters, maintained on PutTransfer.
	withTaskID     int
	taskByActivity map[records.Activity]int

	// Pending obs-counter deltas, batched on the single-writer ingest path
	// (a plain increment per put) and flushed to the process-wide metrics
	// whenever a tail seals, on Seal, Freeze and Reset. Batching keeps the
	// put hot loops free of atomic read-modify-writes; a scrape lags the
	// puts by at most one segment's worth of rows.
	pendJobs      int64
	pendFiles     int64
	pendTransfers int64

	freezeMu sync.Mutex
}

func jobEnd(j *records.JobRecord) simtime.VTime       { return j.EndTime }
func evStart(ev *records.TransferEvent) simtime.VTime { return ev.StartedAt }

// New returns an empty store with DefaultShards shards.
func New() *Store { return NewSharded(DefaultShards) }

// NewSharded returns an empty store with n shards (n < 1 selects
// DefaultShards) and the default segment size. Every query result is
// byte-identical for any n; the knob trades per-shard reset parallelism
// and matcher locality against fixed per-shard overhead.
func NewSharded(n int) *Store { return NewShardedSegmented(n, 0) }

// NewShardedSegmented is NewSharded with an explicit seal threshold: each
// time index's mutable tail seals into an immutable sorted segment once it
// holds segRows rows (< 1 selects DefaultSegmentRows). Like the shard
// count, the segment size is purely a performance knob — results are
// byte-identical for any value.
func NewShardedSegmented(n, segRows int) *Store {
	if n < 1 {
		n = DefaultShards
	}
	if segRows < 1 {
		segRows = DefaultSegmentRows
	}
	s := &Store{
		strings:        newInternTable(),
		segRows:        segRows,
		jobIdx:         segIndex[records.JobRecord]{at: jobEnd, hash: hashJobRow, limit: segRows},
		evIdx:          segIndex[records.TransferEvent]{at: evStart, hash: hashEventRow, limit: segRows},
		jobsByID:       make(map[int64]*records.JobRecord),
		taskByActivity: make(map[records.Activity]int),
	}
	s.shards = make([]*shard, n)
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	return s
}

// ShardCount reports the number of shards.
func (s *Store) ShardCount() int { return len(s.shards) }

// SegmentRows reports the seal threshold the store was built with.
func (s *Store) SegmentRows() int { return s.segRows }

// SealedSegments reports the number of sealed segments across both time
// indices — observability for the segment lifecycle (tail → seal →
// compact) the mid-run tests pin.
func (s *Store) SealedSegments() int { return len(s.jobIdx.sealed) + len(s.evIdx.sealed) }

// shardFor returns the index of the shard owning a JEDI task: every row
// and every per-task index of the task lives there.
func (s *Store) shardFor(jediTaskID int64) int {
	return int(mixTask(jediTaskID) % uint64(len(s.shards)))
}

// mixTask is the splitmix64 finalizer: a fixed, seed-free avalanche of the
// task id so shard routing is deterministic across runs and processes.
func mixTask(task int64) uint64 {
	x := uint64(task)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (s *Store) nextSeq() uint32 {
	s.seq++
	return s.seq
}

// PutJob ingests a job record. Duplicate pandaids overwrite the index entry
// but both rows are retained, mirroring the at-least-once semantics of the
// production pipeline. The record is copied into its shard's arena; the
// caller's pointer is not retained.
func (s *Store) PutJob(j *records.JobRecord) {
	cp := *j
	cp.ComputingSite = s.strings.canon(cp.ComputingSite)
	p := s.shards[s.shardFor(cp.JediTaskID)].jobs.put(cp)
	s.jobsByID[cp.PandaID] = p
	s.pendJobs++
	if s.jobIdx.add(p, s.nextSeq()) {
		s.flushIngestCounters()
	}
}

// PutFile ingests a JEDI file-table row, interning its join labels, and
// binds it to its candidate bucket — the events of its task with the same
// join key — so the matcher's probe never hashes the row's key again. A
// row whose key has no event yet is bound when the first one arrives. The
// record is copied into its shard's arena, its LFN as given.
func (s *Store) PutFile(f *records.FileRecord) {
	cp := *f
	key := s.bucketKey(cp.JediTaskID, cp.LFN, &cp.Scope, &cp.Dataset, &cp.ProdDBlock)
	s.shards[s.shardFor(cp.JediTaskID)].putFile(cp, key)
	s.pendFiles++
}

// PutTransfer ingests a transfer event, interning its join labels and its
// endpoint and activity labels; its LFN is stored as given. Events
// carrying a jeditaskid are routed to their task's shard (keeping the
// matcher's candidate buckets shard-complete); task-less background events
// are spread round-robin for balance — no task-local index ever sees them.
func (s *Store) PutTransfer(ev *records.TransferEvent) {
	cp := *ev
	key := s.bucketKey(cp.JediTaskID, cp.LFN, &cp.Scope, &cp.Dataset, &cp.ProdDBlock)
	cp.SourceRSE = s.strings.canon(cp.SourceRSE)
	cp.DestinationRSE = s.strings.canon(cp.DestinationRSE)
	cp.SourceSite = s.strings.canon(cp.SourceSite)
	cp.DestinationSite = s.strings.canon(cp.DestinationSite)
	cp.Activity = records.Activity(s.strings.canon(string(cp.Activity)))

	seq := s.nextSeq()
	var sh *shard
	if cp.JediTaskID != 0 {
		sh = s.shards[s.shardFor(cp.JediTaskID)]
		s.withTaskID++
		s.taskByActivity[cp.Activity]++
	} else {
		sh = s.shards[int(seq)%len(s.shards)]
	}
	s.pendTransfers++
	if s.evIdx.add(sh.putTransfer(cp, key), seq) {
		s.flushIngestCounters()
	}
}

// bucketKey interns a record's three join labels in place, replacing each
// with its canonical backing, and returns the record's bucket key.
func (s *Store) bucketKey(task int64, lfn string, scope, dataset, prodDBlock *string) bucketKey {
	k := bucketKey{
		task:       task,
		lfn:        lfn,
		scope:      s.strings.sym(*scope),
		dataset:    s.strings.sym(*dataset),
		prodDBlock: s.strings.sym(*prodDBlock),
	}
	*scope, *dataset, *prodDBlock = s.strings.strs[k.scope], s.strings.strs[k.dataset], s.strings.strs[k.prodDBlock]
	return k
}

// Freeze finalizes the store: it seals both tails and compacts each time
// index to one run, so ranged queries read one binary-searched run and the
// steady-state query path merges nothing. Sealed segments are already
// sorted (in the background, as they sealed) and the join entries are
// bound at ingest, so a Freeze costs the sort of the tails plus one merge
// that copies each row once. Freeze is idempotent and safe to call from
// concurrent readers: on a settled store — empty tails, at most one run
// per index — it returns at once and writes nothing. It is not a
// precondition for any query — an unfrozen store answers the same
// queries live from sealed segments plus tail.
func (s *Store) Freeze() {
	s.freezeMu.Lock()
	defer s.freezeMu.Unlock()
	s.flushIngestCounters()
	t0 := time.Now()
	// Captured before the seals below: how many rows had accumulated
	// unsorted since the previous checkpoint.
	tail := s.TailRows()
	jobs, events := s.jobIdx.seal(), s.evIdx.seal()
	jobs = s.jobIdx.compact() || jobs
	events = s.evIdx.compact() || events
	// Every seal's sort has finished (compact waits for them), so no spare
	// tail arrays arrive after these drops.
	s.jobIdx.dropSpare()
	s.evIdx.dropSpare()
	if !jobs && !events {
		return
	}
	mTailRows.Set(int64(tail))
	mFreezes.Inc()
	mFreezeSeconds.ObserveSince(t0)
}

// TailRows reports the rows currently sitting in the mutable (unsealed)
// tails of both time indices. Zero on a frozen store.
func (s *Store) TailRows() int { return len(s.jobIdx.rows) + len(s.evIdx.rows) }

// flushIngestCounters publishes the batched put counters to the
// process-wide registry. It runs on the single-writer ingest path — when a
// put seals a tail, and on Seal, Freeze and Reset — so the pending fields
// are stable and the flush stays off the per-row path. With nothing
// pending it writes nothing, so a Freeze on a settled store stays
// read-only beside concurrent readers.
func (s *Store) flushIngestCounters() {
	if s.pendJobs == 0 && s.pendFiles == 0 && s.pendTransfers == 0 {
		return
	}
	mJobsIngested.Add(s.pendJobs)
	mFilesIngested.Add(s.pendFiles)
	mTransfersIngested.Add(s.pendTransfers)
	s.pendJobs, s.pendFiles, s.pendTransfers = 0, 0, 0
}

// Seal closes both mutable tails into immutable sorted segments without
// compacting: sorting happens in the background while ingestion continues
// into the fresh tails, and queries keep answering live over sealed+tail.
// A long-running ingester can call this at checkpoints to bound the
// tail-sort cost of mid-run queries; Freeze subsumes it.
func (s *Store) Seal() {
	s.jobIdx.seal()
	s.evIdx.seal()
	s.flushIngestCounters()
}

// Reset empties the store for reuse while keeping the arena chunks, index
// maps, and intern-table capacity, so a long-lived store (one per sweep
// worker, say) does not rebuild from scratch for every scenario. Shards
// reset concurrently. The intern table's contents are cleared too — symbols
// restart at zero and the previous scenario's strings are released, so a
// reused worker store cannot leak strings across sweep scenarios. After
// Reset the store is indistinguishable from New()'s result — except that
// any records, query results, or join entries previously obtained from it
// are invalidated and must not be used.
//
// Reset must not run concurrently with ingestion or queries; the sweep
// engine guarantees this by giving each worker goroutine its own store.
func (s *Store) Reset() {
	s.freezeMu.Lock()
	defer s.freezeMu.Unlock()
	s.flushIngestCounters()
	mTailRows.Set(0) // the tails are about to be dropped
	s.jobIdx.reset()
	s.evIdx.reset()
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.reset()
		}(sh)
	}
	wg.Wait()
	clear(s.jobsByID)
	s.strings.reset()
	s.seq = 0
	s.withTaskID = 0
	clear(s.taskByActivity)
}

// pandaTask identifies one job's file-row group: JEDI file rows carry both
// ids, and Algorithm 1's F'_j subset filters on the pair.
type pandaTask struct {
	panda, task int64
}

// JoinEntry pairs one JEDI file row with its candidate bucket: the events
// of the row's task that share its composite join key, in ingestion
// order. The entry holds the bucket itself, bound at ingest, so its
// Candidates reflect every event put so far. Read-only for callers.
type JoinEntry struct {
	File   *records.FileRecord
	bucket *[]*records.TransferEvent
}

// Candidates returns the entry's candidate transfers in ingestion order:
// nil while no event of the row's task carries its join key (always for
// task 0, whose events enter no task index).
func (e JoinEntry) Candidates() []*records.TransferEvent {
	if e.bucket == nil {
		return nil
	}
	return *e.bucket
}

// JoinEntriesForJob returns the job's file rows (Algorithm 1's F'_j) in
// ingestion order with their join buckets bound — the matcher's per-job
// probe, which lives entirely in the task's shard — or nil when none of
// the rows has a candidate yet, since such a job cannot match under any
// method. The entries are bound as rows and events are put, so the call
// is one hash route plus one lookup in the shard's map of bound groups —
// no join-key hashing and no allocation — on a live store and a frozen
// one alike.
func (s *Store) JoinEntriesForJob(pandaID, jediTaskID int64) []JoinEntry {
	return s.shards[s.shardFor(jediTaskID)].bound[pandaTask{pandaID, jediTaskID}]
}

// Counts of ingested records.
func (s *Store) JobCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.jobs.len()
	}
	return n
}

func (s *Store) FileCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.files.len()
	}
	return n
}

func (s *Store) TransferCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.events.len()
	}
	return n
}

// InternedStrings reports the number of distinct labels in the intern
// table (file names are not interned) — observability for the string-leak
// contract of Reset.
func (s *Store) InternedStrings() int { return s.strings.size() }

// TransfersWithTaskID counts events that retained a valid jeditaskid (the
// paper's 1,585,229 of 6,784,936). The counter is maintained at ingest.
func (s *Store) TransfersWithTaskID() int { return s.withTaskID }

// TaskTransfersByActivity returns the per-activity counts of events
// carrying a jeditaskid — Table 1's denominators, cached at ingest.
func (s *Store) TaskTransfersByActivity() map[records.Activity]int {
	out := make(map[records.Activity]int, len(s.taskByActivity))
	for a, n := range s.taskByActivity {
		out[a] = n
	}
	return out
}

// Jobs returns the jobs with EndTime in [from, to) and the given label
// ("" = any), ordered by pandaid ascending; rows sharing a pandaid (the
// at-least-once duplicates) keep their (EndTime, ingestion) order. This
// mirrors the paper's query semantics: only jobs completed inside the
// window are reported. The (EndTime, ingestion)-ordered window comes from
// the jobs time index — the sealed segments' windows plus the tail's,
// merged; one binary-searched run on a frozen store — and is ordered by
// pandaid with the package's stable kernel. The result is a fresh slice
// (nil when nothing matches).
func (s *Store) Jobs(from, to simtime.VTime, label records.SourceLabel) []*records.JobRecord {
	seg := s.jobIdx.window(from, to, false)
	// Pointer-free buffers: window positions and pandaids of the matches.
	pos := make([]int32, 0, len(seg))
	ids := make([]int64, 0, len(seg))
	for i, j := range seg {
		if label == "" || j.Label == label {
			pos = append(pos, int32(i))
			ids = append(ids, j.PandaID)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	out := make([]*records.JobRecord, len(ids))
	for i, k := range stableOrder(ids) {
		out[i] = seg[pos[k]]
	}
	return out
}

// Job resolves a pandaid (the latest ingested row for duplicate ids).
func (s *Store) Job(pandaID int64) (*records.JobRecord, bool) {
	j, ok := s.jobsByID[pandaID]
	return j, ok
}

// FilesForJob returns the JEDI file rows carrying the given pandaid and
// jeditaskid in ingestion order — Algorithm 1's F'_j subset, read off the
// job's join entries in its task's shard, bound or not. The result is a
// fresh slice (nil when there are none).
func (s *Store) FilesForJob(pandaID, jediTaskID int64) []*records.FileRecord {
	var out []*records.FileRecord
	for _, e := range s.shards[s.shardFor(jediTaskID)].group(pandaTask{pandaID, jediTaskID}) {
		out = append(out, e.File)
	}
	return out
}

// TransfersByTaskID returns the transfer events carrying a jeditaskid, in
// ingestion order — a single-shard probe.
func (s *Store) TransfersByTaskID(jedi int64) []*records.TransferEvent {
	return s.shards[s.shardFor(jedi)].evByTask[jedi]
}

// TaskTransfersByKey returns the events of one JEDI task sharing the join
// key — the per-file probe of the indexed matcher, answered entirely by the
// task's shard. Events without a valid jeditaskid are never in this index,
// preserving the paper's "transfers with a valid jeditaskid" pre-selection.
// The key's LFN is compared by content, so any backing of it finds the
// bucket.
func (s *Store) TaskTransfersByKey(jedi int64, key JoinKey) []*records.TransferEvent {
	scope, ok := s.strings.lookup(key.Scope)
	if !ok {
		return nil
	}
	ds, ok := s.strings.lookup(key.Dataset)
	if !ok {
		return nil
	}
	pdb, ok := s.strings.lookup(key.ProdDBlock)
	if !ok {
		return nil
	}
	bk := bucketKey{task: jedi, lfn: key.LFN, scope: scope, dataset: ds, prodDBlock: pdb}
	if b := s.shards[s.shardFor(jedi)].evByTaskKey[bk]; b != nil {
		return *b
	}
	return nil
}

// Transfers returns events with StartedAt in [from, to); from==to==0 means
// everything. Events are ordered by StartedAt (ties in global ingestion
// order), read off the transfers time index the way Jobs reads the jobs
// one. On a frozen store the result aliases the index; callers must not
// modify it.
func (s *Store) Transfers(from, to simtime.VTime) []*records.TransferEvent {
	return s.evIdx.window(from, to, from == 0 && to == 0)
}
