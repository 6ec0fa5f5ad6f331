package metastore

import (
	"sort"
	"sync"
	"sync/atomic"
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
// heap objects) with their string attributes canonicalized through a
// store-global intern table; the join indices are keyed by 16-byte interned
// symbol tuples instead of string quadruples. Matching is task-local, so
// the matcher's probes (JoinEntriesForJob, TaskTransfersByKey) route to
// exactly one shard.
//
// Each shard's time-sorted view is segmented: rows land in a mutable tail
// whose indices are maintained incrementally, and tails seal into
// immutable sorted segments at SegmentRows (or on Seal). Every query —
// Jobs, Transfers, the matcher probes — answers at any point mid-run:
// the ranged ones by merging sealed segments and tails in (time,
// ingestion-seq) order, the matcher probes from join entries bound at
// ingest. Freeze seals and compacts the tails and merges the runs sealed
// since the previous Freeze into the store-level indices the frozen fast
// path serves from, leaving results byte-identical to the live path for
// any shard count and segment size.
type Store struct {
	shards  []*shard
	strings *internTable
	segRows int
	seq     uint32 // global put sequence (jobs + transfers)

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
	// puts by at most one segment's worth of rows per shard.
	pendJobs      int64
	pendFiles     int64
	pendTransfers int64

	// Merged sorted time indices, built by Freeze from the per-shard runs.
	// jobsByEnd is ordered by EndTime, evByStart by StartedAt (ties keep
	// global ingestion order); jobSeqs and evSeqs are their rows' global
	// sequences, which break time ties when the next Freeze merges newly
	// sealed runs in.
	jobsByEnd []*records.JobRecord
	jobSeqs   []uint32
	evByStart []*records.TransferEvent
	evSeqs    []uint32

	// rebuild makes the next Freeze merge every sealed run from scratch
	// instead of only the runs sealed since the previous Freeze. Set by
	// TruncateSealed: the indices still hold the rows it dropped.
	rebuild bool

	frozen   atomic.Bool
	freezeMu sync.Mutex
}

// New returns an empty store with DefaultShards shards.
func New() *Store { return NewSharded(DefaultShards) }

// NewSharded returns an empty store with n shards (n < 1 selects
// DefaultShards) and the default segment size. Every query result is
// byte-identical for any n; the knob trades per-shard freeze/reset
// parallelism and matcher locality against fixed per-shard overhead.
func NewSharded(n int) *Store { return NewShardedSegmented(n, 0) }

// NewShardedSegmented is NewSharded with an explicit seal threshold: each
// shard's mutable tail seals into an immutable sorted segment once it
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
		jobsByID:       make(map[int64]*records.JobRecord),
		taskByActivity: make(map[records.Activity]int),
	}
	s.shards = make([]*shard, n)
	for i := range s.shards {
		s.shards[i] = newShard(segRows)
	}
	return s
}

// ShardCount reports the number of shards.
func (s *Store) ShardCount() int { return len(s.shards) }

// SegmentRows reports the seal threshold the store was built with.
func (s *Store) SegmentRows() int { return s.segRows }

// SealedSegments reports the total number of sealed segments across all
// shards and both time indices — observability for the segment lifecycle
// (tail → seal → compact) the mid-run tests pin.
func (s *Store) SealedSegments() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.jobSegs.segments() + sh.evSegs.segments()
	}
	return n
}

// ShardFor returns the shard index owning a JEDI task — exposed so the
// matcher pipeline can give each worker shard-affine job subsets (one
// worker's probes then stay within one shard's arenas).
func (s *Store) ShardFor(jediTaskID int64) int {
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
	p, sealed := s.shards[s.ShardFor(cp.JediTaskID)].putJob(cp, s.nextSeq())
	s.jobsByID[cp.PandaID] = p
	s.pendJobs++
	if sealed {
		s.flushIngestCounters()
	}
	s.frozen.Store(false)
}

// PutFile ingests a JEDI file-table row, interning its join attributes,
// and binds it to its candidate bucket — the events of its task with the
// same join key — so the matcher's probe never re-hashes the strings. A
// row whose key has no event yet is bound when the first one arrives. The
// record is copied into its shard's arena.
func (s *Store) PutFile(f *records.FileRecord) {
	cp := *f
	key := symKey{
		lfn:        s.strings.sym(cp.LFN),
		scope:      s.strings.sym(cp.Scope),
		dataset:    s.strings.sym(cp.Dataset),
		prodDBlock: s.strings.sym(cp.ProdDBlock),
	}
	cp.LFN = s.strings.strs[key.lfn]
	cp.Scope = s.strings.strs[key.scope]
	cp.Dataset = s.strings.strs[key.dataset]
	cp.ProdDBlock = s.strings.strs[key.prodDBlock]
	s.shards[s.ShardFor(cp.JediTaskID)].putFile(cp, key)
	s.pendFiles++
	s.frozen.Store(false)
}

// PutTransfer ingests a transfer event, interning its join attributes and
// endpoint/activity labels. Events carrying a jeditaskid are routed to
// their task's shard (keeping the matcher's candidate buckets
// shard-complete); task-less background events are spread round-robin for
// balance — no task-local index ever sees them.
func (s *Store) PutTransfer(ev *records.TransferEvent) {
	cp := *ev
	key := symKey{
		lfn:        s.strings.sym(cp.LFN),
		scope:      s.strings.sym(cp.Scope),
		dataset:    s.strings.sym(cp.Dataset),
		prodDBlock: s.strings.sym(cp.ProdDBlock),
	}
	cp.LFN = s.strings.strs[key.lfn]
	cp.Scope = s.strings.strs[key.scope]
	cp.Dataset = s.strings.strs[key.dataset]
	cp.ProdDBlock = s.strings.strs[key.prodDBlock]
	cp.SourceRSE = s.strings.canon(cp.SourceRSE)
	cp.DestinationRSE = s.strings.canon(cp.DestinationRSE)
	cp.SourceSite = s.strings.canon(cp.SourceSite)
	cp.DestinationSite = s.strings.canon(cp.DestinationSite)
	cp.Activity = records.Activity(s.strings.canon(string(cp.Activity)))

	seq := s.nextSeq()
	var sh *shard
	if cp.JediTaskID != 0 {
		sh = s.shards[s.ShardFor(cp.JediTaskID)]
		s.withTaskID++
		s.taskByActivity[cp.Activity]++
	} else {
		sh = s.shards[int(seq)%len(s.shards)]
	}
	s.pendTransfers++
	if sh.putTransfer(cp, key, seq) {
		s.flushIngestCounters()
	}
	s.frozen.Store(false)
}

// Freeze finalizes the store for the frozen fast path: every shard seals
// its tails and compacts its sealed segments into one run per arena —
// concurrently, one goroutine per shard — then only the runs sealed since
// the previous Freeze are merged into the store-level indices by (time,
// ingestion sequence), byte-identical to a single-store stable sort.
// Sealed segments stay sorted and the join entries are bound at ingest,
// so a Freeze costs the sort of the new tail plus a merge probed in
// proportion to the new rows; the copies into fresh index arrays are its
// only work over all rows. Freeze is idempotent and safe to call from
// concurrent readers; it is not a precondition for any query — an
// unfrozen store answers the same queries live from sealed+tail — but
// calling it eagerly (as sim.Run does) keeps the steady-state query path
// lock- and allocation-free.
func (s *Store) Freeze() {
	if s.frozen.Load() {
		return
	}
	s.freezeMu.Lock()
	defer s.freezeMu.Unlock()
	if s.frozen.Load() {
		return
	}
	// Captured before the seals below: how many rows had accumulated
	// unsorted since the previous checkpoint.
	mTailRows.Set(int64(s.TailRows()))
	s.flushIngestCounters()
	t0 := time.Now()
	all := s.rebuild
	jobRuns := make([][]segRun[records.JobRecord], len(s.shards))
	evRuns := make([][]segRun[records.TransferEvent], len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobRuns[i], evRuns[i] = sh.freeze(all)
		}()
	}
	wg.Wait()

	// The previous indices are one more sorted run, unless a rebuild drops
	// them. Results handed out earlier alias the previous arrays, which the
	// merge only reads: any real merge builds fresh ones.
	jobs := []segRun[records.JobRecord]{{rows: s.jobsByEnd, seqs: s.jobSeqs}}
	evs := []segRun[records.TransferEvent]{{rows: s.evByStart, seqs: s.evSeqs}}
	if all {
		jobs, evs = jobs[:0], evs[:0]
	}
	for i := range s.shards {
		jobs = append(jobs, jobRuns[i]...)
		evs = append(evs, evRuns[i]...)
	}
	j, e := mergeRuns(jobs, jobEnd), mergeRuns(evs, evStart)
	s.jobsByEnd, s.jobSeqs = j.rows, j.seqs
	s.evByStart, s.evSeqs = e.rows, e.seqs
	s.rebuild = false
	s.frozen.Store(true)
	mFreezes.Inc()
	mFreezeSeconds.ObserveSince(t0)
}

// TailRows reports the rows currently sitting in mutable (unsealed) tails
// across all shards and both arenas. Zero on a frozen store.
func (s *Store) TailRows() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.jobs.len() - sh.jobSegs.start + sh.events.len() - sh.evSegs.start
	}
	return n
}

// flushIngestCounters publishes the batched put counters to the
// process-wide registry. It runs on the single-writer ingest path — when a
// put seals a tail, and on Seal, Freeze and Reset — so the pending fields
// are stable and the flush stays off the per-row path.
func (s *Store) flushIngestCounters() {
	mJobsIngested.Add(s.pendJobs)
	mFilesIngested.Add(s.pendFiles)
	mTransfersIngested.Add(s.pendTransfers)
	s.pendJobs, s.pendFiles, s.pendTransfers = 0, 0, 0
}

// Seal closes every shard's mutable tail into an immutable sorted segment
// without freezing: sorting happens in the background while ingestion
// continues into the fresh tails, and queries keep answering live over
// sealed+tail. A long-running ingester can call this at checkpoints to
// bound the tail-sort cost of mid-run queries; Freeze subsumes it.
func (s *Store) Seal() {
	for _, sh := range s.shards {
		sh.seal()
	}
	s.flushIngestCounters()
}

// Reset empties the store for reuse while keeping the arena chunks, index
// maps, and intern-table capacity, so a long-lived store (one per sweep
// worker, say) does not rebuild from scratch for every scenario. Shards
// reset concurrently. The intern table's contents are cleared too — symbols
// restart at zero and the previous scenario's strings are released, so a
// reused worker store cannot leak strings across sweep scenarios. After
// Reset the store is unfrozen and indistinguishable from New()'s result —
// except that any records, query results, or join entries previously
// obtained from it are invalidated and must not be used.
//
// Reset must not run concurrently with ingestion or queries; the sweep
// engine guarantees this by giving each worker goroutine its own store.
func (s *Store) Reset() {
	s.freezeMu.Lock()
	defer s.freezeMu.Unlock()
	s.flushIngestCounters()
	mTailRows.Set(0) // the tails are about to be dropped
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
	// Every Freeze merges into fresh index arrays (ranged queries alias
	// them), so there is no capacity worth keeping — drop the references
	// and let the old arrays go.
	s.jobsByEnd, s.jobSeqs = nil, nil
	s.evByStart, s.evSeqs = nil, nil
	s.rebuild = false
	s.frozen.Store(false)
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
// probe, which lives entirely in the task's shard. The entries are bound
// as rows and events are put, so the call is one hash route plus one map
// lookup — no join-key hashing and no allocation — on a live store and a
// frozen one alike.
func (s *Store) JoinEntriesForJob(pandaID, jediTaskID int64) []JoinEntry {
	return s.shards[s.ShardFor(jediTaskID)].entries[pandaTask{pandaID, jediTaskID}]
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

// InternedStrings reports the number of distinct strings in the intern
// table — observability for the string-leak contract of Reset.
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
// window are reported. On a frozen store the window is resolved by binary
// search over the merged EndTime index; on a live store it is merged on
// the fly from every shard's sealed segments and tail. Both paths yield
// the same (EndTime, ingestion)-ordered window and order it by pandaid
// with the same stable kernel, so the result is identical either way.
// The result is a fresh slice (nil when nothing matches).
func (s *Store) Jobs(from, to simtime.VTime, label records.SourceLabel) []*records.JobRecord {
	var seg []*records.JobRecord
	if s.frozen.Load() {
		seg = timeRange(s.jobsByEnd, from, to, jobEnd)
	} else {
		seg = s.liveJobWindow(from, to)
	}
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

// liveJobWindow merges the [from, to) EndTime window across every shard's
// sealed segments and tail, ordered by (EndTime, ingestion seq).
func (s *Store) liveJobWindow(from, to simtime.VTime) []*records.JobRecord {
	var runs []segRun[records.JobRecord]
	for _, sh := range s.shards {
		sh.jobSegs.windows(&sh.jobs, sh.jobSeq, from, to, false, &runs)
	}
	return mergeRuns(runs, jobEnd).rows
}

// timeRange cuts the half-open [from, to) window out of a slice sorted by
// the time key that at extracts.
func timeRange[T any](sorted []T, from, to simtime.VTime, at func(T) simtime.VTime) []T {
	lo := sort.Search(len(sorted), func(i int) bool { return at(sorted[i]) >= from })
	hi := sort.Search(len(sorted), func(i int) bool { return at(sorted[i]) >= to })
	if hi < lo {
		hi = lo
	}
	return sorted[lo:hi]
}

// Job resolves a pandaid (the latest ingested row for duplicate ids).
func (s *Store) Job(pandaID int64) (*records.JobRecord, bool) {
	j, ok := s.jobsByID[pandaID]
	return j, ok
}

// FilesForJob returns the JEDI file rows carrying the given pandaid and
// jeditaskid in ingestion order — Algorithm 1's F'_j subset, read off the
// job's join entries in its task's shard. The result is a fresh slice
// (nil when there are none).
func (s *Store) FilesForJob(pandaID, jediTaskID int64) []*records.FileRecord {
	var out []*records.FileRecord
	for _, e := range s.JoinEntriesForJob(pandaID, jediTaskID) {
		out = append(out, e.File)
	}
	return out
}

// TransfersByTaskID returns the transfer events carrying a jeditaskid, in
// ingestion order — a single-shard probe.
func (s *Store) TransfersByTaskID(jedi int64) []*records.TransferEvent {
	return s.shards[s.ShardFor(jedi)].evByTask[jedi]
}

// TaskTransfersByKey returns the events of one JEDI task sharing the join
// key — the per-file probe of the indexed matcher, answered entirely by the
// task's shard. Events without a valid jeditaskid are never in this index,
// preserving the paper's "transfers with a valid jeditaskid" pre-selection.
func (s *Store) TaskTransfersByKey(jedi int64, key JoinKey) []*records.TransferEvent {
	lfn, ok := s.strings.lookup(key.LFN)
	if !ok {
		return nil
	}
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
	sk := taskSymKey{jedi, symKey{lfn, scope, ds, pdb}}
	if b := s.shards[s.ShardFor(jedi)].evByTaskKey[sk]; b != nil {
		return *b
	}
	return nil
}

// Transfers returns events with StartedAt in [from, to); from==to==0 means
// everything. Events are ordered by StartedAt (ties in global ingestion
// order). On a frozen store the window is resolved by binary search over
// the merged StartedAt index and the returned slice aliases it; on a live
// store the window is merged on the fly from sealed segments and tails.
// Either way callers must not modify the result.
func (s *Store) Transfers(from, to simtime.VTime) []*records.TransferEvent {
	if s.frozen.Load() {
		if from == 0 && to == 0 {
			return s.evByStart
		}
		return timeRange(s.evByStart, from, to, evStart)
	}
	var runs []segRun[records.TransferEvent]
	all := from == 0 && to == 0
	for _, sh := range s.shards {
		sh.evSegs.windows(&sh.events, sh.evSeq, from, to, all, &runs)
	}
	return mergeRuns(runs, evStart).rows
}
