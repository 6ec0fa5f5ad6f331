package metastore

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"panrucio/internal/simtime"
)

// DefaultSegmentRows is the tail-size threshold at which a shard seals its
// mutable tail into an immutable sorted segment. Fixed rather than derived
// from the ingest volume so a store's segment layout is reproducible for a
// given put stream; query results are byte-identical for any value (see the
// cut-point equivalence tests), so this is purely a performance default
// trading seal frequency against per-query tail-sort cost.
const DefaultSegmentRows = 1 << 15

// segRun is one (time, ingestion-sequence) sorted run: the contents of a
// sealed segment, a sorted tail view, or a binary-searched window into
// either. rows and seqs are parallel; once a run has been sorted it is
// immutable, so windows may alias it freely.
//
// Sealed runs additionally carry their integrity commitment (see
// commit.go): a per-row hash array parallel to rows, the chain head over
// the (time, seq) order, the order-independent XOR aggregate, and the row
// count at commitment time. Tail views and windows leave these zero.
type segRun[T any] struct {
	rows []*T
	seqs []uint32

	hashes    []uint64 // seal-time row hashes, parallel to rows
	chain     uint64   // running chain over hashes in (time, seq) order
	agg       uint64   // XOR of all row hashes (order-independent)
	committed int      // len(rows) at commitment time
}

// commitRows computes the run's integrity commitment from its current
// contents: the per-row hashes in (time, seq) order, the chain head, the
// XOR aggregate, and the committed row count. Runs in the seal's
// background goroutine after sortByTime, so the ingest path never pays
// for hashing.
func (r *segRun[T]) commitRows(hash func(*T, uint32) uint64) {
	r.hashes = make([]uint64, len(r.rows))
	agg, chain := uint64(0), chainSeed()
	for i, p := range r.rows {
		h := hash(p, r.seqs[i])
		r.hashes[i] = h
		agg ^= h
		chain = chainMix(chain, h)
	}
	r.agg, r.chain, r.committed = agg, chain, len(r.rows)
}

// window cuts the half-open [from, to) time window out of the run by
// binary search. The returned run aliases the receiver.
func (r *segRun[T]) window(from, to simtime.VTime, at func(*T) simtime.VTime) segRun[T] {
	lo := sort.Search(len(r.rows), func(i int) bool { return at(r.rows[i]) >= from })
	hi := sort.Search(len(r.rows), func(i int) bool { return at(r.rows[i]) >= to })
	if hi < lo {
		hi = lo
	}
	return segRun[T]{rows: r.rows[lo:hi], seqs: r.seqs[lo:hi]}
}

// sortByTime orders the run by its time key in place, with the package's
// stable radix kernel (stableOrder) over the extracted times. Rows enter
// in ingestion (sequence) order, so stability makes the result ordered by
// (time, seq) without comparing sequences. Every seal and every tail view
// sorts here.
func (r *segRun[T]) sortByTime(at func(*T) simtime.VTime) {
	n := len(r.rows)
	times := make([]int64, n)
	for i, p := range r.rows {
		times[i] = int64(at(p))
	}
	perm := stableOrder(times)
	rows := make([]*T, n)
	seqs := make([]uint32, n)
	for i, p := range perm {
		rows[i] = r.rows[p]
		seqs[i] = r.seqs[p]
	}
	copy(r.rows, rows)
	copy(r.seqs, seqs)
}

// segIndex is the segmented (time, seq) index over one arena: an ordered
// list of immutable sealed segments (each a sorted run over a contiguous
// slab of arena rows) plus a mutable tail — the rows ingested since the
// last seal, whose sorted view is built lazily and cached until the next
// append invalidates it.
//
// The single-writer ingest contract of the store extends here: noteAppend,
// seal, and reset run only on the ingest path. Sealing is the one
// concurrent step — the segment's rows are captured synchronously, then
// sorted by a background goroutine so ingestion continues while the sort
// runs; every reader synchronizes through wait() before touching sealed
// runs. Readers may run concurrently with each other at any time (the
// serving layer batches them into windows where no ingest is in flight):
// the lazily built tail view is published through an atomic pointer, so
// racing readers at worst build the same immutable view twice.
type segIndex[T any] struct {
	at    func(*T) simtime.VTime
	limit int // seal threshold in rows

	// hash computes one row's commitment hash from (row, global seq). Set
	// once at construction, before any seal.
	hash func(*T, uint32) uint64

	sealed []*segRun[T]
	start  int // first arena row of the tail

	// compacted counts the leading sealed runs produced by the previous
	// compact (0 or 1): every run after them was sealed since then, and
	// only those are new to the store-level indices.
	compacted int

	// tail caches the sorted view of rows [start, arena.len()); cleared
	// after an append or a seal. Atomic so concurrent readers can share
	// (or independently rebuild) the view without serializing on a lock.
	tail atomic.Pointer[segRun[T]]

	// sealing publishes the background sort; committing additionally
	// publishes the commitment hashes computed after it. Queries only need
	// the sort (wait); audits, compaction, and reset need the commitments
	// too (waitCommits), so hashing stays off the query critical path.
	sealing    sync.WaitGroup
	committing sync.WaitGroup
}

// noteAppend records that one row was appended to the arena, invalidating
// the cached tail view and sealing the tail once it reaches the limit; it
// reports whether it sealed. Only readers build tail views, and under the
// single-writer contract above no reader overlaps ingest (the serving
// layer's epoch lock admits readers only between ingest windows), so a nil
// Load here cannot race a reader's Store and the common case skips the
// atomic store.
func (x *segIndex[T]) noteAppend(a *arena[T], seqs []uint32) bool {
	if x.tail.Load() != nil {
		x.tail.Store(nil)
	}
	if a.len()-x.start < x.limit {
		return false
	}
	x.seal(a, seqs)
	return true
}

// seal compacts the current tail into an immutable sealed segment and
// starts a fresh (empty) tail. The segment's rows and sequences are
// captured synchronously — arena slots already written never move or
// change, so the capture is a plain copy — and the (time, seq) sort runs
// in a background goroutine, overlapping subsequent ingestion. An empty
// tail seals to nothing.
func (x *segIndex[T]) seal(a *arena[T], seqs []uint32) {
	n := a.len()
	if n == x.start {
		return
	}
	seg := &segRun[T]{
		rows: make([]*T, n-x.start),
		seqs: make([]uint32, n-x.start),
	}
	for i := range seg.rows {
		seg.rows[i] = a.at(x.start + i)
	}
	copy(seg.seqs, seqs[x.start:n])
	x.sealed = append(x.sealed, seg)
	x.start = n
	x.tail.Store(nil)
	mSeals.Inc()
	mSealRows.Observe(float64(len(seg.rows)))
	x.sealing.Add(1)
	x.committing.Add(1)
	go func() {
		defer x.committing.Done()
		t0 := time.Now()
		seg.sortByTime(x.at)
		mSealSortSeconds.ObserveSince(t0)
		// Publish the sort before hashing: queries block only on the sorted
		// order, not on the commitment computed over it.
		x.sealing.Done()
		// Commit the sealed contents while still off the ingest path: the
		// segment is immutable from here on, so the hashes fix its
		// canonical (time, seq) order and contents.
		tc := time.Now()
		seg.commitRows(x.hash)
		mCommitRows.Add(int64(seg.committed))
		mCommitSeconds.ObserveSince(tc)
	}()
}

// wait blocks until every in-flight segment sort has finished. Readers of
// sealed runs must call it first; the WaitGroup edge is what publishes the
// sorted contents to them.
func (x *segIndex[T]) wait() { x.sealing.Wait() }

// waitCommits blocks until every in-flight seal has finished both its sort
// and its commitment hashing. Anything that reads or rewrites the hashes —
// audits, compaction (which carries them), truncation, reset — must use
// this edge instead of wait.
func (x *segIndex[T]) waitCommits() { x.committing.Wait() }

// tailRun returns the sorted view of the tail, rebuilding it only when an
// append has invalidated the cache. The view owns fresh arrays, so runs
// handed to callers survive later rebuilds untouched. Concurrent readers
// may each build the view when the cache is cold — the builds are
// identical and the last Store wins, so no locking is needed and readers
// never serialize on each other.
func (x *segIndex[T]) tailRun(a *arena[T], seqs []uint32) *segRun[T] {
	if t := x.tail.Load(); t != nil {
		return t
	}
	n := a.len()
	t := &segRun[T]{
		rows: make([]*T, n-x.start),
		seqs: make([]uint32, n-x.start),
	}
	for i := range t.rows {
		t.rows[i] = a.at(x.start + i)
	}
	copy(t.seqs, seqs[x.start:n])
	t.sortByTime(x.at)
	x.tail.Store(t)
	return t
}

// windows appends the sorted run views overlapping [from, to) — every
// sealed segment's window plus the tail's — to runs, for the store-level
// (time, seq) merge. all selects the full runs without windowing. The
// views carry rows and seqs only: the commitment fields of a sealed run
// may still be written by its seal goroutine — wait() publishes the sort,
// not the hashes.
func (x *segIndex[T]) windows(a *arena[T], seqs []uint32, from, to simtime.VTime, all bool, runs *[]segRun[T]) {
	x.wait()
	for _, seg := range x.sealed {
		r := segRun[T]{rows: seg.rows, seqs: seg.seqs}
		if !all {
			r = r.window(from, to, x.at)
		}
		*runs = append(*runs, r)
	}
	t := x.tailRun(a, seqs)
	if all {
		*runs = append(*runs, segRun[T]{rows: t.rows, seqs: t.seqs})
	} else {
		*runs = append(*runs, t.window(from, to, x.at))
	}
}

// compact merges all sealed segments into one — the shard-local LSM step
// run at Freeze, so live windows and audits see one run per shard — and
// returns views (rows and seqs) of the runs sealed since the previous
// compact: the rows the store-level indices do not hold yet. all returns
// every sealed run instead, for a rebuild from scratch. The merged run is
// built in fresh arrays; the old segment runs are dropped but never
// mutated, so the returned views and query results that alias them stay
// intact.
//
// Commitments are CARRIED through the merge, never recomputed: each
// surviving row keeps its seal-time hash (the merge kernel moves hashes
// with their rows), the aggregate is the XOR of the input aggregates, the
// committed count is their sum, and only the chain is refolded over the
// merged order. Recomputing from the current contents would launder any
// post-seal tamper into a fresh clean commitment; carrying means a
// mismatch planted before compaction is still detected after it
// (including truncation, which survives as a committed-count excess over
// the merged length).
func (x *segIndex[T]) compact(all bool) []segRun[T] {
	x.waitCommits()
	from := x.compacted
	if all {
		from = 0
	}
	fresh := make([]segRun[T], 0, len(x.sealed)-from)
	for _, seg := range x.sealed[from:] {
		fresh = append(fresh, segRun[T]{rows: seg.rows, seqs: seg.seqs})
	}
	if len(x.sealed) > 1 {
		runs := make([]segRun[T], len(x.sealed))
		for i, seg := range x.sealed {
			runs[i] = *seg
		}
		merged := mergeRuns(runs, x.at)
		merged.agg, merged.committed = 0, 0
		for _, seg := range x.sealed {
			merged.agg ^= seg.agg
			merged.committed += seg.committed
		}
		merged.chain = chainSeed()
		for _, h := range merged.hashes {
			merged.chain = chainMix(merged.chain, h)
		}
		x.sealed = []*segRun[T]{&merged}
	}
	x.compacted = len(x.sealed)
	return fresh
}

// segments reports the number of sealed segments (observability for the
// lifecycle tests).
func (x *segIndex[T]) segments() int { return len(x.sealed) }

// reset rewinds the index for store reuse, waiting out any in-flight
// segment sort first so a background sorter can never race the arena
// clear that follows.
func (x *segIndex[T]) reset() {
	x.waitCommits()
	x.sealed = nil
	x.start = 0
	x.compacted = 0
	x.tail.Store(nil)
}

// mergeRuns merges (time, seq)-sorted runs into one run in (time, global
// sequence) order — byte-identical to stable-sorting the full ingest
// stream by time, for any segmentation and shard count. It is the
// package's one merge: live windows, compaction and Freeze all use it.
// Runs merge pairwise, smallest first, so each row is copied about
// log(k) times at most and a large run absorbing a few small ones is
// copied once. Seqs travel with their rows; hashes do too when every run
// carries them (compaction). A real merge builds fresh arrays and leaves
// the other commitment fields zero; a lone non-empty run is returned as
// is (sorted runs are immutable, so aliasing it is safe).
func mergeRuns[T any](runs []segRun[T], at func(*T) simtime.VTime) segRun[T] {
	live := make([]segRun[T], 0, len(runs))
	for _, r := range runs {
		if len(r.rows) > 0 {
			live = append(live, r)
		}
	}
	mMergeWidth.Observe(float64(len(live)))
	if len(live) == 0 {
		return segRun[T]{}
	}
	sort.SliceStable(live, func(i, j int) bool { return len(live[i].rows) < len(live[j].rows) })
	for len(live) > 1 {
		m := mergePair(live[0], live[1], at)
		live = live[1:]
		live[0] = m
		for i := 1; i < len(live) && len(live[i].rows) < len(live[i-1].rows); i++ {
			live[i], live[i-1] = live[i-1], live[i]
		}
	}
	return live[0]
}

// mergePair merges two (time, seq)-sorted runs into fresh arrays. It walks
// the shorter run and finds each of its rows' place in the longer one by
// exponential, then binary search (gallop), copying the longer run's rows
// in between as one block. The longer run's rows are dereferenced only at
// probe points, so merging a few new rows into a large index costs
// O(new · log(gap)) probes plus the block copies. Seqs are unique within
// an index, so (time, seq) is a total order and the result does not
// depend on which run is which.
func mergePair[T any](a, b segRun[T], at func(*T) simtime.VTime) segRun[T] {
	if len(a.rows) > len(b.rows) {
		a, b = b, a
	}
	n := len(a.rows) + len(b.rows)
	hashed := a.hashes != nil && b.hashes != nil
	out := segRun[T]{rows: make([]*T, n), seqs: make([]uint32, n)}
	if hashed {
		out.hashes = make([]uint64, n)
	}
	o, j := 0, 0
	for i, p := range a.rows {
		k := j + gallop(b.rows[j:], b.seqs[j:], at(p), a.seqs[i], at)
		copy(out.rows[o:], b.rows[j:k])
		copy(out.seqs[o:], b.seqs[j:k])
		if hashed {
			copy(out.hashes[o:], b.hashes[j:k])
		}
		o += k - j
		out.rows[o], out.seqs[o] = p, a.seqs[i]
		if hashed {
			out.hashes[o] = a.hashes[i]
		}
		o++
		j = k
	}
	copy(out.rows[o:], b.rows[j:])
	copy(out.seqs[o:], b.seqs[j:])
	if hashed {
		copy(out.hashes[o:], b.hashes[j:])
	}
	return out
}

// gallop returns how many leading rows of the sorted run (rows, seqs)
// order before (t, s): it probes positions 0, 1, 3, 7, … until one does
// not, then binary-searches the last gap.
func gallop[T any](rows []*T, seqs []uint32, t simtime.VTime, s uint32, at func(*T) simtime.VTime) int {
	before := func(k int) bool {
		tk := at(rows[k])
		return tk < t || (tk == t && seqs[k] < s)
	}
	if len(rows) == 0 || !before(0) {
		return 0
	}
	lo, hi := 0, 1 // before(lo) holds; the answer lies in (lo, hi]
	for hi < len(rows) && before(hi) {
		lo, hi = hi, 2*hi+1
	}
	hi = min(hi, len(rows))
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
