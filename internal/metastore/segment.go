package metastore

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"panrucio/internal/simtime"
)

// DefaultSegmentRows is the tail-size threshold at which a time index
// seals its mutable tail into an immutable sorted segment. Fixed rather
// than derived from the ingest volume so a store's segment layout is
// reproducible for a given put stream; query results are byte-identical
// for any value (see the cut-point equivalence tests), so this is purely a
// performance default trading seal frequency against per-query tail-sort
// cost.
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
// background goroutine after the sort, so the ingest path never pays for
// hashing.
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

// sortedRun returns rows and their seqs ordered by time in fresh arrays,
// with the package's stable radix kernel (stableOrder) over the extracted
// times. Rows come in put (sequence) order, so stability makes the result
// ordered by (time, seq) without comparing sequences. Every seal and every
// tail view sorts here.
func sortedRun[T any](rows []*T, seqs []uint32, at func(*T) simtime.VTime) segRun[T] {
	times := make([]int64, len(rows))
	for i, p := range rows {
		times[i] = int64(at(p))
	}
	out := segRun[T]{rows: make([]*T, len(rows)), seqs: make([]uint32, len(rows))}
	for i, k := range stableOrder(times) {
		out.rows[i], out.seqs[i] = rows[k], seqs[k]
	}
	return out
}

// segIndex is the store's segmented (time, seq) index over one kind of
// row — jobs by EndTime or transfers by StartedAt — across every shard's
// arena: an ordered list of immutable sealed segments plus a mutable tail,
// the rows put since the last seal as row pointers and global put
// sequences in put order. The tail's sorted view is built lazily and
// cached until the next add invalidates it.
//
// The single-writer ingest contract of the store extends here: add, seal,
// compact and reset run only on the ingest path or under the store's
// freezeMu. Sealing is the one concurrent step — the tail is handed to a
// new segment synchronously, then sorted and committed by a background
// goroutine so ingestion continues meanwhile; every reader synchronizes
// through wait() before touching sealed runs. Readers may run concurrently
// with each other at any time (the serving layer batches them into windows
// where no ingest is in flight): the lazily built tail view is published
// through an atomic pointer, so racing readers at worst build the same
// immutable view twice.
type segIndex[T any] struct {
	at    func(*T) simtime.VTime
	limit int // seal threshold in rows

	// hash computes one row's commitment hash from (row, global seq). Set
	// once at construction, before any seal.
	hash func(*T, uint32) uint64

	sealed []*segRun[T]

	// The tail: rows put since the last seal and their global sequences,
	// in put order. A seal hands both slices to the new segment.
	rows []*T
	seqs []uint32

	// spare holds the backing arrays of a sealed tail once its background
	// sort has copied them out. The first put after a later seal takes
	// them as the fresh tail, so a steady ingest refills a few pairs of
	// arrays instead of growing a new tail from nil at every seal. Freeze
	// and reset drop it, so a settled store keeps no empty tail arrays.
	spare atomic.Pointer[tailArrays[T]]

	// tail caches the sorted view of the tail; cleared by an add or a
	// seal. Atomic so concurrent readers can share (or independently
	// rebuild) the view without serializing on a lock.
	tail atomic.Pointer[segRun[T]]

	// sealing publishes the background sort; committing additionally
	// publishes the commitment hashes computed after it. Queries only need
	// the sort (wait); audits, compaction, and reset need the commitments
	// too (waitCommits), so hashing stays off the query critical path.
	sealing    sync.WaitGroup
	committing sync.WaitGroup
}

// tailArrays are a tail's backing arrays, handed back by a seal's sort.
type tailArrays[T any] struct {
	rows []*T
	seqs []uint32
}

// add appends one row to the tail, invalidating the cached tail view and
// sealing the tail once it reaches the limit; it reports whether it
// sealed. Only readers build tail views, and under the single-writer
// contract above no reader overlaps ingest (the serving layer's epoch lock
// admits readers only between ingest windows), so a nil Load here cannot
// race a reader's Store and the common case skips the atomic store.
func (x *segIndex[T]) add(p *T, seq uint32) bool {
	if x.tail.Load() != nil {
		x.tail.Store(nil)
	}
	if x.rows == nil {
		// A fresh tail refills the arrays a seal's sort handed back, if
		// any; without them append grows it from nil.
		if sp := x.spare.Swap(nil); sp != nil {
			x.rows, x.seqs = sp.rows, sp.seqs
		}
	}
	x.rows = append(x.rows, p)
	x.seqs = append(x.seqs, seq)
	return len(x.rows) >= x.limit && x.seal()
}

// seal hands the tail to a new immutable segment and starts a fresh
// (empty) tail; it reports whether it sealed — an empty tail seals to
// nothing and writes nothing. The (time, seq) sort and the commitment run
// in a background goroutine, overlapping subsequent ingestion.
func (x *segIndex[T]) seal() bool {
	if len(x.rows) == 0 {
		return false
	}
	seg := &segRun[T]{rows: x.rows, seqs: x.seqs}
	x.rows, x.seqs = nil, nil
	x.sealed = append(x.sealed, seg)
	x.tail.Store(nil)
	mSeals.Inc()
	mSealRows.Observe(float64(len(seg.rows)))
	x.sealing.Add(1)
	x.committing.Add(1)
	go func() {
		defer x.committing.Done()
		t0 := time.Now()
		tail := &tailArrays[T]{rows: seg.rows[:0], seqs: seg.seqs[:0]}
		*seg = sortedRun(seg.rows, seg.seqs, x.at)
		x.spare.Store(tail) // copied out: the arrays are free to refill
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
	return true
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
// add has invalidated the cache. The view owns fresh arrays, so runs
// handed to callers survive later rebuilds untouched. Concurrent readers
// may each build the view when the cache is cold — the builds are
// identical and the last Store wins, so no locking is needed and readers
// never serialize on each other.
func (x *segIndex[T]) tailRun() *segRun[T] {
	if t := x.tail.Load(); t != nil {
		return t
	}
	t := sortedRun(x.rows, x.seqs, x.at)
	x.tail.Store(&t)
	return &t
}

// window returns the rows with time in [from, to) — every row when all is
// set — in (time, seq) order: the windows of the sealed segments plus the
// tail's, merged by the one kernel. On a frozen store that is one
// binary-searched run, returned as is, so the result may alias the index
// and callers must not modify it. The runs carry rows and seqs only: the
// commitment fields of a sealed run may still be written by its seal
// goroutine — wait() publishes the sort, not the hashes.
func (x *segIndex[T]) window(from, to simtime.VTime, all bool) []*T {
	x.wait()
	runs := make([]segRun[T], 0, len(x.sealed)+1)
	for _, seg := range x.sealed {
		runs = append(runs, segRun[T]{rows: seg.rows, seqs: seg.seqs})
	}
	if len(x.rows) > 0 {
		t := x.tailRun()
		runs = append(runs, segRun[T]{rows: t.rows, seqs: t.seqs})
	}
	if !all {
		for i := range runs {
			runs[i] = runs[i].window(from, to, x.at)
		}
	}
	return mergeRuns(runs, x.at).rows
}

// compact merges the sealed segments into one run — Freeze's step after
// the seal, so queries and audits read one binary-searched run — and
// reports whether it did. An index holding at most one run is left as it
// is: compact then writes nothing, which is what lets readers of a frozen
// store call Freeze beside each other. The merged run is built in fresh
// arrays; the old segment runs are dropped but never mutated, so query
// results that alias them stay intact.
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
func (x *segIndex[T]) compact() bool {
	x.waitCommits()
	if len(x.sealed) <= 1 {
		return false
	}
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
	return true
}

// reset rewinds the index for store reuse, waiting out any in-flight
// segment sort first so a background sorter can never race the arena
// clear that follows. The tail keeps its capacity; the spare is dropped.
func (x *segIndex[T]) reset() {
	x.waitCommits()
	x.sealed = nil
	x.rows, x.seqs = x.rows[:0], x.seqs[:0]
	x.tail.Store(nil)
	x.dropSpare()
}

// dropSpare releases the spare tail arrays; holding none, it writes
// nothing, so a Freeze on a settled store stays read-only.
func (x *segIndex[T]) dropSpare() {
	if x.spare.Load() != nil {
		x.spare.Store(nil)
	}
}

// mergeRuns merges (time, seq)-sorted runs into one run in (time, global
// sequence) order — byte-identical to stable-sorting the full ingest
// stream by time, for any segmentation and shard count. It is the
// package's one merge: every ranged query and every compaction use it.
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
