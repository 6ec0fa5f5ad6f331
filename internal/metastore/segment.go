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

	// hash computes one row's commitment hash from (row, global seq); nil
	// disables commitments (bare indices built by tests). Set once at
	// construction, before any seal.
	hash func(*T, uint32) uint64

	sealed []*segRun[T]
	start  int // first arena row of the tail

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
// the cached tail view and sealing the tail once it reaches the limit.
// Only readers build tail views, and under the single-writer contract
// above no reader overlaps ingest (the serving layer's epoch lock admits
// readers only between ingest windows), so a nil Load here cannot race a
// reader's Store and the common case skips the atomic store.
func (x *segIndex[T]) noteAppend(a *arena[T], seqs []uint32) {
	if x.tail.Load() != nil {
		x.tail.Store(nil)
	}
	if a.len()-x.start >= x.limit {
		x.seal(a, seqs)
	}
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
		if x.hash != nil {
			// Commit the sealed contents while still off the ingest path:
			// the segment is immutable from here on, so the hashes fix its
			// canonical (time, seq) order and contents.
			tc := time.Now()
			seg.commitRows(x.hash)
			mCommitRows.Add(int64(seg.committed))
			mCommitSeconds.ObserveSince(tc)
		}
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
// sealed segment's window plus the tail's — to runs/runSeqs, for the
// store-level (time, seq) merge. all selects the full runs without
// windowing.
func (x *segIndex[T]) windows(a *arena[T], seqs []uint32, from, to simtime.VTime, all bool,
	runs *[][]*T, runSeqs *[][]uint32) {
	x.wait()
	add := func(r segRun[T]) {
		if len(r.rows) > 0 {
			*runs = append(*runs, r.rows)
			*runSeqs = append(*runSeqs, r.seqs)
		}
	}
	for _, seg := range x.sealed {
		if all {
			// View only rows/seqs: the full struct copy would read the
			// commitment fields, which the seal goroutine may still be
			// writing — wait() publishes the sort, not the hashes.
			add(segRun[T]{rows: seg.rows, seqs: seg.seqs})
		} else {
			add(seg.window(from, to, x.at))
		}
	}
	t := x.tailRun(a, seqs)
	if all {
		add(*t)
	} else {
		add(t.window(from, to, x.at))
	}
}

// compact k-way-merges all sealed segments into one — the shard-local LSM
// step run at Freeze so the store-level merge sees one run per shard and
// later incremental freezes merge [compacted, new] instead of re-sorting
// history. The merged run is built in fresh arrays; the old segment runs
// are dropped but never mutated, so query results that alias them stay
// intact.
//
// Commitments are CARRIED through the merge, never recomputed: each
// surviving row keeps its seal-time hash, the aggregate is the XOR of the
// input aggregates, and the committed count is their sum. Recomputing from
// the current contents would launder any post-seal tamper into a fresh
// clean commitment; carrying means a mismatch planted before compaction is
// still detected after it (including truncation, which survives as a
// committed-count excess over the merged length).
func (x *segIndex[T]) compact() {
	x.waitCommits()
	if len(x.sealed) <= 1 {
		return
	}
	runs := make([][]*T, len(x.sealed))
	seqs := make([][]uint32, len(x.sealed))
	for i, seg := range x.sealed {
		runs[i], seqs[i] = seg.rows, seg.seqs
	}
	rows, sq := mergeRuns(runs, seqs, x.at, true)
	merged := &segRun[T]{rows: rows, seqs: sq}

	carried := true
	total := 0
	for _, seg := range x.sealed {
		if seg.hashes == nil {
			carried = false
			break
		}
		total += len(seg.rows)
	}
	if carried {
		byRow := make(map[*T]uint64, total)
		for _, seg := range x.sealed {
			for i, p := range seg.rows {
				byRow[p] = seg.hashes[i]
			}
			merged.agg ^= seg.agg
			merged.committed += seg.committed
		}
		merged.hashes = make([]uint64, len(rows))
		chain := chainSeed()
		for i, p := range rows {
			h := byRow[p]
			merged.hashes[i] = h
			chain = chainMix(chain, h)
		}
		merged.chain = chain
	}
	x.sealed = []*segRun[T]{merged}
}

// single returns the lone sealed run after seal+compact (empty when the
// index holds no rows) — the shard's contribution to the store-level
// merged indices.
func (x *segIndex[T]) single() ([]*T, []uint32) {
	x.wait()
	if len(x.sealed) == 0 {
		return nil, nil
	}
	return x.sealed[0].rows, x.sealed[0].seqs
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
	x.tail.Store(nil)
}

// mergeRuns k-way-merges (time, seq)-sorted runs into one globally sorted
// run, ordering by (time, global sequence) — byte-identical to stable-
// sorting the full ingest stream, for any segmentation and shard count.
// Time keys are extracted once up front so the merge loop compares plain
// integers. withSeqs selects whether the merged sequence array is built
// too (the shard-level compaction needs it for future merges; the
// store-level indices do not).
func mergeRuns[T any](runs [][]*T, seqs [][]uint32, at func(*T) simtime.VTime, withSeqs bool) ([]*T, []uint32) {
	mMergeWidth.Observe(float64(len(runs)))
	if len(runs) == 1 {
		if withSeqs {
			return runs[0], seqs[0]
		}
		return runs[0], nil
	}
	total := 0
	times := make([][]simtime.VTime, len(runs))
	for i, run := range runs {
		total += len(run)
		ts := make([]simtime.VTime, len(run))
		for k, p := range run {
			ts[k] = at(p)
		}
		times[i] = ts
	}
	out := make([]*T, 0, total)
	var outSeqs []uint32
	if withSeqs {
		outSeqs = make([]uint32, 0, total)
	}
	heads := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for i := range runs {
			h := heads[i]
			if h >= len(runs[i]) {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			hb := heads[best]
			if times[i][h] < times[best][hb] ||
				(times[i][h] == times[best][hb] && seqs[i][h] < seqs[best][hb]) {
				best = i
			}
		}
		out = append(out, runs[best][heads[best]])
		if withSeqs {
			outSeqs = append(outSeqs, seqs[best][heads[best]])
		}
		heads[best]++
	}
	return out, outSeqs
}
