package metastore

import (
	"fmt"
	"math"
	"sort"
	"time"

	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// Integrity commitments over sealed segments (ROADMAP item 5, after the
// VDS scheme of SNIPPETS.md Snippet 1: owners commit to batches, consumers
// verify queries against tamper and rollback).
//
// Every sealed segment is a committed batch: when the background sorter
// finishes a segment's (time, seq) sort it also hashes every row — a
// 64-bit FNV-1a over the row's full canonical serialization plus its
// global ingestion sequence — and stores the per-row hash array, the chain
// head over the sorted order, the order-independent XOR aggregate, and the
// committed row count (segment.go, commitRows). Because rows and their
// global sequences are identical for any shard count and segment size, the
// XOR aggregate plus counts (StoreCommitment) is layout-independent:
// equal streams commit equally no matter how the store is partitioned or
// segmented.
//
// Audits re-hash rows and compare against the committed hashes: a mutated
// row surfaces as a row-tamper violation at its exact position, a
// truncated (rolled-back) segment as a committed-count excess. Compaction
// carries commitments instead of recomputing them (segment.go, compact),
// so a violation planted before a Freeze is still detected after it. The
// windowed audits bound the check to the rows a ranged Jobs/Transfers
// read actually returned — the cheap per-query proof of the VDS design.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// rowDigest is an inline FNV-1a accumulator: no allocation, no interface
// dispatch, so committing a segment is a single pass over its bytes.
type rowDigest uint64

func (d *rowDigest) byte(b byte) { *d = (*d ^ rowDigest(b)) * fnvPrime64 }

func (d *rowDigest) u64(v uint64) {
	for i := 0; i < 64; i += 8 {
		d.byte(byte(v >> i))
	}
}

func (d *rowDigest) i64(v int64) { d.u64(uint64(v)) }

// str hashes the string length-prefixed, so adjacent fields cannot alias
// ("ab"+"c" vs "a"+"bc").
func (d *rowDigest) str(s string) {
	d.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}

func (d *rowDigest) bool(v bool) {
	if v {
		d.byte(1)
	} else {
		d.byte(0)
	}
}

// chainSeed/chainMix fold per-row hashes into a segment's chain head in
// (time, seq) order — the order-sensitive companion of the XOR aggregate.
func chainSeed() uint64 { return fnvOffset64 }

func chainMix(chain, h uint64) uint64 { return (chain ^ h) * fnvPrime64 }

// hashJobRow commits every field of a job row plus its global ingestion
// sequence. Including the sequence makes identical row contents distinct
// in the XOR aggregate (no pairwise cancellation) while staying
// layout-independent — sequences are global, not per-shard.
func hashJobRow(j *records.JobRecord, seq uint32) uint64 {
	d := rowDigest(fnvOffset64)
	d.u64(uint64(seq))
	d.i64(j.PandaID)
	d.i64(j.JediTaskID)
	d.str(j.ComputingSite)
	d.str(string(j.Label))
	d.i64(int64(j.CreationTime))
	d.i64(int64(j.StartTime))
	d.i64(int64(j.EndTime))
	d.str(string(j.Status))
	d.str(string(j.TaskStatus))
	d.i64(j.NInputFileBytes)
	d.i64(j.NOutputFileBytes)
	d.i64(int64(j.ErrorCode))
	d.str(j.ErrorMessage)
	return uint64(d)
}

// hashEventRow commits every field of a transfer event plus its global
// ingestion sequence — including every attribute the corruption channels
// mutate (dataset, sites, file size, jeditaskid), so any channel replayed
// against sealed rows changes the hash.
func hashEventRow(ev *records.TransferEvent, seq uint32) uint64 {
	d := rowDigest(fnvOffset64)
	d.u64(uint64(seq))
	d.i64(ev.EventID)
	d.str(ev.LFN)
	d.str(ev.Scope)
	d.str(ev.Dataset)
	d.str(ev.ProdDBlock)
	d.i64(ev.FileSize)
	d.str(ev.SourceRSE)
	d.str(ev.DestinationRSE)
	d.str(ev.SourceSite)
	d.str(ev.DestinationSite)
	d.str(string(ev.Activity))
	d.bool(ev.IsDownload)
	d.bool(ev.IsUpload)
	d.i64(ev.JediTaskID)
	d.i64(int64(ev.SubmittedAt))
	d.i64(int64(ev.StartedAt))
	d.i64(int64(ev.EndedAt))
	d.u64(math.Float64bits(ev.ThroughputBps))
	return uint64(d)
}

// ArenaKind names one of the two committed kinds of row, each with its own
// time index.
type ArenaKind string

// The committed arenas. File rows have no time index and no seal cycle,
// so they carry no segment commitments (they are matcher inputs, not
// query outputs).
const (
	ArenaJobs   ArenaKind = "jobs"
	ArenaEvents ArenaKind = "events"
)

// SegmentRef identifies one sealed segment: the arena kind and the
// segment's position in that kind's time index. Refs are stable while no
// compaction runs (compaction — part of Freeze — merges all of an index's
// segments into segment 0).
type SegmentRef struct {
	Arena   ArenaKind `json:"arena"`
	Segment int       `json:"segment"`
}

func (r SegmentRef) String() string {
	return fmt.Sprintf("%s.seg%d", r.Arena, r.Segment)
}

// ViolationKind classifies a commitment violation.
type ViolationKind string

// Violation kinds: a row whose current content no longer hashes to its
// committed value, and a segment holding fewer rows than were committed
// (the VDS rollback attack).
const (
	RowTamper  ViolationKind = "row-tamper"
	Truncation ViolationKind = "truncation"
)

// Violation is one detected commitment violation, located to the segment
// and (for row tamper) the exact row position in its committed order.
type Violation struct {
	Ref    SegmentRef    `json:"ref"`
	Row    int           `json:"row"` // position for row-tamper; surviving length for truncation
	Kind   ViolationKind `json:"kind"`
	Detail string        `json:"detail"`
}

// AuditReport summarizes one integrity audit.
type AuditReport struct {
	Segments   int         `json:"segments"`
	Rows       int         `json:"rows"`
	Violations []Violation `json:"violations,omitempty"`
}

// Clean reports whether the audit found no violations.
func (r AuditReport) Clean() bool { return len(r.Violations) == 0 }

// AuditMark is an incremental-audit watermark: how many sealed segments of
// each time index have been audited so far. The zero value means "nothing
// audited". Marks are positional, so they are invalidated by compaction
// (Freeze); the online verify loop audits between seals, before the final
// freeze, which is exactly when segments only accumulate.
type AuditMark struct {
	jobs, events int
}

// audit checks the sealed segments from the k-th on against their
// commitments and returns the number of sealed segments, the index's next
// mark. Each segment's length is checked against its committed count (the
// O(1) rollback check), then every committed row — only those in the
// [from, to) window unless all is set — is re-hashed against its
// seal-time hash.
func (x *segIndex[T]) audit(k int, kind ArenaKind, from, to simtime.VTime, all bool, rep *AuditReport) int {
	x.wait()
	for ; k < len(x.sealed); k++ {
		seg, ref := x.sealed[k], SegmentRef{Arena: kind, Segment: k}
		rep.Segments++
		if len(seg.rows) < seg.committed {
			rep.Violations = append(rep.Violations, Violation{
				Ref: ref, Row: len(seg.rows), Kind: Truncation,
				Detail: fmt.Sprintf("segment holds %d of %d committed rows", len(seg.rows), seg.committed),
			})
		}
		n := min(len(seg.rows), len(seg.hashes))
		lo, hi := 0, n
		if !all {
			lo = sort.Search(n, func(i int) bool { return x.at(seg.rows[i]) >= from })
			hi = sort.Search(n, func(i int) bool { return x.at(seg.rows[i]) >= to })
		}
		for i := lo; i < hi; i++ {
			rep.Rows++
			if x.hash(seg.rows[i], seg.seqs[i]) != seg.hashes[i] {
				rep.Violations = append(rep.Violations, Violation{
					Ref: ref, Row: i, Kind: RowTamper,
					Detail: fmt.Sprintf("row %d fails its committed hash", i),
				})
			}
		}
	}
	return len(x.sealed)
}

// AuditSealed re-verifies every sealed segment of both arenas against its
// seal-time commitment: each row is re-hashed and compared, each segment's
// surviving length checked against its committed count. O(sealed rows);
// the tails are uncommitted (they are still mutable) and are not checked.
// Safe to call at any time — it synchronizes with in-flight background
// sorts per index.
func (s *Store) AuditSealed() AuditReport {
	var zero AuditMark
	rep, _ := s.AuditSealedSince(zero)
	return rep
}

// AuditSealedSince audits only the sealed segments appended since the
// given mark (zero value = everything) and returns the advanced mark —
// the incremental step of the online verify loop: each checkpoint pays
// only for the segments its Seal produced. Marks are positional and do
// not survive compaction; use AuditSealed after a Freeze.
func (s *Store) AuditSealedSince(mark AuditMark) (AuditReport, AuditMark) {
	t0 := time.Now()
	var rep AuditReport
	mark.jobs = s.jobIdx.audit(mark.jobs, ArenaJobs, 0, 0, true, &rep)
	mark.events = s.evIdx.audit(mark.events, ArenaEvents, 0, 0, true, &rep)
	s.noteAudit(&rep, t0)
	return rep, mark
}

// AuditJobsWindow verifies the sealed rows a Jobs(from, to, …) read draws
// from: every sealed job segment's [from, to) EndTime window is re-hashed
// against its commitment, plus the O(1) rollback check per segment. Cost
// is proportional to the window, not the store.
func (s *Store) AuditJobsWindow(from, to simtime.VTime) AuditReport {
	t0 := time.Now()
	var rep AuditReport
	s.jobIdx.audit(0, ArenaJobs, from, to, false, &rep)
	s.noteAudit(&rep, t0)
	return rep
}

// AuditTransfersWindow is AuditJobsWindow for the events arena: the sealed
// rows a Transfers(from, to) read draws from, checked by StartedAt window.
func (s *Store) AuditTransfersWindow(from, to simtime.VTime) AuditReport {
	t0 := time.Now()
	var rep AuditReport
	s.evIdx.audit(0, ArenaEvents, from, to, false, &rep)
	s.noteAudit(&rep, t0)
	return rep
}

func (s *Store) noteAudit(rep *AuditReport, t0 time.Time) {
	mAudits.Inc()
	mAuditRows.Add(int64(rep.Rows))
	mAuditViolations.Add(int64(len(rep.Violations)))
	mAuditSeconds.ObserveSince(t0)
}

// Commitment is the store-level integrity commitment: committed row counts
// and XOR-aggregated row hashes per arena, covering every sealed segment
// plus the current tails (tail rows are hashed on the fly). Because rows
// and global sequences are layout-independent, equal ingest streams yield
// equal Commitments for any shard count × segment size — the equivalence
// the commitment tests pin.
type Commitment struct {
	JobRows   int    `json:"job_rows"`
	EventRows int    `json:"event_rows"`
	JobAgg    uint64 `json:"job_agg"`
	EventAgg  uint64 `json:"event_agg"`
}

// Digest renders the commitment as a fixed-width hex string.
func (c Commitment) Digest() string {
	return fmt.Sprintf("%08x.%016x-%08x.%016x", c.JobRows, c.JobAgg, c.EventRows, c.EventAgg)
}

// StoreCommitment aggregates the sealed commitments and the live tails
// into the store-level commitment. On a frozen store this covers exactly
// the committed contents; mid-run it is the commitment of the current
// ingest prefix.
func (s *Store) StoreCommitment() Commitment {
	var c Commitment
	c.JobRows, c.JobAgg = s.jobIdx.commitment()
	c.EventRows, c.EventAgg = s.evIdx.commitment()
	return c
}

// commitment is one index's share of StoreCommitment: the committed counts
// and aggregates of its sealed segments, plus the tail rows hashed on the
// fly.
func (x *segIndex[T]) commitment() (rows int, agg uint64) {
	x.wait()
	for _, seg := range x.sealed {
		agg ^= seg.agg
		rows += seg.committed
	}
	for i, p := range x.rows {
		agg ^= x.hash(p, x.seqs[i])
	}
	return rows + len(x.rows), agg
}

// SealedEventSegments iterates the sealed event segments in order, handing
// each segment's rows to fn. The rows are arena pointers: mutating them
// through the pointers models at-rest tamper of committed data — the
// sanctioned fault-injection seam of internal/verify. Synchronizes with
// in-flight background sorts first.
func (s *Store) SealedEventSegments(fn func(ref SegmentRef, rows []*records.TransferEvent)) {
	s.evIdx.wait()
	for k, seg := range s.evIdx.sealed {
		fn(SegmentRef{Arena: ArenaEvents, Segment: k}, seg.rows)
	}
}

// SealedJobSegments is SealedEventSegments for the jobs arena.
func (s *Store) SealedJobSegments(fn func(ref SegmentRef, rows []*records.JobRecord)) {
	s.jobIdx.wait()
	for k, seg := range s.jobIdx.sealed {
		fn(SegmentRef{Arena: ArenaJobs, Segment: k}, seg.rows)
	}
}

// TruncateSealed models the rollback attack: drop the last `drop` rows of
// one sealed segment — rows, sequences, AND their hashes, so the surviving
// segment looks internally consistent and only the committed count (which
// is deliberately left untouched) exposes the rollback. Returns the number
// of rows actually dropped (0 when the ref does not resolve). A
// fault-injection seam for internal/verify and the tests; never called by
// the store itself. The sealed segments are the time index, so ranged
// reads drop the rows at once.
func (s *Store) TruncateSealed(ref SegmentRef, drop int) int {
	if drop <= 0 {
		return 0
	}
	switch ref.Arena {
	case ArenaJobs:
		return s.jobIdx.truncate(ref.Segment, drop)
	case ArenaEvents:
		return s.evIdx.truncate(ref.Segment, drop)
	}
	return 0
}

func (x *segIndex[T]) truncate(seg, drop int) int {
	x.wait()
	if seg < 0 || seg >= len(x.sealed) {
		return 0
	}
	r := x.sealed[seg]
	drop = min(drop, len(r.rows))
	n := len(r.rows) - drop
	r.rows = r.rows[:n]
	r.seqs = r.seqs[:n]
	r.hashes = r.hashes[:n]
	return drop
}
