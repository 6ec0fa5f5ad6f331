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
// equal streams commit equally no matter how the store is partitioned.
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

// ArenaKind names one of the two committed arenas of a shard.
type ArenaKind string

// The committed arenas. File rows have no time index and no seal cycle,
// so they carry no segment commitments (they are matcher inputs, not
// query outputs).
const (
	ArenaJobs   ArenaKind = "jobs"
	ArenaEvents ArenaKind = "events"
)

// SegmentRef identifies one sealed segment: shard index, arena, and the
// segment's position in the shard's sealed list. Refs are stable while no
// compaction runs (compaction — part of Freeze — merges all of a shard's
// segments into segment 0).
type SegmentRef struct {
	Shard   int       `json:"shard"`
	Arena   ArenaKind `json:"arena"`
	Segment int       `json:"segment"`
}

func (r SegmentRef) String() string {
	return fmt.Sprintf("%s[%d].seg%d", r.Arena, r.Shard, r.Segment)
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

func (r *AuditReport) absorb(o AuditReport) {
	r.Segments += o.Segments
	r.Rows += o.Rows
	r.Violations = append(r.Violations, o.Violations...)
}

// AuditMark is an incremental-audit watermark: how many sealed segments of
// each shard and arena have been audited so far. The zero value means
// "nothing audited". Marks are positional, so they are invalidated by
// compaction (Freeze); the online verify loop audits between seals, before
// the final freeze, which is exactly when segments only accumulate.
type AuditMark struct {
	jobs   []int
	events []int
}

func (m *AuditMark) at(n int) {
	for len(m.jobs) < n {
		m.jobs = append(m.jobs, 0)
	}
	for len(m.events) < n {
		m.events = append(m.events, 0)
	}
}

// auditRun checks one sealed run against its commitment: length against
// the committed count, then every committed row's hash.
func auditRun[T any](seg *segRun[T], hash func(*T, uint32) uint64, ref SegmentRef, rep *AuditReport) {
	rep.Segments++
	if len(seg.rows) < seg.committed {
		rep.Violations = append(rep.Violations, Violation{
			Ref: ref, Row: len(seg.rows), Kind: Truncation,
			Detail: fmt.Sprintf("segment holds %d of %d committed rows", len(seg.rows), seg.committed),
		})
	}
	n := len(seg.rows)
	if n > len(seg.hashes) {
		n = len(seg.hashes)
	}
	for i := 0; i < n; i++ {
		rep.Rows++
		if hash(seg.rows[i], seg.seqs[i]) != seg.hashes[i] {
			rep.Violations = append(rep.Violations, Violation{
				Ref: ref, Row: i, Kind: RowTamper,
				Detail: fmt.Sprintf("row %d fails its committed hash", i),
			})
		}
	}
}

// auditWindowRun is auditRun bounded to the [from, to) time window of one
// sealed run — the per-query check: re-hash only the rows a ranged read
// returns. The length-vs-committed rollback check is unconditional (it is
// O(1)).
func auditWindowRun[T any](seg *segRun[T], hash func(*T, uint32) uint64, at func(*T) simtime.VTime,
	from, to simtime.VTime, ref SegmentRef, rep *AuditReport) {
	rep.Segments++
	if len(seg.rows) < seg.committed {
		rep.Violations = append(rep.Violations, Violation{
			Ref: ref, Row: len(seg.rows), Kind: Truncation,
			Detail: fmt.Sprintf("segment holds %d of %d committed rows", len(seg.rows), seg.committed),
		})
	}
	n := len(seg.rows)
	if n > len(seg.hashes) {
		n = len(seg.hashes)
	}
	lo := sort.Search(n, func(i int) bool { return at(seg.rows[i]) >= from })
	hi := sort.Search(n, func(i int) bool { return at(seg.rows[i]) >= to })
	for i := lo; i < hi; i++ {
		rep.Rows++
		if hash(seg.rows[i], seg.seqs[i]) != seg.hashes[i] {
			rep.Violations = append(rep.Violations, Violation{
				Ref: ref, Row: i, Kind: RowTamper,
				Detail: fmt.Sprintf("row %d fails its committed hash", i),
			})
		}
	}
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
	mark.at(len(s.shards))
	reports := make([]AuditReport, len(s.shards))
	for i, sh := range s.shards {
		sh.jobSegs.waitCommits()
		sh.evSegs.waitCommits()
		for k := mark.jobs[i]; k < len(sh.jobSegs.sealed); k++ {
			auditRun(sh.jobSegs.sealed[k], hashJobRow,
				SegmentRef{Shard: i, Arena: ArenaJobs, Segment: k}, &reports[i])
		}
		mark.jobs[i] = len(sh.jobSegs.sealed)
		for k := mark.events[i]; k < len(sh.evSegs.sealed); k++ {
			auditRun(sh.evSegs.sealed[k], hashEventRow,
				SegmentRef{Shard: i, Arena: ArenaEvents, Segment: k}, &reports[i])
		}
		mark.events[i] = len(sh.evSegs.sealed)
	}
	var rep AuditReport
	for _, r := range reports {
		rep.absorb(r)
	}
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
	for i, sh := range s.shards {
		sh.jobSegs.waitCommits()
		for k, seg := range sh.jobSegs.sealed {
			auditWindowRun(seg, hashJobRow, jobEnd, from, to,
				SegmentRef{Shard: i, Arena: ArenaJobs, Segment: k}, &rep)
		}
	}
	s.noteAudit(&rep, t0)
	return rep
}

// AuditTransfersWindow is AuditJobsWindow for the events arena: the sealed
// rows a Transfers(from, to) read draws from, checked by StartedAt window.
func (s *Store) AuditTransfersWindow(from, to simtime.VTime) AuditReport {
	t0 := time.Now()
	var rep AuditReport
	for i, sh := range s.shards {
		sh.evSegs.waitCommits()
		for k, seg := range sh.evSegs.sealed {
			auditWindowRun(seg, hashEventRow, evStart, from, to,
				SegmentRef{Shard: i, Arena: ArenaEvents, Segment: k}, &rep)
		}
	}
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
	for _, sh := range s.shards {
		sh.jobSegs.waitCommits()
		sh.evSegs.waitCommits()
		for _, seg := range sh.jobSegs.sealed {
			c.JobAgg ^= seg.agg
			c.JobRows += seg.committed
		}
		for _, seg := range sh.evSegs.sealed {
			c.EventAgg ^= seg.agg
			c.EventRows += seg.committed
		}
		for i := sh.jobSegs.start; i < sh.jobs.len(); i++ {
			c.JobAgg ^= hashJobRow(sh.jobs.at(i), sh.jobSeq[i])
			c.JobRows++
		}
		for i := sh.evSegs.start; i < sh.events.len(); i++ {
			c.EventAgg ^= hashEventRow(sh.events.at(i), sh.evSeq[i])
			c.EventRows++
		}
	}
	return c
}

// SealedEventSegments iterates the sealed event segments in (shard,
// segment) order, handing each segment's rows to fn. The rows are arena
// pointers: mutating them through the pointers models at-rest tamper of
// committed data — the sanctioned fault-injection seam of internal/verify.
// Synchronizes with in-flight background sorts first.
func (s *Store) SealedEventSegments(fn func(ref SegmentRef, rows []*records.TransferEvent)) {
	for i, sh := range s.shards {
		sh.evSegs.waitCommits()
		for k, seg := range sh.evSegs.sealed {
			fn(SegmentRef{Shard: i, Arena: ArenaEvents, Segment: k}, seg.rows)
		}
	}
}

// SealedJobSegments is SealedEventSegments for the jobs arena.
func (s *Store) SealedJobSegments(fn func(ref SegmentRef, rows []*records.JobRecord)) {
	for i, sh := range s.shards {
		sh.jobSegs.waitCommits()
		for k, seg := range sh.jobSegs.sealed {
			fn(SegmentRef{Shard: i, Arena: ArenaJobs, Segment: k}, seg.rows)
		}
	}
}

// TruncateSealed models the rollback attack: drop the last `drop` rows of
// one sealed segment — rows, sequences, AND their hashes, so the surviving
// segment looks internally consistent and only the committed count (which
// is deliberately left untouched) exposes the rollback. Returns the number
// of rows actually dropped (0 when the ref does not resolve). A
// fault-injection seam for internal/verify and the tests; never called by
// the store itself.
//
// The store-level time indices still hold the dropped rows, so the next
// Freeze rebuilds them from every sealed run rather than merging only the
// runs sealed since the last one: ranged reads of a frozen store serve
// the dropped rows until further ingest and a Freeze rebuild them without.
func (s *Store) TruncateSealed(ref SegmentRef, drop int) int {
	if ref.Shard < 0 || ref.Shard >= len(s.shards) || drop <= 0 {
		return 0
	}
	sh := s.shards[ref.Shard]
	n := 0
	switch ref.Arena {
	case ArenaJobs:
		n = truncateRun(&sh.jobSegs, ref.Segment, drop)
	case ArenaEvents:
		n = truncateRun(&sh.evSegs, ref.Segment, drop)
	}
	if n > 0 {
		s.rebuild = true
	}
	return n
}

func truncateRun[T any](x *segIndex[T], seg, drop int) int {
	x.waitCommits()
	if seg < 0 || seg >= len(x.sealed) {
		return 0
	}
	r := x.sealed[seg]
	if drop > len(r.rows) {
		drop = len(r.rows)
	}
	n := len(r.rows) - drop
	r.rows = r.rows[:n]
	r.seqs = r.seqs[:n]
	r.hashes = r.hashes[:n]
	return drop
}
