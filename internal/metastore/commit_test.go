package metastore_test

import (
	"fmt"
	"testing"

	"panrucio/internal/metastore"
	"panrucio/internal/metastore/storetest"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// layouts is the shard-count × segment-size grid the commitment contract
// is pinned over (the same grid as the cut-point equivalence suite).
var layouts = []struct{ shards, segRows int }{
	{1, 64}, {4, 64}, {8, 64}, {1, 0}, {4, 0}, {8, 0},
}

// TestCommitmentLayoutIndependence: equal put streams must commit equally
// for every shard count × segment size — mid-run (sealed + live tail) and
// after a Freeze. This is what makes the store-level commitment a
// statement about the data, not about its partitioning.
func TestCommitmentLayoutIndependence(t *testing.T) {
	st := storetest.Make(42, 2500)
	cut := st.Len() / 2

	var midRef, endRef metastore.Commitment
	for li, l := range layouts {
		s := metastore.NewShardedSegmented(l.shards, l.segRows)
		st.IngestPrefix(s, cut)
		s.Seal() // exercise the sealed-aggregate path mid-run too
		mid := s.StoreCommitment()
		st.IngestRange(s, cut, st.Len())
		live := s.StoreCommitment() // mixed sealed + tail
		s.Freeze()
		end := s.StoreCommitment()

		if live != end {
			t.Fatalf("shards=%d segRows=%d: live commitment %v != frozen %v",
				l.shards, l.segRows, live, end)
		}
		if li == 0 {
			midRef, endRef = mid, end
			continue
		}
		if mid != midRef {
			t.Fatalf("shards=%d segRows=%d: mid-run commitment %v != reference %v",
				l.shards, l.segRows, mid, midRef)
		}
		if end != endRef {
			t.Fatalf("shards=%d segRows=%d: frozen commitment %v != reference %v",
				l.shards, l.segRows, end, endRef)
		}
	}
	if midRef == endRef {
		t.Fatal("mid-run and full commitments identical — the cut did nothing")
	}
	if endRef.Digest() == (metastore.Commitment{}).Digest() {
		t.Fatal("frozen commitment is the zero commitment")
	}
}

// TestAuditCleanStore: an untampered store audits clean on every surface,
// for every layout, mid-run and frozen — the false-positive half of the
// detection contract.
func TestAuditCleanStore(t *testing.T) {
	st := storetest.Make(7, 2000)
	for _, l := range layouts {
		s := metastore.NewShardedSegmented(l.shards, l.segRows)
		st.IngestPrefix(s, st.Len()/2)
		s.Seal()
		if rep := s.AuditSealed(); !rep.Clean() {
			t.Fatalf("shards=%d segRows=%d mid-run: %d violations on clean store",
				l.shards, l.segRows, len(rep.Violations))
		}
		st.IngestRange(s, st.Len()/2, st.Len())
		s.Freeze()
		rep := s.AuditSealed()
		if !rep.Clean() {
			t.Fatalf("shards=%d segRows=%d frozen: %d violations on clean store",
				l.shards, l.segRows, len(rep.Violations))
		}
		if rep.Rows == 0 || rep.Segments == 0 {
			t.Fatalf("shards=%d segRows=%d: frozen audit covered nothing (%+v)",
				l.shards, l.segRows, rep)
		}
		if w := s.AuditTransfersWindow(0, 40); !w.Clean() {
			t.Fatalf("shards=%d segRows=%d: windowed transfer audit dirty on clean store", l.shards, l.segRows)
		}
		if w := s.AuditJobsWindow(0, 40); !w.Clean() {
			t.Fatalf("shards=%d segRows=%d: windowed job audit dirty on clean store", l.shards, l.segRows)
		}
	}
}

// eventTampers mutates one field per entry — every attribute a corruption
// channel can touch, plus the time keys — so per-field detection is pinned
// rather than assumed from "the hash covers everything".
var eventTampers = []struct {
	name string
	fn   func(*records.TransferEvent)
}{
	{"dataset", func(ev *records.TransferEvent) { ev.Dataset = ev.Dataset + "_tid00000001" }},
	{"taskid", func(ev *records.TransferEvent) { ev.JediTaskID = ev.JediTaskID + 1 }},
	{"source-site", func(ev *records.TransferEvent) { ev.SourceSite = "" }},
	{"garble", func(ev *records.TransferEvent) { ev.DestinationSite = "gsiftp://invalid/" + ev.DestinationSite }},
	{"size", func(ev *records.TransferEvent) { ev.FileSize += 1 }},
	{"time", func(ev *records.TransferEvent) { ev.StartedAt += 1 }},
	{"flip-direction", func(ev *records.TransferEvent) { ev.IsDownload, ev.IsUpload = ev.IsUpload, ev.IsDownload }},
}

// tamperedStore builds a sealed multi-segment store and applies tamper to
// the idx-th sealed event row, returning the mutated row's segment ref.
func tamperedStore(t *testing.T, tamper func(*records.TransferEvent)) (*metastore.Store, metastore.SegmentRef) {
	t.Helper()
	s := metastore.NewShardedSegmented(4, 64)
	storetest.Make(3, 2000).Ingest(s)
	s.Seal()
	var ref metastore.SegmentRef
	done := false
	s.SealedEventSegments(func(r metastore.SegmentRef, rows []*records.TransferEvent) {
		if !done && len(rows) > 3 {
			tamper(rows[3])
			ref, done = r, true
		}
	})
	if !done {
		t.Fatal("no sealed event segment to tamper")
	}
	return s, ref
}

// TestAuditDetectsRowTamper: mutating any committed field of one sealed
// row is caught by the full audit, located to the exact segment and row.
func TestAuditDetectsRowTamper(t *testing.T) {
	for _, tc := range eventTampers {
		t.Run(tc.name, func(t *testing.T) {
			s, ref := tamperedStore(t, tc.fn)
			rep := s.AuditSealed()
			if len(rep.Violations) != 1 {
				t.Fatalf("want exactly 1 violation, got %d (%+v)", len(rep.Violations), rep.Violations)
			}
			v := rep.Violations[0]
			if v.Kind != metastore.RowTamper || v.Ref != ref || v.Row != 3 {
				t.Fatalf("violation mislocated: %+v (want %v row 3)", v, ref)
			}
		})
	}
}

// TestAuditDetectsJobTamper: the jobs arena is committed too.
func TestAuditDetectsJobTamper(t *testing.T) {
	s := metastore.NewShardedSegmented(4, 64)
	storetest.Make(5, 2000).Ingest(s)
	s.Seal()
	tampered := false
	s.SealedJobSegments(func(r metastore.SegmentRef, rows []*records.JobRecord) {
		if !tampered && len(rows) > 0 {
			rows[0].ComputingSite = "EVIL-SITE"
			tampered = true
		}
	})
	if !tampered {
		t.Fatal("no sealed job segment to tamper")
	}
	rep := s.AuditSealed()
	if len(rep.Violations) != 1 || rep.Violations[0].Kind != metastore.RowTamper ||
		rep.Violations[0].Ref.Arena != metastore.ArenaJobs {
		t.Fatalf("job tamper not detected as a jobs-arena row-tamper: %+v", rep.Violations)
	}
}

// TestAuditDetectsTruncation: dropping the last rows of a sealed segment
// (the rollback attack — rows, seqs, AND hashes truncated so the survivor
// is internally consistent) is caught via the committed-count excess.
func TestAuditDetectsTruncation(t *testing.T) {
	s := metastore.NewShardedSegmented(4, 64)
	storetest.Make(11, 2000).Ingest(s)
	s.Seal()
	var ref metastore.SegmentRef
	found := false
	s.SealedEventSegments(func(r metastore.SegmentRef, rows []*records.TransferEvent) {
		if !found && len(rows) >= 8 {
			ref, found = r, true
		}
	})
	if !found {
		t.Fatal("no sealed event segment large enough to truncate")
	}
	if got := s.TruncateSealed(ref, 5); got != 5 {
		t.Fatalf("TruncateSealed dropped %d rows, want 5", got)
	}
	rep := s.AuditSealed()
	if len(rep.Violations) != 1 {
		t.Fatalf("want exactly 1 violation, got %+v", rep.Violations)
	}
	if v := rep.Violations[0]; v.Kind != metastore.Truncation || v.Ref != ref {
		t.Fatalf("truncation mislocated: %+v (want %v)", v, ref)
	}
}

// TestAuditSurvivesCompaction: tamper planted before a Freeze must still
// be detected after it — compaction carries commitments rather than
// recomputing them, so it cannot launder violations (truncation included).
func TestAuditSurvivesCompaction(t *testing.T) {
	t.Run("row-tamper", func(t *testing.T) {
		s, _ := tamperedStore(t, func(ev *records.TransferEvent) { ev.FileSize += 7 })
		s.Freeze()
		rep := s.AuditSealed()
		if len(rep.Violations) != 1 || rep.Violations[0].Kind != metastore.RowTamper {
			t.Fatalf("pre-freeze tamper laundered by compaction: %+v", rep.Violations)
		}
	})
	t.Run("truncation", func(t *testing.T) {
		s := metastore.NewShardedSegmented(4, 64)
		storetest.Make(13, 2000).Ingest(s)
		s.Seal()
		var ref metastore.SegmentRef
		found := false
		s.SealedEventSegments(func(r metastore.SegmentRef, rows []*records.TransferEvent) {
			if !found && len(rows) >= 4 {
				ref, found = r, true
			}
		})
		if !found || s.TruncateSealed(ref, 2) != 2 {
			t.Fatal("could not truncate a sealed segment")
		}
		s.Freeze()
		rep := s.AuditSealed()
		if rep.Clean() {
			t.Fatal("pre-freeze truncation laundered by compaction")
		}
		hasTrunc := false
		for _, v := range rep.Violations {
			if v.Kind == metastore.Truncation {
				hasTrunc = true
			}
		}
		if !hasTrunc {
			t.Fatalf("truncation not reported as such after compaction: %+v", rep.Violations)
		}
	})
}

// TestAuditWindow: the windowed audits check exactly the rows a ranged
// read returns — tamper inside the window is caught, tamper outside it is
// not (that is the cost bound), and the full audit always catches it.
func TestAuditWindow(t *testing.T) {
	s, _ := tamperedStore(t, func(ev *records.TransferEvent) { ev.Scope = "tampered" })
	var at int64 = -1
	s.SealedEventSegments(func(r metastore.SegmentRef, rows []*records.TransferEvent) {
		for _, ev := range rows {
			if ev.Scope == "tampered" {
				at = int64(ev.StartedAt)
			}
		}
	})
	if at < 0 {
		t.Fatal("tampered row not found")
	}
	hit := s.AuditTransfersWindow(simtime.VTime(at), simtime.VTime(at+1))
	if hit.Clean() {
		t.Fatalf("window [%d,%d) missed tamper at t=%d", at, at+1, at)
	}
	miss := s.AuditTransfersWindow(simtime.VTime(at+1), simtime.VTime(at+100))
	if !miss.Clean() {
		t.Fatalf("window past the tamper reported violations: %+v", miss.Violations)
	}
	if miss.Rows >= hit.Rows+s.TransferCount() {
		t.Fatalf("windowed audit not bounded: checked %d rows", miss.Rows)
	}
	if full := s.AuditSealed(); full.Clean() {
		t.Fatal("full audit missed the tamper")
	}
}

// TestAuditSealedSince: the incremental watermark audits only segments
// sealed since the mark — the per-checkpoint cost of the online loop.
func TestAuditSealedSince(t *testing.T) {
	st := storetest.Make(17, 3000)
	s := metastore.NewShardedSegmented(4, 64)
	st.IngestPrefix(s, 1000)
	s.Seal()
	first, mark := s.AuditSealedSince(metastore.AuditMark{})
	if !first.Clean() || first.Segments == 0 {
		t.Fatalf("first incremental audit: %+v", first)
	}
	// Nothing new sealed: the incremental step must cover zero segments.
	again, mark := s.AuditSealedSince(mark)
	if again.Segments != 0 || again.Rows != 0 {
		t.Fatalf("no-op incremental audit re-checked %d segments / %d rows", again.Segments, again.Rows)
	}
	// Record how many event segments there were at the mark, so the
	// tamper below provably lands in a NEW segment.
	atMark := 0
	s.SealedEventSegments(func(r metastore.SegmentRef, rows []*records.TransferEvent) {
		atMark = max(atMark, r.Segment+1)
	})

	// More data, one of the NEW segments tampered: the incremental step
	// must cover only the new segments and still catch it.
	st.IngestRange(s, 1000, 3000)
	s.Seal()
	seen := 0
	tampered := false
	s.SealedEventSegments(func(r metastore.SegmentRef, rows []*records.TransferEvent) {
		seen++
		if !tampered && r.Segment >= atMark && len(rows) > 0 {
			rows[0].LFN = "evil"
			tampered = true
		}
	})
	if !tampered {
		t.Fatal("no event segment sealed after the mark — stream too small")
	}
	inc, _ := s.AuditSealedSince(mark)
	if inc.Clean() {
		t.Fatal("incremental audit missed tamper in a newly sealed segment")
	}
	if inc.Segments >= first.Segments+seen {
		t.Fatalf("incremental audit re-checked old segments: %d", inc.Segments)
	}
	total := s.AuditSealed()
	if total.Segments <= inc.Segments {
		t.Fatalf("full audit (%d segs) should cover more than the increment (%d)", total.Segments, inc.Segments)
	}
}

// TestCommitmentBinding: the commitment binds to SEAL-TIME content —
// post-seal tamper of a sealed row must NOT move the store commitment
// (that is what makes it a commitment rather than a checksum of whatever
// is currently there), and the audit is what exposes the divergence. Tail
// rows are uncommitted live data, so tampering the tail DOES move it.
func TestCommitmentBinding(t *testing.T) {
	build := func() *metastore.Store {
		s := metastore.NewShardedSegmented(4, 64)
		storetest.Make(23, 1500).Ingest(s)
		s.Seal()
		return s
	}
	a, b := build(), build()
	if a.StoreCommitment() != b.StoreCommitment() {
		t.Fatal("equal stores commit unequally")
	}
	done := false
	b.SealedEventSegments(func(r metastore.SegmentRef, rows []*records.TransferEvent) {
		if !done && len(rows) > 0 {
			rows[0].FileSize++
			done = true
		}
	})
	if !done {
		t.Fatal("no sealed segment to tamper")
	}
	if a.StoreCommitment() != b.StoreCommitment() {
		t.Fatal("sealed-row tamper moved the commitment — it is not binding")
	}
	if a.AuditSealed().Clean() == false {
		t.Fatal("clean store audits dirty")
	}
	if b.AuditSealed().Clean() {
		t.Fatal("audit missed the divergence the commitment is bound against")
	}

	// Tail rows are live, uncommitted data: tampering one moves the
	// store commitment (it is hashed on the fly).
	// Default segment size: 1500 puts never hit the auto-seal threshold,
	// so every row stays in a tail.
	c := metastore.NewShardedSegmented(4, 0)
	storetest.Make(23, 1500).Ingest(c)
	before := c.StoreCommitment()
	tailHit := false
	for _, ev := range c.Transfers(0, 0) {
		if !tailHit {
			ev.FileSize++
			tailHit = true
		}
	}
	if !tailHit {
		t.Fatal("no tail row to tamper")
	}
	if c.StoreCommitment() == before {
		t.Fatal("tail tamper did not move the live commitment")
	}
}

func TestCommitmentDigestFormat(t *testing.T) {
	c := metastore.Commitment{JobRows: 1, EventRows: 2, JobAgg: 3, EventAgg: 4}
	want := fmt.Sprintf("%08x.%016x-%08x.%016x", 1, 3, 2, 4)
	if c.Digest() != want {
		t.Fatalf("Digest() = %q, want %q", c.Digest(), want)
	}
}

// TestTruncateThenRefreeze: TruncateSealed drops rows from the compacted
// run of a frozen store. The sealed segments are the time index, so
// ranged reads drop the rows at once, and the next Freeze after further
// ingest must merge the new runs into the truncated one without bringing
// them back.
func TestTruncateThenRefreeze(t *testing.T) {
	st := storetest.Make(17, 3000)
	s := metastore.NewShardedSegmented(4, 64)
	st.IngestPrefix(s, 2000)
	s.Freeze()
	var ref metastore.SegmentRef
	var dropped []records.TransferEvent
	s.SealedEventSegments(func(r metastore.SegmentRef, rows []*records.TransferEvent) {
		if dropped == nil && len(rows) >= 8 {
			ref, dropped = r, storetest.EvValues(rows[len(rows)-3:])
		}
	})
	if dropped == nil {
		t.Fatal("no sealed event segment large enough to truncate")
	}
	held := len(s.Transfers(0, 0))
	if got := s.TruncateSealed(ref, 3); got != 3 {
		t.Fatalf("TruncateSealed dropped %d rows, want 3", got)
	}
	if got := len(s.Transfers(0, 0)); got != held-3 {
		t.Fatalf("frozen store serves %d transfers right after the truncation, want %d", got, held-3)
	}

	st.IngestRange(s, 2000, 3000)
	s.Freeze()
	want := st.Oracle(3000).Transfers(0, 0)
	for _, d := range dropped {
		for i := range want {
			if want[i] == d {
				want = append(want[:i], want[i+1:]...)
				break
			}
		}
	}
	got := storetest.EvValues(s.Transfers(0, 0))
	if len(got) != len(want) {
		t.Fatalf("Transfers(0,0) after the refreeze: %d events, want %d (the dropped rows must be gone)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Transfers(0,0)[%d] after the refreeze = event %d, want event %d", i, got[i].EventID, want[i].EventID)
		}
	}
}
