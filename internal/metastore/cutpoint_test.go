package metastore_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"panrucio/internal/core"
	"panrucio/internal/metastore"
	"panrucio/internal/metastore/storetest"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// cutPoints picks k random cut positions in (0, n), always including 1 and
// n itself, sorted ascending — the prefixes at which the live store is
// interrogated.
func cutPoints(rng *rand.Rand, n, k int) []int {
	set := map[int]bool{1: true, n: true}
	for len(set) < k+2 {
		set[1+rng.Intn(n)] = true
	}
	cuts := make([]int, 0, len(set))
	for c := range set {
		cuts = append(cuts, c)
	}
	sort.Ints(cuts)
	return cuts
}

// assertStoresAgree compares every mid-run query surface of the live
// (never-frozen) store against the frozen reference holding the same
// prefix, including full matcher passes over every job either store knows.
func assertStoresAgree(t *testing.T, label string, live, ref *metastore.Store) {
	t.Helper()
	if live.JobCount() != ref.JobCount() || live.FileCount() != ref.FileCount() ||
		live.TransferCount() != ref.TransferCount() ||
		live.TransfersWithTaskID() != ref.TransfersWithTaskID() {
		t.Fatalf("%s: counts diverged", label)
	}

	// Time-ranged queries: full, windowed, windowed-with-label.
	if !reflect.DeepEqual(evValues(live.Transfers(0, 0)), evValues(ref.Transfers(0, 0))) {
		t.Fatalf("%s: Transfers(0,0) diverged", label)
	}
	for _, w := range [][2]simtime.VTime{{0, 20}, {5, 15}, {7, 8}, {19, 40}} {
		if !reflect.DeepEqual(
			evValues(live.Transfers(w[0], w[1])), evValues(ref.Transfers(w[0], w[1]))) {
			t.Fatalf("%s: Transfers(%d,%d) diverged", label, w[0], w[1])
		}
		for _, lab := range []records.SourceLabel{"", records.LabelUser, records.LabelManaged} {
			if !reflect.DeepEqual(
				jobValues(live.Jobs(w[0], w[1], lab)), jobValues(ref.Jobs(w[0], w[1], lab))) {
				t.Fatalf("%s: Jobs(%d,%d,%q) diverged", label, w[0], w[1], lab)
			}
		}
	}

	// Matcher probes: MatchJob must see the same world through the live
	// JoinEntriesForJob path as through the reference's frozen bindings.
	lm, rm := core.NewMatcher(live), core.NewMatcher(ref)
	for panda := int64(0); panda < 40; panda++ {
		lj, lok := live.Job(panda)
		rj, rok := ref.Job(panda)
		if lok != rok || (lok && *lj != *rj) {
			t.Fatalf("%s: Job(%d) diverged", label, panda)
		}
		if !lok {
			continue
		}
		probe := *rj // value copy: matcher input independent of either store
		for _, method := range []core.Method{core.Exact, core.RM1, core.RM2} {
			if !reflect.DeepEqual(
				evValues(lm.MatchJob(&probe, method)),
				evValues(rm.MatchJob(&probe, method))) {
				t.Fatalf("%s: MatchJob(%d, %v) diverged", label, panda, method)
			}
		}
	}

	// Per-task join probes over the stream's whole key space.
	for panda := int64(0); panda < 40; panda++ {
		for task := int64(0); task < 17; task++ {
			le, re := live.JoinEntriesForJob(panda, task), ref.JoinEntriesForJob(panda, task)
			if len(le) != len(re) {
				t.Fatalf("%s: JoinEntriesForJob(%d,%d) diverged", label, panda, task)
			}
			for i := range le {
				if *le[i].File != *re[i].File ||
					!reflect.DeepEqual(evValues(le[i].Candidates()), evValues(re[i].Candidates())) {
					t.Fatalf("%s: JoinEntriesForJob(%d,%d)[%d] diverged", label, panda, task, i)
				}
			}
		}
	}
	for task := int64(1); task < 17; task++ {
		for lfn := 0; lfn < 25; lfn += 5 {
			key := metastore.JoinKey{LFN: fmt.Sprintf("f%d", lfn), Scope: "s", Dataset: "d1", ProdDBlock: "p"}
			if !reflect.DeepEqual(
				evValues(live.TaskTransfersByKey(task, key)),
				evValues(ref.TaskTransfersByKey(task, key))) {
				t.Fatalf("%s: TaskTransfersByKey(%d,%v) diverged", label, task, key)
			}
		}
	}
}

// checkOracle holds a store to the stream oracle for the prefix it holds:
// the matcher-facing probes, and the ranged queries over the windows
// assertStoresAgree uses.
func checkOracle(t *testing.T, label string, s *metastore.Store, o *storetest.Oracle) {
	t.Helper()
	if err := o.CheckJoins(s); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := o.CheckRanges(s, [][2]simtime.VTime{{0, 20}, {5, 15}, {7, 8}, {19, 40}}); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestCutPointEquivalence is the mid-run contract of the segmented store:
// stop a fuzzed ingest at k random prefixes and assert Jobs, Transfers,
// JoinEntriesForJob, TaskTransfersByKey, and MatchJob over the live
// sealed+tail state equal a fresh store fed the same prefix and frozen —
// across shard counts {1,4,8} × segment sizes {small, default}. One live
// store advances through all cuts (with explicit Seal()s interleaved at
// every other cut, so queries land on fresh seal boundaries too) and is
// never frozen until the final end-of-run check. A second store advances
// the same way but freezes at every cut, as the serving layer does at
// each checkpoint, so every Freeze after the first merges newly sealed
// runs into the previous indices. The live and refreezing stores (and the
// final reference) are also held to the stream oracle, which shares no
// code with the store. The suite runs the
// stream in its recorded order and with every file row put first, so
// file rows wait unbound for their key's first event.
func TestCutPointEquivalence(t *testing.T) {
	recorded := storetest.Make(99, 3000)
	rng := rand.New(rand.NewSource(7))
	cuts := cutPoints(rng, recorded.Len(), 5)

	for _, order := range []struct {
		name string
		st   *storetest.Stream
	}{{"recorded", recorded}, {"files-first", recorded.FilesFirst()}} {
		st := order.st
		for _, shards := range []int{1, 4, 8} {
			for _, segRows := range []int{64, 0} { // 0 → DefaultSegmentRows (tail-only at this scale)
				live := metastore.NewShardedSegmented(shards, segRows)
				refrozen := metastore.NewShardedSegmented(shards, segRows)
				prev := 0
				for ci, cut := range cuts {
					st.IngestRange(live, prev, cut)
					st.IngestRange(refrozen, prev, cut)
					prev = cut
					refrozen.Freeze()

					ref := metastore.NewSharded(1) // canonical batch path
					st.IngestPrefix(ref, cut)
					ref.Freeze()

					label := fmt.Sprintf("%s shards=%d segRows=%d cut=%d", order.name, shards, segRows, cut)
					oracle := st.Oracle(cut)
					assertStoresAgree(t, label, live, ref)
					assertStoresAgree(t, label+" (refrozen)", refrozen, ref)
					checkOracle(t, label, live, oracle)
					checkOracle(t, label+" (refrozen)", refrozen, oracle)

					if ci%2 == 1 {
						live.Seal() // queries after this land on a fresh seal boundary
						assertStoresAgree(t, label+" (sealed)", live, ref)
					}
				}

				// Small segments over 3000 puts must actually have sealed; the
				// default size must not (the pure-tail path is covered too).
				if segRows == 64 && live.SealedSegments() == 0 {
					t.Fatalf("%s shards=%d segRows=64: no segment ever sealed", order.name, shards)
				}

				// End of run: freezing the incrementally built store must land on
				// the exact batch result.
				live.Freeze()
				ref := metastore.NewSharded(1)
				st.IngestPrefix(ref, st.Len())
				ref.Freeze()
				label := fmt.Sprintf("%s shards=%d segRows=%d frozen", order.name, shards, segRows)
				assertStoresAgree(t, label, live, ref)
				checkOracle(t, label, live, st.Oracle(st.Len()))
				checkOracle(t, label+" (reference)", ref, st.Oracle(st.Len()))
			}
		}
	}
}
