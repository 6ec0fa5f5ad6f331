package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"panrucio/internal/corruption"
	"panrucio/internal/metastore"
	"panrucio/internal/metastore/storetest"
	"panrucio/internal/netsim"
	"panrucio/internal/panda"
	"panrucio/internal/records"
	"panrucio/internal/rucio"
	"panrucio/internal/simtime"
	"panrucio/internal/workload"
)

// pipeWindows are the ranged queries held to the oracle after each drain;
// storetest streams use times in [0, 40).
var pipeWindows = [][2]simtime.VTime{{0, 20}, {5, 15}, {7, 8}, {19, 40}}

// newPipeStore returns a store small enough to seal mid-stream, so the
// apply goroutine also launches background seals.
func newPipeStore() *metastore.Store { return metastore.NewShardedSegmented(3, 64) }

// checkPrefix requires a drained store to answer like the oracle of the
// stream's first k puts and to equal a store fed that prefix directly.
func checkPrefix(t *testing.T, st *storetest.Stream, s *metastore.Store, k int) {
	t.Helper()
	o := st.Oracle(k)
	if err := o.CheckJoins(s); err != nil {
		t.Fatalf("drained after %d puts: %v", k, err)
	}
	if err := o.CheckRanges(s, pipeWindows); err != nil {
		t.Fatalf("drained after %d puts: %v", k, err)
	}
	ref := newPipeStore()
	st.IngestPrefix(ref, k)
	if got, want := s.StoreCommitment().Digest(), ref.StoreCommitment().Digest(); got != want {
		t.Fatalf("drained after %d puts: commitment %s, want %s", k, got, want)
	}
	if s.JobCount() != ref.JobCount() || s.FileCount() != ref.FileCount() || s.TransferCount() != ref.TransferCount() {
		t.Fatalf("drained after %d puts: counts %d/%d/%d, want %d/%d/%d", k,
			s.JobCount(), s.FileCount(), s.TransferCount(), ref.JobCount(), ref.FileCount(), ref.TransferCount())
	}
}

// TestPipeDrainMatchesOracle replays a fuzzed put stream through the
// ingest pipe's sinks. A drain must leave the store holding exactly the
// puts made before it, whatever state the batches are in: nothing filled,
// a partial batch, a batch just shipped, one shipped plus a partial one,
// the queue one batch short of full, full, full plus a partial batch, and
// a hand-off that found the queue full.
func TestPipeDrainMatchesOracle(t *testing.T) {
	const b, q = ingestBatch, ingestQueue
	st := storetest.Make(7, (q+2)*b)
	for _, k := range []int{0, 1, b - 1, b, b + 1, 2*b + 1, q*b - 1, q * b, q*b + 1, (q+1)*b + 1} {
		s := newPipeStore()
		p := newIngestPipe(s)
		st.Replay(0, k, p.putJob, p.putFile, p.putTransfer)
		p.drain()
		checkPrefix(t, st, s, k)
		// The pipe keeps its order across a drain.
		st.Replay(k, st.Len(), p.putJob, p.putFile, p.putTransfer)
		p.close()
		checkPrefix(t, st, s, st.Len())
	}

	// One pipe drained at random points, in stream order.
	rng := rand.New(rand.NewSource(7))
	cuts := make([]int, 8)
	for i := range cuts {
		cuts[i] = rng.Intn(st.Len() + 1)
	}
	slices.Sort(cuts)
	s := newPipeStore()
	p := newIngestPipe(s)
	prev := 0
	for _, k := range cuts {
		st.Replay(prev, k, p.putJob, p.putFile, p.putTransfer)
		p.drain()
		checkPrefix(t, st, s, k)
		prev = k
	}
	p.close()
}

// TestPipeCountsBlockedWaits stalls the applier until the event loop has
// filled the queue, so the next hand-off must block: the wait histogram
// records it, the batch counter counts every hand-off, and the store still
// receives the stream in order.
func TestPipeCountsBlockedWaits(t *testing.T) {
	const b, q = ingestBatch, ingestQueue
	st := storetest.Make(11, (q+1)*b)
	s := newPipeStore()
	// newIngestPipe without its applier, which starts only after the stall.
	p := &ingestPipe{store: s, fill: &batch{}, todo: make(chan *batch, q), done: make(chan *batch, q)}
	batches, waits, waited := mIngestBatches.Value(), mIngestWaitSeconds.Count(), mIngestWaitSeconds.Sum()
	st.Replay(0, st.Len()-1, p.putJob, p.putFile, p.putTransfer)
	const stall = 20 * time.Millisecond
	time.AfterFunc(stall, func() { go p.apply() })
	st.Replay(st.Len()-1, st.Len(), p.putJob, p.putFile, p.putTransfer) // the (q+1)th hand-off
	if got := mIngestWaitSeconds.Count() - waits; got != 1 {
		t.Fatalf("%d blocking waits recorded, want 1", got)
	}
	if got := mIngestWaitSeconds.Sum() - waited; got < 0.5*stall.Seconds() {
		t.Fatalf("blocked %.4fs behind a %v stall", got, stall)
	}
	if got := mIngestBatches.Value() - batches; got != q+1 {
		t.Fatalf("%d hand-offs counted, want %d", got, q+1)
	}
	p.close()
	checkPrefix(t, st, s, st.Len())
}

// TestRunCountsHandoffs requires a quick run to count one hand-off per
// full batch of its puts, and Run and RunWithObserver to end their
// applier before returning.
func TestRunCountsHandoffs(t *testing.T) {
	cfg := QuickConfig(3)
	before := mIngestBatches.Value()
	res := Run(cfg)
	puts := res.Store.JobCount() + res.Store.FileCount() + res.Store.TransferCount()
	if got := mIngestBatches.Value() - before; got != int64(puts/ingestBatch) || got == 0 {
		t.Fatalf("%d hand-offs counted for %d puts, want %d", got, puts, puts/ingestBatch)
	}
	checkNoApplier(t, "Run")
	RunWithObserver(cfg, 6*simtime.Hour, func(simtime.VTime, *metastore.Store) {})
	checkNoApplier(t, "RunWithObserver")
}

// checkNoApplier fails unless no goroutine runs a pipe's applier. The
// applier's exit follows close's return by a few instructions, so the
// check polls briefly before failing.
func checkNoApplier(t *testing.T, after string) {
	t.Helper()
	for range 100 {
		buf := make([]byte, 1<<20)
		if !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*ingestPipe).apply(") {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("an ingest pipe's applier is still running after %s returned", after)
}

// checkpoint is what one observer call saw of the store.
type checkpoint struct {
	now                    simtime.VTime
	digest                 string
	jobs, files, transfers int
	pandaIDs, eventIDs     uint64 // FNV-1a of the id sequences
}

func observe(now simtime.VTime, s *metastore.Store) checkpoint {
	ids := fnv.New64a()
	for _, j := range s.Jobs(0, now, "") {
		ids.Write(binary.LittleEndian.AppendUint64(nil, uint64(j.PandaID)))
	}
	evs := fnv.New64a()
	for _, ev := range s.Transfers(0, now) {
		evs.Write(binary.LittleEndian.AppendUint64(nil, uint64(ev.EventID)))
	}
	return checkpoint{
		now:       now,
		digest:    s.StoreCommitment().Digest(),
		jobs:      s.JobCount(),
		files:     s.FileCount(),
		transfers: s.TransferCount(),
		pandaIDs:  ids.Sum64(),
		eventIDs:  evs.Sum64(),
	}
}

// runSynchronous wires the scenario from the public constructors the way
// runReusing does, but with the store's Put methods as the record sinks:
// the reference for what an observer of the pipe must see.
func runSynchronous(cfg Config, every simtime.VTime, obs Observer) *metastore.Store {
	cfg.fill()
	store := metastore.NewShardedSegmented(cfg.Shards, cfg.SegmentRows)
	horizon := simtime.VTime(cfg.WarmupDays+cfg.Days) * simtime.Day
	eng := simtime.NewEngine(0, horizon)
	grid := GridFor(cfg)
	root := simtime.NewRNG(cfg.Seed)
	corr := corruption.New(root.Split("corruption"), cfg.Corruption)
	net := netsim.New(eng, grid, root.Split("net"), cfg.Net)
	ruc := rucio.New(eng, grid, net, root.Split("rucio"), cfg.Rucio, func(ev *records.TransferEvent) {
		if corr.Transfer(ev) {
			store.PutTransfer(ev)
		}
	})
	pan := panda.NewSystem(eng, grid, ruc, root.Split("panda"), cfg.Panda, store.PutJob, store.PutFile)
	workload.Start(eng, grid, ruc, pan, root.Split("workload"), cfg.Workload)
	if !cfg.DisableBackground {
		rucio.StartBackground(ruc, root.Split("background"), cfg.Background)
	}
	var tick func()
	tick = func() {
		obs(eng.Now(), store)
		if eng.Now()+every < horizon {
			eng.After(every, tick)
		}
	}
	eng.After(every, tick)
	eng.Run()
	store.Freeze()
	return store
}

// TestCheckpointsSeeEveryPut holds every observer checkpoint of a piped
// run to the same checkpoint of a run whose sinks put synchronously: the
// live store must hold exactly the puts made before the checkpoint, and
// the final store every put.
func TestCheckpointsSeeEveryPut(t *testing.T) {
	cfg := QuickConfig(5)
	cfg.SegmentRows = 512
	const every = 30 * simtime.Minute
	var got, want []checkpoint
	res := RunWithObserver(cfg, every, func(now simtime.VTime, s *metastore.Store) {
		got = append(got, observe(now, s))
	})
	ref := runSynchronous(cfg, every, func(now simtime.VTime, s *metastore.Store) {
		want = append(want, observe(now, s))
	})
	if len(got) != len(want) || len(want) < 90 {
		t.Fatalf("%d checkpoints, reference %d (want ≥ 90)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpoint %d: saw %+v, reference %+v", i, got[i], want[i])
		}
	}
	final := observe(res.WindowTo, res.Store)
	if wantFinal := observe(res.WindowTo, ref); final != wantFinal {
		t.Fatalf("final store %+v, reference %+v", final, wantFinal)
	}
}
