package corruption

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// The reference forms of the correlated channels' keys: what the corruptor
// hashed when it built each key with fmt and fed it to hash/fnv.

func refSaltedHash(salt uint64, key string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", salt, key)
	return h.Sum64()
}

func refBatchKey(ev *records.TransferEvent) string {
	return fmt.Sprintf("batch/%d/%s/%s/%s/%d",
		ev.JediTaskID, ev.SourceSite, ev.DestinationSite, ev.Activity,
		ev.SubmittedAt/simtime.Hour)
}

// refTidName is the join-broken name in its fmt form: the dataset, "_tid"
// and the dataset's hash/fnv hash mod 1e8 in eight digits.
func refTidName(dataset string) string {
	h := fnv.New64a()
	h.Write([]byte(dataset))
	return dataset + "_tid" + fmt.Sprintf("%08d", int(h.Sum64()%uint64(1e8)))
}

func refHashBool(h uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(h%1_000_000)/1_000_000 < p
}

// FuzzCorruptionKeys holds every hand-built key hash to the fmt and
// hash/fnv form it replaces, byte for byte: the join and batch draws'
// salted keys, the draw itself, and the "_tid" name.
func FuzzCorruptionKeys(f *testing.F) {
	f.Add(uint64(0), int64(0), "", "", "", int64(0), "", 0.5)
	f.Add(uint64(1<<62-1), int64(42), "CERN-PROD", "BNL-ATLAS", "Analysis Download", int64(3*3600+5), "data25.ds", 0.92)
	f.Add(uint64(math.MaxUint64), int64(math.MinInt64), "UNKNOWN", "gsiftp://invalid/X", "", int64(-7201), "mc23_13p6TeV.é", 1e-12)
	f.Add(uint64(7), int64(-1), "a/b", "/", "T0 Export", int64(math.MaxInt64), "user.x.123.out", 1.0)
	f.Fuzz(func(t *testing.T, salt uint64, task int64, src, dst, activity string, submitted int64, dataset string, p float64) {
		c := &Corruptor{salted: saltedPrefix(salt)}
		ev := &records.TransferEvent{
			JediTaskID: task, SourceSite: src, DestinationSite: dst,
			Activity: records.Activity(activity), SubmittedAt: simtime.VTime(submitted),
			Dataset: dataset,
		}
		join, want := uint64(c.joinKey(dataset)), refSaltedHash(salt, "join/"+dataset)
		if join != want {
			t.Fatalf("joinKey(%q) = %#x, fmt form %#x", dataset, join, want)
		}
		batch, want := uint64(c.batchKey(ev)), refSaltedHash(salt, refBatchKey(ev))
		if batch != want {
			t.Fatalf("batchKey = %#x, fmt form of %q %#x", batch, refBatchKey(ev), want)
		}
		for _, h := range []uint64{join, batch} {
			if got, want := hashBool(fnv1a(h), p), refHashBool(h, p); got != want {
				t.Fatalf("hashBool(%#x, %v) = %v, reference %v", h, p, got, want)
			}
		}
		if got, want := tidName(dataset), refTidName(dataset); got != want {
			t.Fatalf("tidName(%q) = %q, fmt form %q", dataset, got, want)
		}
	})
}

// TestTransferAllocations pins the event loop's cost of corrupting a
// job-correlated download: the correlated draws hash their keys without
// building them, so only a join break allocates, and only the new name.
func TestTransferAllocations(t *testing.T) {
	base := *event()
	for _, tc := range []struct {
		name      string
		joinBreak float64
		broken    bool
		allocs    float64
	}{
		{"intact", 1e-12, false, 0},
		{"join-broken", 0.999999, true, 1},
	} {
		cfg := off()
		cfg.JoinBreakProb = tc.joinBreak
		c := New(simtime.NewRNG(11), cfg)
		ev := new(records.TransferEvent)
		got := testing.AllocsPerRun(100, func() {
			*ev = base
			c.Transfer(ev)
		})
		if broken := ev.Dataset != base.Dataset; broken != tc.broken {
			t.Fatalf("%s: dataset %q after Transfer", tc.name, ev.Dataset)
		}
		if got != tc.allocs {
			t.Errorf("%s: Transfer allocates %v per event, want %v", tc.name, got, tc.allocs)
		}
	}
}
