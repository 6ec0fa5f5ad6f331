package netsim

import (
	"math"
	"testing"
	"time"

	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// FuzzLinkAdmission drives one link, capped at 1–4 active transfers, with
// starts of random sizes at random instants, and checks the admission
// discipline from the transfers' own timestamps: they start in Start
// order, never more than the cap share the link, a transfer that waited
// starts at an instant when a peer finished, the link's active and queued
// counts add up to its unfinished transfers, and every transfer completes
// with every byte counted and nothing left in the link's queue array.
func FuzzLinkAdmission(f *testing.F) {
	// A plan is a list of 3-byte starts: the instant in minutes, then the
	// size in MB (big-endian), so sizes run from 1 B to ~65 GB.
	f.Add(int64(1), uint8(0), []byte{0, 0, 10, 0, 0, 200, 0, 1, 0, 5, 0, 1})
	f.Add(int64(2), uint8(1), []byte{0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 0, 0})
	f.Add(int64(3), uint8(2), []byte{9, 0, 50, 1, 1, 0, 1, 0, 20, 30, 0, 7, 2, 100, 0})
	f.Add(int64(4), uint8(3), []byte{0, 255, 255, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1})
	// 20 starts of ~6.4 GB at instant 0 queue behind one slot, and four
	// more arrive one minute apart while that queue drains.
	var burst []byte
	for i := range 24 {
		burst = append(burst, byte(max(0, i-19)), 25, byte(i))
	}
	f.Add(int64(5), uint8(0), burst)
	grid := topology.Default(topology.DefaultSpec{})
	f.Fuzz(func(t *testing.T, seed int64, slots uint8, plan []byte) {
		maxActive := 1 + int(slots%4)
		eng := simtime.NewEngine(0, 0)
		net := New(eng, grid, simtime.NewRNG(seed).Split("net"), Options{MaxActivePerLink: maxActive})
		var started []*Transfer // in Start order
		var bytes int64
		completed := 0
		for i := 0; i+3 <= len(plan) && i < 3*64; i += 3 {
			at := simtime.VTime(plan[i]) * simtime.Minute
			size := (int64(plan[i+1])<<8|int64(plan[i+2]))*1e6 + 1
			bytes += size
			_ = eng.At(at, func() {
				started = append(started, net.Start("SIGNET", "NDGF-T1", size, func(*Transfer) { completed++ }))
				unfinished := 0
				for _, tr := range started {
					if tr.Finished == 0 {
						unfinished++
					}
				}
				if a, q := net.ActiveTransfers(), net.QueuedTransfers(); a+q != unfinished {
					t.Fatalf("%d active + %d queued after a Start, want %d unfinished", a, q, unfinished)
				}
			})
		}
		eng.Run()

		if completed != len(started) || net.CompletedTransfers != int64(len(started)) {
			t.Fatalf("%d callbacks and %d completions for %d transfers", completed, net.CompletedTransfers, len(started))
		}
		if net.CompletedBytes != bytes {
			t.Fatalf("CompletedBytes = %d, want %d", net.CompletedBytes, bytes)
		}
		for _, l := range net.links {
			if len(l.queue) != 0 {
				t.Fatalf("drained link keeps %d admitted entries in its queue", len(l.queue))
			}
		}
		for j, tr := range started {
			if j > 0 && tr.Started < started[j-1].Started {
				t.Fatalf("transfer %d started at %d, before transfer %d (started %d) that was queued ahead of it",
					tr.ID, tr.Started, started[j-1].ID, started[j-1].Started)
			}
			if tr.Finished <= tr.Started || tr.Started < tr.Enqueued {
				t.Fatalf("transfer %d: enqueued %d, started %d, finished %d", tr.ID, tr.Enqueued, tr.Started, tr.Finished)
			}
			active, freed := 0, false
			for _, o := range started {
				if o.Started <= tr.Started && tr.Started < o.Finished {
					active++
				}
				freed = freed || o.Finished == tr.Started
			}
			if active > maxActive {
				t.Fatalf("%d transfers active at %d, cap %d", active, tr.Started, maxActive)
			}
			if tr.Started > tr.Enqueued && !freed {
				t.Fatalf("transfer %d waited %d..%d, but no transfer finished at %d", tr.ID, tr.Enqueued, tr.Started, tr.Started)
			}
		}
	})
}

// TestStartCostFlatInQueueLength pins admission's cost. On a saturated
// link Start visits the active set and whatever it admits, so its
// per-call time must not grow with the number of transfers already
// queued; a scan of the whole queue on every call makes a 64k queue's
// calls ~64x dearer than a 1k queue's.
func TestStartCostFlatInQueueLength(t *testing.T) {
	grid := topology.Default(topology.DefaultSpec{})
	saturated := func(queued int) *Network {
		n := New(simtime.NewEngine(0, 0), grid, simtime.NewRNG(1).Split("net"), Options{})
		for i := 0; i < n.opts.MaxActivePerLink+queued; i++ {
			n.Start("SIGNET", "NDGF-T1", 1e9, nil)
		}
		return n
	}
	nets := [2]*Network{saturated(1 << 10), saturated(1 << 16)}
	const calls = 128
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for range 8 {
		for k, n := range nets {
			t0 := time.Now()
			for range calls {
				n.Start("SIGNET", "NDGF-T1", 1e9, nil)
			}
			best[k] = min(best[k], time.Since(t0))
		}
	}
	small, large := best[0]/calls, best[1]/calls
	t.Logf("Start costs %v per call behind 1k queued transfers, %v behind 64k", small, large)
	if large > 4*small {
		t.Errorf("Start costs %v per call behind 64k queued transfers, %v behind 1k: want within 4x", large, small)
	}
	if q := nets[1].QueuedTransfers(); q < 1<<16 {
		t.Fatalf("large queue holds %d transfers, want >= %d", q, 1<<16)
	}
}
