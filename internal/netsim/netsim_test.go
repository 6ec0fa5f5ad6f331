package netsim

import (
	"testing"
	"testing/quick"

	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

func harness(t *testing.T) (*simtime.Engine, *Network) {
	t.Helper()
	eng := simtime.NewEngine(0, 0)
	grid := topology.Default(topology.DefaultSpec{})
	net := New(eng, grid, simtime.NewRNG(1).Split("net"), Options{})
	return eng, net
}

func TestSingleTransferCompletes(t *testing.T) {
	eng, net := harness(t)
	var got *Transfer
	net.Start("CERN-PROD", "BNL-ATLAS", 10e9, func(tr *Transfer) { got = tr })
	eng.Run()
	if got == nil {
		t.Fatal("transfer never completed")
	}
	if got.Finished <= got.Started {
		t.Errorf("finish %d not after start %d", got.Finished, got.Started)
	}
	if got.Throughput() <= 0 {
		t.Error("non-positive throughput")
	}
	if net.CompletedTransfers != 1 || net.CompletedBytes != 10e9 {
		t.Errorf("counters = %d/%d", net.CompletedTransfers, net.CompletedBytes)
	}
}

func TestZeroByteTransferInstant(t *testing.T) {
	eng, net := harness(t)
	done := false
	tr := net.Start("CERN-PROD", "CERN-PROD", 0, func(*Transfer) { done = true })
	if !done || tr.Finished != eng.Now() {
		t.Fatal("zero-byte transfer should complete synchronously")
	}
}

func TestFairSharingSlowsTransfers(t *testing.T) {
	// One transfer alone vs. the same transfer sharing with 7 peers: the
	// shared one must take materially longer. The stream cap is lifted so
	// fair sharing (not the cap) is the binding constraint.
	uncapped := Options{PerTransferCapBps: 1e15}
	solo := func() simtime.VTime {
		eng := simtime.NewEngine(0, 0)
		net := New(eng, topology.Default(topology.DefaultSpec{}), simtime.NewRNG(1).Split("net"), uncapped)
		var d simtime.VTime
		net.Start("CERN-PROD", "BNL-ATLAS", 50e9, func(tr *Transfer) { d = tr.Duration() })
		eng.Run()
		return d
	}()
	shared := func() simtime.VTime {
		eng := simtime.NewEngine(0, 0)
		net := New(eng, topology.Default(topology.DefaultSpec{}), simtime.NewRNG(1).Split("net"), uncapped)
		var d simtime.VTime
		net.Start("CERN-PROD", "BNL-ATLAS", 50e9, func(tr *Transfer) { d = tr.Duration() })
		for i := 0; i < 7; i++ {
			net.Start("CERN-PROD", "BNL-ATLAS", 50e9, nil)
		}
		eng.Run()
		return d
	}()
	if shared < solo*3 {
		t.Errorf("sharing with 7 peers: solo=%ds shared=%ds, want >=3x", solo, shared)
	}
}

func TestConcurrencyCapQueues(t *testing.T) {
	eng := simtime.NewEngine(0, 0)
	grid := topology.Default(topology.DefaultSpec{})
	net := New(eng, grid, simtime.NewRNG(2).Split("net"), Options{MaxActivePerLink: 2})
	var finishes []simtime.VTime
	var queueDelays []simtime.VTime
	for i := 0; i < 6; i++ {
		net.Start("SIGNET", "NDGF-T1", 20e9, func(tr *Transfer) {
			finishes = append(finishes, tr.Finished)
			queueDelays = append(queueDelays, tr.QueueDelay())
		})
	}
	if net.ActiveTransfers() != 2 || net.QueuedTransfers() != 4 {
		t.Fatalf("admission: active=%d queued=%d, want 2/4", net.ActiveTransfers(), net.QueuedTransfers())
	}
	eng.Run()
	if len(finishes) != 6 {
		t.Fatalf("only %d of 6 completed", len(finishes))
	}
	delayed := 0
	for _, d := range queueDelays {
		if d > 0 {
			delayed++
		}
	}
	if delayed < 4 {
		t.Errorf("only %d transfers saw queue delay, want >=4", delayed)
	}
}

func TestLocalFasterThanRemote(t *testing.T) {
	eng := simtime.NewEngine(0, 0)
	net := New(eng, topology.Default(topology.DefaultSpec{}), simtime.NewRNG(1).Split("net"),
		Options{PerTransferCapBps: 1e15})
	var local, remote simtime.VTime
	net.Start("CERN-PROD", "CERN-PROD", 40e9, func(tr *Transfer) { local = tr.Duration() })
	net.Start("SPRACE", "TOKYO-LCG2", 40e9, func(tr *Transfer) { remote = tr.Duration() })
	eng.Run()
	if local >= remote {
		t.Errorf("local (%ds) should beat trans-continental (%ds)", local, remote)
	}
}

func TestThroughputVariesAcrossTime(t *testing.T) {
	// Repeated identical transfers spread across a day should not all see
	// the same throughput (AR(1) + diurnal modulation). Uncapped so the
	// link fluctuation, not the stream cap, sets the rate.
	eng := simtime.NewEngine(0, 0)
	net := New(eng, topology.Default(topology.DefaultSpec{}), simtime.NewRNG(1).Split("net"),
		Options{PerTransferCapBps: 1e15})
	var rates []float64
	for i := 0; i < 24; i++ {
		at := simtime.VTime(i) * simtime.Hour
		eng.At(at, func() {
			net.Start("SIGNET", "NDGF-T1", 8e9, func(tr *Transfer) {
				rates = append(rates, tr.Throughput())
			})
		})
	}
	eng.Run()
	if len(rates) != 24 {
		t.Fatalf("%d/24 transfers completed", len(rates))
	}
	min, max := rates[0], rates[0]
	for _, r := range rates {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if max/min < 1.15 {
		t.Errorf("throughput too steady: min=%.0f max=%.0f", min, max)
	}
}

func TestDirectionalAsymmetry(t *testing.T) {
	// A->B and B->A are independent links with independent fluctuation
	// (paper Fig. 7a vs 7b). Verify the two directions are distinct link
	// objects.
	eng, net := harness(t)
	net.Start("SIGNET", "NDGF-T1", 1e9, nil)
	net.Start("NDGF-T1", "SIGNET", 1e9, nil)
	if net.LinkCount() != 2 {
		t.Fatalf("LinkCount=%d, want 2 directed links", net.LinkCount())
	}
	eng.Run()
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() []simtime.VTime {
		eng := simtime.NewEngine(0, 0)
		grid := topology.Default(topology.DefaultSpec{})
		net := New(eng, grid, simtime.NewRNG(7).Split("net"), Options{})
		var out []simtime.VTime
		for i := 0; i < 10; i++ {
			size := int64(5e9 + float64(i)*1e9)
			net.Start("CERN-PROD", "BNL-ATLAS", size, func(tr *Transfer) {
				out = append(out, tr.Finished)
			})
		}
		eng.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different completion counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.FluctuationInterval != 300 || o.Phi != 0.85 || o.MaxActivePerLink != 16 || o.PerTransferCapBps != 300e6 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

// Property: every completed transfer obeys Enqueued <= Started <= Finished
// and moves exactly its byte count.
func TestTransferInvariantProperty(t *testing.T) {
	prop := func(seed int64, sizes []uint32) bool {
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		eng := simtime.NewEngine(0, 0)
		grid := topology.Default(topology.DefaultSpec{})
		net := New(eng, grid, simtime.NewRNG(seed).Split("net"), Options{MaxActivePerLink: 3})
		ok := true
		var total int64
		count := 0
		for i, s := range sizes {
			size := int64(s)%int64(20e9) + 1
			total += size
			src, dst := "CERN-PROD", "BNL-ATLAS"
			if i%3 == 0 {
				dst = "CERN-PROD"
			}
			net.Start(src, dst, size, func(tr *Transfer) {
				count++
				if tr.Enqueued > tr.Started || tr.Started > tr.Finished {
					ok = false
				}
			})
		}
		eng.Run()
		return ok && count == len(sizes) && net.CompletedBytes == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPerTransferCapBindsOnFastLinks(t *testing.T) {
	// A lone 30 GB transfer on a multi-GB/s LAN must still take at least
	// size/cap seconds.
	eng := simtime.NewEngine(0, 0)
	net := New(eng, topology.Default(topology.DefaultSpec{}), simtime.NewRNG(5).Split("net"),
		Options{PerTransferCapBps: 300e6})
	var tr *Transfer
	net.Start("CERN-PROD", "CERN-PROD", 30e9, func(x *Transfer) { tr = x })
	eng.Run()
	if tr == nil {
		t.Fatal("transfer never completed")
	}
	if min := simtime.VTime(30e9 / 300e6); tr.Duration() < min {
		t.Errorf("duration %ds beat the stream cap floor %ds", tr.Duration(), min)
	}
	if tr.Throughput() > 301e6 {
		t.Errorf("throughput %.0f exceeds the 300 MB/s cap", tr.Throughput())
	}
}
