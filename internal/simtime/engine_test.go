package simtime

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestVTimeWallRoundTrip(t *testing.T) {
	for _, v := range []VTime{0, 1, Hour, Day, 92 * Day} {
		if got := FromWall(v.Wall()); got != v {
			t.Errorf("FromWall(Wall(%d)) = %d", v, got)
		}
	}
}

func TestVTimeString(t *testing.T) {
	if got := VTime(0).String(); got != "2025-04-01 00:00:00" {
		t.Errorf("VTime(0) = %q, want epoch string", got)
	}
	if got := (Day + Hour).String(); got != "2025-04-02 01:00:00" {
		t.Errorf("Day+Hour = %q", got)
	}
}

func TestVTimeDuration(t *testing.T) {
	if Hour.Duration() != time.Hour {
		t.Errorf("Hour.Duration() = %v", Hour.Duration())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(0, 0)
	var order []int
	e.After(30, func() { order = append(order, 3) })
	e.After(10, func() { order = append(order, 1) })
	e.After(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("clock = %d, want 30", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine(0, 0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEngineCascade(t *testing.T) {
	e := NewEngine(0, 0)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	fired := e.Run()
	if count != 100 || fired != 100 {
		t.Fatalf("count=%d fired=%d, want 100", count, fired)
	}
	if e.Now() != 100 {
		t.Errorf("clock = %d, want 100", e.Now())
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine(0, 50)
	ran := 0
	e.After(10, func() { ran++ })
	e.After(60, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran=%d, want 1 (event past horizon must not fire)", ran)
	}
	if e.Now() != 50 {
		t.Errorf("clock = %d, want horizon 50", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(0, 0)
	ran := false
	var ev Event
	if err := e.Arm(&ev, 10, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	ev.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

// TestEngineArmSupersedes holds a re-armed handle to one firing: the later
// schedule replaces the earlier, which stays queued (Pending counts it)
// until it reaches the head and is dropped unfired. A handle whose
// schedule fired arms again.
func TestEngineArmSupersedes(t *testing.T) {
	e := NewEngine(0, 0)
	var ev Event
	var fired []VTime
	fn := func() { fired = append(fired, e.Now()) }
	for _, at := range []VTime{5, 10} {
		if err := e.Arm(&ev, at, fn); err != nil {
			t.Fatal(err)
		}
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2 (the superseded schedule stays queued)", e.Pending())
	}
	if n := e.Run(); n != 1 || !slices.Equal(fired, []VTime{10}) {
		t.Fatalf("fired %v (%d events), want only the later schedule at 10", fired, n)
	}
	if err := e.Arm(&ev, 20, fn); err != nil {
		t.Fatal(err)
	}
	if e.Run(); !slices.Equal(fired, []VTime{10, 20}) || ev.Cancelled() {
		t.Fatalf("re-armed handle: fired %v, cancelled %v", fired, ev.Cancelled())
	}
}

// TestEngineScheduleAllocatesNothing pins the engine's allocation per
// schedule at zero once its queue has grown: a slot carries the callback,
// so neither After nor Arm with a caller-owned handle allocates.
func TestEngineScheduleAllocatesNothing(t *testing.T) {
	e := NewEngine(0, 0)
	fn := func() {}
	var ev Event
	allocs := testing.AllocsPerRun(100, func() {
		for i := range 64 {
			e.After(VTime(i%8), fn)
		}
		if err := e.Arm(&ev, e.Now()+3, fn); err != nil {
			t.Fatal(err)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per 65 schedules, want 0", allocs)
	}
}

func TestEnginePastEvent(t *testing.T) {
	e := NewEngine(100, 0)
	if err := e.At(50, func() {}); err != ErrPastEvent {
		t.Fatalf("At(past) err = %v, want ErrPastEvent", err)
	}
}

func TestEngineNegativeDelayClamps(t *testing.T) {
	e := NewEngine(100, 0)
	ran := false
	e.After(-5, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 100 {
		t.Fatalf("negative delay should fire at current instant; ran=%v now=%d", ran, e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(0, 0)
	var fired []VTime
	for _, at := range []VTime{5, 15, 25} {
		at := at
		e.After(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired=%v, want events at 5 and 15 only", fired)
	}
	if e.Now() != 20 {
		t.Errorf("clock = %d, want 20", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining event did not fire: %v", fired)
	}
}

func TestEngineRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	e := NewEngine(0, 0)
	e.RunUntil(40)
	if e.Now() != 40 {
		t.Errorf("clock = %d, want 40", e.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(7)
	a := root.Split("alpha")
	b := root.Split("beta")
	a2 := NewRNG(7).Split("alpha")
	same := 0
	for i := 0; i < 50; i++ {
		av, bv, av2 := a.Float64(), b.Float64(), a2.Float64()
		if av == bv {
			same++
		}
		if av != av2 {
			t.Fatal("Split not deterministic for identical (seed,label)")
		}
	}
	if same > 5 {
		t.Fatalf("sibling streams coincide too often: %d/50", same)
	}
}

func TestRNGBoolEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 20; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGPoissonMean(t *testing.T) {
	g := NewRNG(3)
	for _, lambda := range []float64{0.5, 4, 50} {
		sum := 0
		n := 20000
		for i := 0; i < n; i++ {
			sum += g.Poisson(lambda)
		}
		mean := float64(sum) / float64(n)
		if mean < lambda*0.9 || mean > lambda*1.1 {
			t.Errorf("Poisson(%g) sample mean %g out of band", lambda, mean)
		}
	}
	if g.Poisson(0) != 0 || g.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive lambda must be 0")
	}
}

func TestRNGParetoLowerBound(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := g.Pareto(2.0, 1.5); v < 2.0 {
			t.Fatalf("Pareto draw %g below scale", v)
		}
	}
}

func TestRNGExponentialNonNegative(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 1000; i++ {
		if g.Exponential(10) < 0 {
			t.Fatal("negative exponential draw")
		}
	}
	if g.Exponential(0) != 0 || g.Exponential(-3) != 0 {
		t.Error("Exponential of non-positive mean must be 0")
	}
}

func TestRNGChoiceWeights(t *testing.T) {
	g := NewRNG(13)
	w := []float64{0, 0, 1, 0}
	for i := 0; i < 100; i++ {
		if g.Choice(w) != 2 {
			t.Fatal("Choice ignored zero weights")
		}
	}
	if g.Choice([]float64{0, 0}) != 0 {
		t.Error("Choice of all-zero weights should return 0")
	}
	// Negative weights are treated as zero.
	wneg := []float64{-5, 1}
	for i := 0; i < 100; i++ {
		if g.Choice(wneg) != 1 {
			t.Fatal("Choice selected negative-weight index")
		}
	}
}

func TestRNGVExpAtLeastOne(t *testing.T) {
	g := NewRNG(17)
	for i := 0; i < 1000; i++ {
		if g.VExp(1) < 1 {
			t.Fatal("VExp below 1s")
		}
	}
}

// Property: scheduling any set of non-negative delays fires them all in
// non-decreasing time order.
func TestEngineOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine(0, 0)
		var fired []VTime
		for _, d := range delays {
			d := VTime(d)
			e.After(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Uniform(lo,hi) stays inside [lo,hi) for ordered bounds.
func TestRNGUniformBoundsProperty(t *testing.T) {
	g := NewRNG(23)
	prop := func(a, b float64) bool {
		if a != a || b != b { // NaN
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi-lo <= 0 || hi-lo > 1e12 {
			return true
		}
		v := g.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineQueue measures the event queue alone. A steady population
// of pending events fires one by one, each firing schedules its successor,
// and every eighth firing also schedules an event and cancels it, so one
// push in nine (11%) is popped cancelled — the rate a PaperConfig(1) run
// shows, nearly all from netsim wake-ups. One op is one fired event.
func BenchmarkEngineQueue(b *testing.B) {
	const live = 1024
	e := NewEngine(0, 0)
	x := uint64(1)
	delay := func() VTime { // 1..1024 s from a 64-bit LCG
		x = x*6364136223846793005 + 1442695040888963407
		return VTime(1 + x>>54)
	}
	k := 0
	var dead Event
	var tick func()
	tick = func() {
		e.After(delay(), tick)
		if k++; k%8 == 0 {
			e.Arm(&dead, e.Now()+delay(), tick)
			dead.Cancel()
		}
	}
	for range live {
		e.After(delay(), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		e.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
