package simtime

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// oracleRNG is an RNG over math/rand's own source: the stream every RNG
// must reproduce draw for draw.
func oracleRNG(seed int64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// oracleSeeds covers every branch of the seed reduction (zero, negative,
// multiples of the modulus, the value zero is replaced by, the int64
// extremes) and the child seeds the simulator actually derives.
func oracleSeeds() []int64 {
	root := NewRNG(1)
	return []int64{
		0, 1, -1,
		int32max, -int32max, 2 * int32max, int32max + 1, int32max - 1,
		seedZero, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64,
		root.splitSeed("task/1"), root.splitSeed("job/1"),
		NewRNG(7).splitSeed("job/80427"), NewRNG(21).splitSeed("task/4242"),
	}
}

// helpers draws through every RNG method, so the comparison covers each
// path math/rand takes from the source: Float64, Int63n's rejection loop,
// Intn's 31-bit path, the ziggurat tables of NormFloat64 and ExpFloat64,
// and Perm.
var helpers = []struct {
	name string
	draw func(g *RNG) float64
}{
	{"Float64", func(g *RNG) float64 { return g.Float64() }},
	{"Intn", func(g *RNG) float64 { return float64(g.Intn(1000)) }},
	{"Int63n", func(g *RNG) float64 { return float64(g.Int63n(1<<40 + 3)) }},
	{"Bool", func(g *RNG) float64 {
		if g.Bool(0.3) {
			return 1
		}
		return 0
	}},
	{"Uniform", func(g *RNG) float64 { return g.Uniform(-2, 5) }},
	{"Normal", func(g *RNG) float64 { return g.Normal(1, 2) }},
	{"LogNormal", func(g *RNG) float64 { return g.LogNormal(0, 1.5) }},
	{"Exponential", func(g *RNG) float64 { return g.Exponential(3) }},
	{"Pareto", func(g *RNG) float64 { return g.Pareto(1, 1.2) }},
	{"PoissonKnuth", func(g *RNG) float64 { return float64(g.Poisson(4)) }},
	{"PoissonNormal", func(g *RNG) float64 { return float64(g.Poisson(80)) }},
	{"Perm", func(g *RNG) float64 {
		v := 0
		for _, x := range g.Perm(6) {
			v = v*6 + x
		}
		return float64(v)
	}},
	{"Choice", func(g *RNG) float64 { return float64(g.Choice([]float64{0.5, 0, 2, 1})) }},
	{"VExp", func(g *RNG) float64 { return float64(g.VExp(10 * Minute)) }},
}

// sameDraws fails t at the first of n draws where got and want differ.
func sameDraws(t *testing.T, what string, got, want *RNG, n int, draw func(*RNG) float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if a, b := draw(got), draw(want); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: draw %d = %v, math/rand gives %v", what, i, a, b)
		}
	}
}

// TestLazySourceMatchesMathRand pins the raw source words past the two
// points where laziness could show: draw 274 reads back the first word a
// draw wrote, and draw 608 starts the second lap of the state.
func TestLazySourceMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds() {
		var lazy lazySource
		lazy.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 3*rngLen; i++ {
			var got, exp uint64
			if i%2 == 0 {
				got, exp = lazy.Uint64(), want.Uint64()
			} else {
				got, exp = uint64(lazy.Int63()), uint64(want.Int63())
			}
			if got != exp {
				t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, i, got, exp)
			}
		}
	}
}

func TestRNGHelpersMatchMathRand(t *testing.T) {
	for _, seed := range oracleSeeds() {
		for _, h := range helpers {
			sameDraws(t, h.name, NewRNG(seed), oracleRNG(seed), 700, h.draw)
		}
	}
}

// Reseed and SplitInto on a generator that has drawn past both lags must
// still give the fresh stream: no word computed for the old seed survives.
func TestReseedAndSplitIntoMidStream(t *testing.T) {
	uniform := func(g *RNG) float64 { return g.Float64() }
	normal := func(g *RNG) float64 { return g.Normal(0, 1) }
	root := NewRNG(89)
	for _, n := range []int{0, 1, 8, 273, 274, 607, 608, 2000} {
		g := NewRNG(5)
		for i := 0; i < n; i++ {
			uniform(g)
		}
		g.Reseed(-17)
		if g.Seed() != -17 {
			t.Fatalf("after %d draws: Seed() = %d after Reseed(-17)", n, g.Seed())
		}
		sameDraws(t, "Reseed", g, oracleRNG(-17), 1300, uniform)

		for i := 0; i < n; i++ {
			normal(g)
		}
		root.SplitInto(g, "job/3")
		sameDraws(t, "SplitInto vs Split", g, root.Split("job/3"), 1300, normal)
		root.SplitInto(g, "job/3")
		sameDraws(t, "SplitInto vs math/rand", g, oracleRNG(root.splitSeed("job/3")), 1300, normal)
	}
}

// FuzzRNGStream draws through every helper in turn, comparing each draw
// with math/rand's own source. At draw reseedAt the generator is recycled
// through SplitInto, and at draw 2·reseedAt+1 through Reseed.
func FuzzRNGStream(f *testing.F) {
	f.Add(int64(0), uint16(700), uint16(300))
	f.Add(int64(-1), uint16(1300), uint16(650))
	f.Add(int64(2*int32max), uint16(20), uint16(5))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, reseedAt uint16) {
		got, want := NewRNG(seed), oracleRNG(seed)
		root := NewRNG(seed)
		for i := 0; i < int(draws); i++ {
			switch i {
			case int(reseedAt):
				root.SplitInto(got, "fuzz")
				want = oracleRNG(root.splitSeed("fuzz"))
			case 2*int(reseedAt) + 1:
				got.Reseed(^seed)
				want = oracleRNG(^seed)
			}
			h := helpers[i%len(helpers)]
			if a, b := h.draw(got), h.draw(want); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: %s at draw %d = %v, math/rand gives %v", seed, h.name, i, a, b)
			}
		}
	})
}

// BenchmarkRNGSplit is the per-job cost the simulator pays for a pooled
// child stream: SplitInto plus the handful of draws a job makes.
func BenchmarkRNGSplit(b *testing.B) {
	root := NewRNG(1)
	child := NewRNG(0)
	labels := make([]string, 1024)
	for i := range labels {
		labels[i] = "job/" + strconv.Itoa(i)
	}
	i := 0
	for b.Loop() {
		root.SplitInto(child, labels[i%len(labels)])
		for k := 0; k < 8; k++ {
			child.Float64()
		}
		i++
	}
}
