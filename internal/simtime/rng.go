package simtime

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG wraps a seeded math/rand generator with the distribution helpers the
// simulation needs. It is deliberately splittable: Split derives an
// independent child stream from a label, so adding randomness to one
// subsystem never perturbs the draw sequence of another. That property is
// what keeps experiment outputs stable as the codebase grows.
//
// Every stream is identical to rand.New(rand.NewSource(seed)) for the same
// seed; only the source behind it differs (lazySource).
type RNG struct {
	seed int64
	r    *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	src := new(lazySource)
	src.Seed(seed)
	return &RNG{seed: seed, r: rand.New(src)}
}

// Seed reports the seed this generator was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Split derives an independent child generator keyed by label. Identical
// (seed, label) pairs always produce identical streams.
func (g *RNG) Split(label string) *RNG {
	return NewRNG(g.splitSeed(label))
}

// splitSeed is the derivation behind Split: the parent seed xor an FNV-1a
// hash of the label, avoiding the degenerate all-zero seed.
func (g *RNG) splitSeed(label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	child := g.seed ^ int64(h.Sum64())
	if child == 0 {
		child = int64(h.Sum64()) | 1
	}
	return child
}

// Reseed re-initializes the generator in place to the exact state NewRNG
// would give it. Re-seeding costs O(1); what it saves over NewRNG is the
// allocation. Each generator carries a 4.9 KB state vector, so callers that
// split per entity (one stream per job, say) and can bound the stream's
// lifetime should recycle dead generators through Reseed/SplitInto.
func (g *RNG) Reseed(seed int64) {
	g.seed = seed
	g.r.Seed(seed)
}

// SplitInto is Split without the allocation: it re-seeds child, in O(1),
// to the exact stream Split(label) would return. The child must not be in
// use — recycling a generator that can still be drawn from corrupts
// determinism silently.
func (g *RNG) SplitInto(child *RNG, label string) {
	child.Reseed(g.splitSeed(label))
}

const (
	rngLen    = 607           // words in math/rand's lagged-Fibonacci state
	rngTap    = 273           // its second lag
	int32max  = 1<<31 - 1     // modulus of the seeding LCG
	seedMul   = 48271         // multiplier of the seeding LCG
	seedZero  = 89482311      // what math/rand seeds with in place of 0
	seedSteps = 3*rngLen + 21 // seedPow's length: steps 0 through 23+3·606
)

// seedPow[n] is seedMul^n mod int32max, so the n-th LCG step from x is
// x·seedPow[n] mod int32max without walking the n-1 steps before it.
var seedPow = func() (p [seedSteps]uint64) {
	p[0] = 1
	for n := 1; n < seedSteps; n++ {
		p[n] = p[n-1] * seedMul % int32max
	}
	return p
}()

// lazySource is math/rand's rngSource with its seeding deferred word by
// word. rngSource.Seed walks the LCG x ← x·48271 mod (2³¹−1) 1,841 times
// to fill all 607 state words; word i depends only on steps 21+3i, 22+3i
// and 23+3i, so lazySource computes it on the first draw that reads it. A
// stream that takes k values from the source touches at most 2k words, and
// the state after any sequence of draws equals rngSource's, so every draw
// does too.
type lazySource struct {
	tap, feed int
	x0        uint64                     // the reduced seed, LCG step 0
	filled    [(rngLen + 63) / 64]uint64 // bit i set once vec[i] is valid
	vec       [rngLen]int64
}

// Seed reduces seed exactly as rngSource.Seed does and invalidates every
// state word.
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	s.x0 = uint64(seed)
	s.filled = [len(s.filled)]uint64{}
}

// word returns state word i, computing rngSource's seeded value first if
// no draw has touched it since Seed.
func (s *lazySource) word(i int) int64 {
	if s.filled[i>>6]&(1<<(i&63)) == 0 {
		s.filled[i>>6] |= 1 << (i & 63)
		p := seedPow[21+3*i : 24+3*i]
		u := int64(s.x0*p[0]%int32max) << 40
		u ^= int64(s.x0*p[1]%int32max) << 20
		u ^= int64(s.x0 * p[2] % int32max)
		s.vec[i] = u ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 is rngSource.Uint64 reading through word.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rngSource.Int63.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0,n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform draw in [0,n). n must be positive.
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Bool returns true with probability p (clamped to [0,1]).
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Uniform returns a uniform draw in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a Gaussian draw with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// LogNormal returns a draw whose logarithm is Normal(mu, sigma). Heavy-tailed
// file and dataset sizes in the workload generator use this.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Exponential returns a draw from an exponential distribution with the given
// mean (inter-arrival times).
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Pareto returns a draw from a (Type-I) Pareto distribution with scale xm and
// shape alpha. Used for the rare huge datasets that produce Fig. 3's >30 PB
// outlier cells.
func (g *RNG) Pareto(xm, alpha float64) float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a draw from a Poisson distribution with the given mean,
// using Knuth's method for small lambda and a normal approximation above
// 30 (adequate for arrival counts; exactness is not required there).
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(g.Normal(lambda, math.Sqrt(lambda))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a deterministic random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Choice returns a uniformly chosen index weighted by w (all weights must be
// non-negative; if they sum to zero the first index is returned).
func (g *RNG) Choice(w []float64) int {
	total := 0.0
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 {
		return 0
	}
	target := g.r.Float64() * total
	acc := 0.0
	for i, x := range w {
		if x > 0 {
			acc += x
		}
		if target < acc {
			return i
		}
	}
	return len(w) - 1
}

// VExp returns an exponential inter-arrival delay as a VTime, at least 1s.
func (g *RNG) VExp(mean VTime) VTime {
	d := VTime(math.Round(g.Exponential(float64(mean))))
	if d < 1 {
		d = 1
	}
	return d
}
