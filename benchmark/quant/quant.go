// Package quant holds the order statistics the benchmark and its comparer
// share: nearest-rank percentiles for latency tails, the tail-percentile
// rule, and quartiles computed the way Python's statistics.quantiles does
// by default, so a run's spread reads the same in both tools.
package quant

import (
	"math"
	"sort"
)

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile is the nearest-rank q-quantile (0 < q <= 1) of an ascending
// slice: the smallest value with at least q of the samples at or below it.
// It returns 0 for an empty slice.
func Percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps q*n = 190.00000000000003 from skipping a rank.
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return sorted[min(max(i, 0), n-1)]
}

// Median is the middle value of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func Median(xs []float64) float64 {
	s := Sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MinBeyond is how many samples a tail percentile must leave above it.
const MinBeyond = 10

// TailQuantile is the percentile a run of n samples reports as its tail:
// q when at least MinBeyond samples lie beyond it, else 1 (the maximum).
func TailQuantile(n int, q float64) float64 {
	if float64(n)*(1-q) >= MinBeyond-1e-9 {
		return q
	}
	return 1
}

// Quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method (Python's statistics.quantiles(xs, n=4)). One
// sample yields that sample three times; none yields zeros.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// The same integer arithmetic as CPython, including its clamping of
	// the interpolation index (which extrapolates for n = 2).
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// Spread is the interquartile range of xs as a share of its median — the
// run-to-run spread the benchmark's bounds are checked against. It is 0
// when the median is 0.
func Spread(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
