package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of the positive entries, or 0 when
// none are positive. (The paper quotes geometric means over site-pair
// volumes, which include many near-zero cells; zeros are excluded exactly
// as a log-domain mean must.)
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks; it copies and sorts the input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Max returns the maximum, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Sum returns the total.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// FormatBytes renders a byte count with a binary-free SI-style unit, the
// way the paper quotes volumes (TB, PB, EB at 10^12/10^15/10^18).
func FormatBytes(b float64) string {
	abs := math.Abs(b)
	switch {
	case abs >= 1e18:
		return fmt.Sprintf("%.2f EB", b/1e18)
	case abs >= 1e15:
		return fmt.Sprintf("%.2f PB", b/1e15)
	case abs >= 1e12:
		return fmt.Sprintf("%.2f TB", b/1e12)
	case abs >= 1e9:
		return fmt.Sprintf("%.2f GB", b/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.2f MB", b/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.2f kB", b/1e3)
	}
	return fmt.Sprintf("%.0f B", b)
}

// FormatRate renders bytes/s in the paper's MBps style.
func FormatRate(bps float64) string {
	return FormatBytes(bps) + "/s"
}
