package quant

import (
	"math"
	"testing"
)

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		q, want float64
	}{
		{0, 0.95, 1}, {5, 0.95, 1}, {199, 0.95, 1}, {200, 0.95, 0.95}, {6000, 0.95, 0.95},
		{99, 0.9, 1}, {100, 0.9, 0.9},
	}
	for _, c := range cases {
		if got := TailQuantile(c.n, c.q); got != c.want {
			t.Errorf("TailQuantile(%d, %g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
	// When the rule picks a percentile below the maximum, at least
	// MinBeyond samples lie strictly above it (samples distinct).
	for _, n := range []int{200, 201, 640, 1000, 2400, 12345} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := Percentile(xs, TailQuantile(n, 0.95))
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < MinBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail percentile", n, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}, {0.01, 1},
	} {
		if got := Percentile(xs, c.q); got != c.want {
			t.Errorf("Percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, m, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("Spread = %g, want 1", s)
	}
	if Median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("even-count median should average the middle pair")
	}
}
