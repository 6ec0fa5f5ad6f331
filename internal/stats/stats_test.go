package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 || GeoMean([]float64{0, 0}) != 0 {
		t.Error("GeoMean of no positives should be 0")
	}
	got := GeoMean([]float64{1, 100})
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("GeoMean(1,100) = %g, want 10", got)
	}
	// Zeros excluded.
	got = GeoMean([]float64{0, 1, 100, 0})
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("GeoMean with zeros = %g, want 10", got)
	}
	// Geometric mean <= arithmetic mean on positives (AM-GM).
	xs := []float64{3, 7, 19, 0.5, 2}
	if GeoMean(xs) > Mean(xs) {
		t.Error("AM-GM violated")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := map[float64]float64{0: 1, 100: 4, 50: 2.5, 25: 1.75}
	for p, want := range cases {
		if got := Percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("P%g = %g, want %g", p, got, want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	if Percentile(xs, -5) != 1 || Percentile(xs, 150) != 4 {
		t.Error("out-of-range percentiles should clamp")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Max(xs) != 7 || Min(xs) != -1 || Sum(xs) != 9 {
		t.Error("Min/Max/Sum wrong")
	}
	if Max(nil) != 0 || Min(nil) != 0 || Sum(nil) != 0 {
		t.Error("empty-slice behaviour wrong")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[float64]string{
		1e18:  "1.00 EB",
		5e15:  "5.00 PB",
		77e12: "77.00 TB",
		2.5e9: "2.50 GB",
		3e6:   "3.00 MB",
		4e3:   "4.00 kB",
		12:    "12 B",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%g) = %q, want %q", in, got, want)
		}
	}
	if !strings.HasSuffix(FormatRate(1e6), "/s") {
		t.Error("FormatRate missing /s suffix")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []float64, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return Percentile(raw, a) <= Percentile(raw, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
