package analysis

import (
	"sort"
	"strings"

	"panrucio/internal/records"
	"panrucio/internal/report"
	"panrucio/internal/simtime"
)

// Route is a directed site pair.
type Route struct{ Src, Dst string }

func (r Route) String() string { return r.Src + " -> " + r.Dst }

// Local reports whether the route is intra-site.
func (r Route) Local() bool { return r.Src == r.Dst }

// BandwidthSeries bins the byte flow of the given events into fixed-width
// buckets over [from, to), spreading each transfer's bytes uniformly across
// its active interval — the paper's accumulated-bandwidth-usage measure for
// Figs. 7 and 8. Y values are bytes/second.
func BandwidthSeries(events []*records.TransferEvent, from, to, bucket simtime.VTime) *report.Series {
	if bucket <= 0 {
		bucket = 60
	}
	if to <= from {
		return &report.Series{XLabel: "time (s)", YLabel: "bytes/sec"}
	}
	n := int((to - from + bucket - 1) / bucket)
	bins := make([]float64, n)
	for _, ev := range events {
		a, b := ev.StartedAt, ev.EndedAt
		if b <= a {
			// Instantaneous event: attribute everything to its bucket.
			b = a + 1
		}
		rate := float64(ev.FileSize) / float64(b-a)
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		for t := a; t < b; {
			bi := int((t - from) / bucket)
			if bi < 0 || bi >= n {
				break
			}
			bucketEnd := from + simtime.VTime(bi+1)*bucket
			seg := bucketEnd - t
			if b-t < seg {
				seg = b - t
			}
			bins[bi] += rate * float64(seg)
			t += seg
		}
	}
	s := &report.Series{XLabel: "time (s)", YLabel: "bytes/sec"}
	for i, v := range bins {
		s.Points = append(s.Points, report.Point{
			X: float64(from) + float64(i)*float64(bucket),
			Y: v / float64(bucket),
		})
	}
	return s
}

// RouteEvents selects the events flowing on one route.
func RouteEvents(events []*records.TransferEvent, r Route) []*records.TransferEvent {
	var out []*records.TransferEvent
	for _, ev := range events {
		if ev.SourceSite == r.Src && ev.DestinationSite == r.Dst {
			out = append(out, ev)
		}
	}
	return out
}

// TopRoutes ranks routes by total bytes, filtered to local or remote.
// Routes with an UNKNOWN or invalid-looking endpoint label are skipped
// (they are not plottable connections).
func TopRoutes(events []*records.TransferEvent, local bool, k int) []Route {
	type agg struct {
		r Route
		b float64
	}
	bad := func(site string) bool {
		return site == "UNKNOWN" || strings.ContainsAny(site, ":/")
	}
	sums := map[Route]float64{}
	for _, ev := range events {
		if bad(ev.SourceSite) || bad(ev.DestinationSite) {
			continue
		}
		r := Route{ev.SourceSite, ev.DestinationSite}
		if r.Local() != local {
			continue
		}
		sums[r] += float64(ev.FileSize)
	}
	var all []agg
	for r, b := range sums {
		all = append(all, agg{r, b})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].b != all[j].b {
			return all[i].b > all[j].b
		}
		return all[i].r.String() < all[j].r.String()
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]Route, 0, k)
	for _, a := range all[:k] {
		out = append(out, a.r)
	}
	return out
}

// BandwidthFigure builds the Fig. 7 (remote) or Fig. 8 (local) panels: the
// top-k routes of the requested locality among the events, each with its
// flow binned over [from, to).
func BandwidthFigure(events []*records.TransferEvent, local bool, k int, from, to, bucket simtime.VTime) []*report.Series {
	var out []*report.Series
	for _, r := range TopRoutes(events, local, k) {
		s := BandwidthSeries(RouteEvents(events, r), from, to, bucket)
		s.Name = r.String()
		if r.Local() {
			s.Name = "local @ " + r.Src
		}
		out = append(out, s)
	}
	return out
}

// FluctuationRatio is max/mean over the positive samples of a series — a
// scalar summary of how unsteady a connection is (the paper's qualitative
// claim for Figs. 7-8 is that rates fluctuate heavily at short timescales).
func FluctuationRatio(s *report.Series) float64 {
	sum, n, max := 0.0, 0, 0.0
	for _, p := range s.Points {
		if p.Y > 0 {
			sum += p.Y
			n++
			if p.Y > max {
				max = p.Y
			}
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return max / (sum / float64(n))
}
