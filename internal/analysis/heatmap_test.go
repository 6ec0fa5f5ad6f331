package analysis

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
	"panrucio/internal/stats"
	"panrucio/internal/topology"
)

// buildHeatmapReference is BuildHeatmap with one Grid.SiteIndex lookup per
// event endpoint, the loop the identity-keyed resolver replaced. It is the
// oracle BuildHeatmap must equal bit for bit.
func buildHeatmapReference(store *metastore.Store, grid *topology.Grid, from, to simtime.VTime) *Heatmap {
	n := grid.NumAxes()
	h := &Heatmap{Grid: grid, Cells: make([][]float64, n)}
	for i := range h.Cells {
		h.Cells[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		h.Labels = append(h.Labels, grid.AxisLabel(i))
	}
	for _, ev := range store.Transfers(from, to) {
		i := grid.SiteIndex(ev.SourceSite)
		j := grid.SiteIndex(ev.DestinationSite)
		b := float64(ev.FileSize)
		h.Cells[i][j] += b
		h.TotalBytes += b
		if i == j {
			h.LocalBytes += b
		}
		if i == n-1 || j == n-1 {
			h.UnknownBytes += b
		}
	}
	var flat []float64
	for i := range h.Cells {
		flat = append(flat, h.Cells[i]...)
	}
	h.MeanCell = stats.Mean(flat)
	h.GeoMeanCell = stats.GeoMean(flat)
	return h
}

// heatmapDiff names the first difference between two heatmaps, comparing
// every float by its bits, or returns "" when they are identical.
func heatmapDiff(got, want *Heatmap) string {
	if !slices.Equal(got.Labels, want.Labels) {
		return "axis labels differ"
	}
	if len(got.Cells) != len(want.Cells) {
		return fmt.Sprintf("%d rows, want %d", len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		for j := range want.Cells[i] {
			if math.Float64bits(got.Cells[i][j]) != math.Float64bits(want.Cells[i][j]) {
				return fmt.Sprintf("cell [%d][%d] = %v, want %v", i, j, got.Cells[i][j], want.Cells[i][j])
			}
		}
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"TotalBytes", got.TotalBytes, want.TotalBytes},
		{"LocalBytes", got.LocalBytes, want.LocalBytes},
		{"UnknownBytes", got.UnknownBytes, want.UnknownBytes},
		{"MeanCell", got.MeanCell, want.MeanCell},
		{"GeoMeanCell", got.GeoMeanCell, want.GeoMeanCell},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	return ""
}

func checkHeatmap(t *testing.T, label string, store *metastore.Store, grid *topology.Grid, from, to simtime.VTime) {
	t.Helper()
	if d := heatmapDiff(BuildHeatmap(store, grid, from, to), buildHeatmapReference(store, grid, from, to)); d != "" {
		t.Errorf("%s, window [%d, %d): %s", label, from, to, d)
	}
}

// heatmapWindows is [from, to), the whole store (0, 0) and each third of
// [from, to).
func heatmapWindows(from, to simtime.VTime) [][2]simtime.VTime {
	third := (to - from) / 3
	return [][2]simtime.VTime{{from, to}, {0, 0}, {from, from + third}, {from + third, to - third}, {to - third, to}}
}

// TestHeatmapMatchesReference holds BuildHeatmap to the per-event SiteIndex
// loop over a quick run, on the live store at every checkpoint and on the
// frozen store after the run, and over a synthetic store with more
// distinct endpoint strings than the resolver has slots.
func TestHeatmapMatchesReference(t *testing.T) {
	t.Run("quick run", func(t *testing.T) {
		cfg := sim.QuickConfig(3)
		cfg.SegmentRows = 2048 // seal mid-run, so live windows merge several runs
		grid := sim.GridFor(cfg)
		checkpoints := 0
		res := sim.RunWithObserver(cfg, 12*simtime.Hour, func(now simtime.VTime, s *metastore.Store) {
			checkpoints++
			for _, w := range heatmapWindows(0, now) {
				checkHeatmap(t, fmt.Sprintf("live store at %d", now), s, grid, w[0], w[1])
			}
		})
		if checkpoints == 0 {
			t.Fatal("the observer never ran")
		}
		if len(res.Store.Transfers(res.WindowFrom, res.WindowTo)) == 0 {
			t.Fatal("the study window holds no transfers")
		}
		for _, w := range heatmapWindows(res.WindowFrom, res.WindowTo) {
			checkHeatmap(t, "frozen store", res.Store, res.Grid, w[0], w[1])
		}
	})

	t.Run("more identities than slots", func(t *testing.T) {
		grid := topology.Default(topology.DefaultSpec{})
		var labels []string
		for i := 0; i < grid.NumAxes(); i++ {
			labels = append(labels, strings.Clone(grid.AxisLabel(i)))
		}
		for i := 0; i < 1<<resolverBits; i++ {
			labels = append(labels, fmt.Sprintf("OFF-GRID-%03d", i))
		}
		labels = append(labels, "")
		store := metastore.NewShardedSegmented(3, 64)
		const horizon = 500
		for i := 0; i < 3*len(labels); i++ {
			store.PutTransfer(&records.TransferEvent{
				EventID:         int64(i + 1),
				LFN:             "f",
				SourceSite:      labels[i%len(labels)],
				DestinationSite: labels[(7*i+3)%len(labels)],
				FileSize:        int64(1+i%97) << (i % 41),
				StartedAt:       simtime.VTime(i % horizon),
				EndedAt:         simtime.VTime(i%horizon + 1),
			})
		}
		for _, w := range heatmapWindows(0, horizon) {
			checkHeatmap(t, "live store", store, grid, w[0], w[1])
		}
		store.Freeze()
		for _, w := range heatmapWindows(0, horizon) {
			checkHeatmap(t, "frozen store", store, grid, w[0], w[1])
		}
	})
}

// TestSiteResolver checks the resolver against SiteIndex where an identity
// key could go wrong: one name in two backings, a prefix sharing its
// string's backing (same pointer, another length, another axis), the zero
// string (no data pointer, where an empty slot would answer axis 0) and two
// identities that share a slot, looked up in turn so each evicts the other.
func TestSiteResolver(t *testing.T) {
	grid := topology.Default(topology.DefaultSpec{})
	name := grid.AxisLabel(1)
	clone := strings.Clone(name)
	if unsafe.StringData(clone) == unsafe.StringData(name) {
		t.Fatal("the clone shares the name's backing")
	}

	// A long backing whose prefix of len(name) bytes is the name: find a
	// longer prefix that hashes to the name prefix's slot.
	long := name + strings.Repeat("x", 32<<resolverBits)
	prefix := long[:len(name)]
	slot := resolverSlotOf(unsafe.StringData(prefix), len(prefix))
	var sameSlot string
	for n := len(name) + 1; n <= len(long); n++ {
		if resolverSlotOf(unsafe.StringData(long), n) == slot {
			sameSlot = long[:n]
			break
		}
	}
	if sameSlot == "" {
		t.Fatal("no prefix of the long backing shares the name prefix's slot")
	}

	var zero string
	lookups := []string{
		name, clone, prefix, long, sameSlot, prefix, sameSlot, name[:len(name)-1],
		zero, "", topology.UnknownSite, "OFF-GRID", zero, clone, name,
	}
	r := siteResolver{grid: grid}
	for round := 0; round < 2; round++ {
		for k, s := range lookups {
			if got, want := r.axis(s), grid.SiteIndex(s); got != want {
				t.Errorf("round %d, lookup %d (%.20q, %d bytes): axis %d, want %d", round, k, s, len(s), got, want)
			}
		}
		slices.Reverse(lookups)
	}
}

// FuzzBuildHeatmap holds BuildHeatmap to buildHeatmapReference over put
// streams whose endpoints come from a small, tie-heavy pool: grid names
// put either with the grid's own backing or a fresh one (the store keeps
// whichever arrives first), a grid name's prefix, names off the grid,
// UNKNOWN and the empty string. On the live store, and again after Freeze,
// the two must agree bit for bit over [from, to), (0, 0) being the whole
// store.
//
// Input layout: data[0] → shard count (1..3), then three bytes a, b, c
// per put, up to 128 puts: source pool[a%9], destination pool[b%9], start
// time c and file size (c+1) << (a%48) + b. The grid names take a fresh
// backing when a/9 is odd (source) or b/9 is odd (destination).
func FuzzBuildHeatmap(f *testing.F) {
	// The named sites plus one generic site per tier: 25 axes, a heatmap a
	// twentieth the size of the default grid's, so each input stays cheap
	// enough to minimize.
	grid := topology.Default(topology.DefaultSpec{ExtraTier2: 1, ExtraTier3: 1})
	pool := []string{
		grid.AxisLabel(0), grid.AxisLabel(1), grid.AxisLabel(2),
		grid.AxisLabel(0)[:3], "OFF-GRID-A", "OFF-GRID-B",
		topology.UnknownSite, "", grid.AxisLabel(grid.NumAxes() - 2),
	}
	label := func(x byte) string {
		s := pool[int(x)%len(pool)]
		if (x/byte(len(pool)))%2 == 1 {
			s = strings.Clone(s)
		}
		return s
	}
	f.Fuzz(func(t *testing.T, data []byte, from, to uint8) {
		var hdr [1]byte
		copy(hdr[:], data)
		store := metastore.NewShardedSegmented(1+int(hdr[0]%3), 4)
		ops := data[min(len(data), 1):min(len(data), 1+3*128)]
		for i := 0; i+2 < len(ops); i += 3 {
			a, b, c := ops[i], ops[i+1], ops[i+2]
			store.PutTransfer(&records.TransferEvent{
				EventID:         int64(i/3 + 1),
				LFN:             "f",
				SourceSite:      label(a),
				DestinationSite: label(b),
				FileSize:        (int64(c)+1)<<(a%48) + int64(b),
				StartedAt:       simtime.VTime(c),
				EndedAt:         simtime.VTime(c) + 1,
			})
		}
		lo, hi := simtime.VTime(from), simtime.VTime(to)
		checkHeatmap(t, "live store", store, grid, lo, hi)
		store.Freeze()
		checkHeatmap(t, "frozen store", store, grid, lo, hi)
	})
}
