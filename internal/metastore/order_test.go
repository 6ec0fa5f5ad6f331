package metastore

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// orderMasks are FuzzStableOrder's key masks, selected by the mode byte.
// All but the first make ties common, and several leave whole byte
// positions constant so the kernel's pass skipping is exercised.
var orderMasks = []uint64{
	^uint64(0),         // raw keys
	0x7,                // low bits only: heavy ties, seven skipped passes
	0xFF00000000000000, // sign byte only: keys differ only in the top byte
	0x8000000000000003, // sign bit plus low bits: negatives tie with negatives
	0x00FF0000FF0000FF, // three scattered bytes, the rest constant
	0x3FF,              // two low bytes, a ~1k-value pool
}

// checkStableOrder compares stableOrder with the standard library's
// stable sort over (key, index): the permutations must be identical.
func checkStableOrder(t *testing.T, keys []int64) {
	t.Helper()
	type keyed struct {
		key int64
		idx int32
	}
	want := make([]keyed, len(keys))
	for i, k := range keys {
		want[i] = keyed{k, int32(i)}
	}
	slices.SortStableFunc(want, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	got := stableOrder(keys)
	if len(got) != len(keys) {
		t.Fatalf("stableOrder returned %d positions for %d keys", len(got), len(keys))
	}
	for i := range got {
		if got[i] != want[i].idx {
			t.Fatalf("position %d: got index %d (key %d), want index %d (key %d)",
				i, got[i], keys[got[i]], want[i].idx, want[i].key)
		}
	}
}

// encodeOrderInput builds a FuzzStableOrder input: the mode byte, then
// each key as 8 little-endian bytes.
func encodeOrderInput(mode byte, keys ...int64) []byte {
	b := []byte{mode}
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint64(b, uint64(k))
	}
	return b
}

// FuzzStableOrder fuzzes the radix kernel against a stable-sort oracle.
// Input layout: data[0] selects a mask from orderMasks, applied to every
// key; the remaining bytes are the keys, 8 little-endian bytes each (a
// trailing partial key is ignored).
func FuzzStableOrder(f *testing.F) {
	const p1, p2, p3 = 6_400_000_001, 6_400_000_017, 6_399_999_990
	f.Add(encodeOrderInput(0))
	f.Add(encodeOrderInput(0, 42))
	f.Add(encodeOrderInput(0, 7, 7, 7, 7, 7, 7))
	f.Add(encodeOrderInput(0, math.MaxInt64, 1, math.MinInt64, 0, -1, math.MaxInt64, -1, 0, math.MinInt64, 1))
	f.Add(encodeOrderInput(0, 0x7F<<56, -0x80<<56, 0x01<<56, -0x01<<56, 0, 0x01<<56, -0x80<<56))
	f.Add(encodeOrderInput(0, p2, p1, p3, p1, p2, p2, p3, p1))
	f.Add(encodeOrderInput(1, p2, p1, p3, p1, p2, p2, p3, p1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mask := orderMasks[int(data[0])%len(orderMasks)]
		keys := make([]int64, (len(data)-1)/8)
		for i := range keys {
			keys[i] = int64(binary.LittleEndian.Uint64(data[1+8*i:]) & mask)
		}
		checkStableOrder(t, keys)
	})
}

// TestStableOrderLargeInputs runs the oracle over inputs longer than the
// fuzzer usually builds, for every mask.
func TestStableOrderLargeInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 255, 256, 257, 5000} {
		for _, mask := range orderMasks {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = int64(rng.Uint64() & mask)
			}
			checkStableOrder(t, keys)
		}
	}
}
